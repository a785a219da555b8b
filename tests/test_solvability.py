import json
import os
import random
import time
from fractions import Fraction

import pytest

from conic_nf.errors import BaseDegenerate
from conic_nf.descent import SolutionTriple, verify
from conic_nf.fields import make_field, parse_element
from conic_nf.ideals import Ideal, splitting_type
from conic_nf.solvability import (
    Certificate,
    ConicEquation,
    check_solvable,
    embedding_condition,
)

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)
Q14 = make_field(14)


def eq_of(field, a, b, c):
    return ConicEquation(field.element(a), field.element(b), field.element(c))


def test_equation_validation():
    with pytest.raises(BaseDegenerate):
        eq_of(Q, 1, 0, 1)
    with pytest.raises(BaseDegenerate):
        ConicEquation(
            Q7.element(Fraction(1, 2)), Q7.element(1), Q7.element(1)
        )
    e = ConicEquation.from_coefficients(
        Q.element(Fraction(1, 2)), Q.element(Fraction(1, 3)), Q.element(-1)
    )
    assert (e.a.u, e.b.u, e.c.u) == (3, 2, -6)


def test_embedding_condition():
    assert not embedding_condition(eq_of(Q, 1, 1, 1))
    assert embedding_condition(eq_of(Q, 1, 1, -1))
    assert embedding_condition(eq_of(Q7, 1, 1, 1))  # totally imaginary
    # Over Q(sqrt(14)): 1 + sqrt(14) is positive in one embedding and
    # negative in the other, so (1, 1, 1+s) fails only at one embedding.
    e = ConicEquation(Q14.element(1), Q14.element(1), Q14.element(1, 1))
    assert not embedding_condition(e)
    e2 = ConicEquation(Q14.element(1), Q14.element(-1), Q14.element(1, 1))
    assert embedding_condition(e2)


def test_check_solvable_field_example():
    cert = check_solvable(eq_of(Q7, 3, 2, 13))
    assert cert.solvable and cert.reason == "solvable"
    types = {c["type"] for c in cert.conditions}
    assert "odd_prime" in types and "dyadic" in types
    # (sqrt(-7), 2, 1) solves it, confirming the certificate.
    e = eq_of(Q7, 3, 2, 13)
    s7 = Q7.sqrt_gen()
    assert e.evaluate(s7, Q7.element(2), Q7.one()).is_zero


def test_check_solvable_sum_of_squares_fails_at_infinity():
    cert = check_solvable(eq_of(Q, 1, 1, 1))
    assert not cert.solvable and cert.reason == "real_embedding"


def test_check_solvable_congruence_failure():
    # x^2 + y^2 = 3 z^2 has no solutions: -1 is not a QR mod 3.
    cert = check_solvable(eq_of(Q, 1, 1, -3))
    assert not cert.solvable and cert.reason == "congruence"


def test_check_solvable_norm_form_example():
    # x^2 - 823 y^2 + 1929 z^2 = 0 over Q has no solutions, but over
    # Q(sqrt(-6)) it does.
    cert_q = check_solvable(eq_of(Q, 1, -823, 1929))
    assert not cert_q.solvable
    cert = check_solvable(eq_of(Q6, 1, -823, 1929))
    assert cert.solvable


def test_check_solvable_shared_prime_cases():
    # 3x^2 + 3y^2 + 3z^2 = 0: reduces to (1,1,1), fails at infinity first.
    cert = check_solvable(eq_of(Q, 3, 3, -3))
    # (3,3,-3) ~ (1,1,-1), solvable.
    assert cert.solvable
    # 9x^2 + 3y^2 + z^2 = 0 over Q(sqrt(-7)): condition at 3 needs
    # X^2 = -3 mod 9, which has no solutions over Q; over Q(sqrt(-7))
    # the prime 3 is inert and -3 is not a square mod 3 O_K either.
    cert2 = check_solvable(eq_of(Q, 9, 3, 1))
    assert not cert2.solvable


def test_check_solvable_high_valuation_takes_its_witness_in_closed_form():
    # 7^14*x^2 - y^2 + 7z^2 = 0: the roots of x^2 = 7^14 mod 7^15 are
    # +-7^7 + (7^8), 2*7^7 of them; the witness is the least without listing them.
    t0 = time.perf_counter()
    cert = check_solvable(eq_of(Q, 678223072849, -1, 7))
    assert time.perf_counter() - t0 < 1
    assert cert.solvable
    (odd,) = [c for c in cert.conditions if c["type"] == "odd_prime"]
    assert odd["witness"] == "823543"


def test_certificates_against_bruteforce_over_q():
    # Small-coefficient census over Q: compare with a brute-force search
    # plus the classical obstruction structure (the search bound is large
    # enough for these tiny coefficients by the descent bound).
    rng = random.Random(41)
    import itertools

    def brute(a, b, c, H=40):
        for x, y, z in itertools.product(range(-H, H + 1), repeat=3):
            if (x, y, z) == (0, 0, 0):
                continue
            if a * x * x + b * y * y + c * z * z == 0:
                return (x, y, z)
        return None

    seen = 0
    for _ in range(40):
        a = rng.choice([1, 2, 3, 5, 6, 7, 10, -1, -2, -3, -5, -6, -7])
        b = rng.choice([1, 2, 3, 5, 6, 7, 10, -1, -2, -3, -5, -6, -7])
        c = rng.choice([1, 2, 3, 5, -1, -2, -3, -5])
        cert = check_solvable(eq_of(Q, a, b, c))
        got = brute(a, b, c)
        if got is not None:
            assert cert.solvable, (a, b, c, got)
            seen += 1
        elif not cert.solvable:
            pass
        else:
            # Certificate says solvable but brute force missed it within
            # the window; enlarge the window to be sure.
            assert brute(a, b, c, 400) is not None, (a, b, c)
    assert seen > 5


def test_certificate_serialisation():
    cert = check_solvable(eq_of(Q7, 3, 2, 13))
    d = cert.to_dict()
    assert d["solvable"] is True
    assert isinstance(d["conditions"], list)
    import json

    json.dumps(d)  # must be JSON serialisable


# Solvable conics with high valuations at the primes over 2, each with a
# point (x0, y0, 1): field; a;b;c; x0; y0.
DYADIC_HEAVY = [
    ("5", "-1+s;-1/2+3/2s;-43-23s", "5/2+1/2s", "-3-s"),
    ("-3", "2;-1+s;14+4s", "1/2-1/2s", "-2-s"),
    ("-3", "1+s;1+s;5-5s", "3/2-1/2s", "2+s"),
    ("2", "-2;-2s;32+22s", "-2-2s", "1+s"),
    ("-1", "-1+3s;-2-2s;-10-10s", "-2+2s", "-2+s"),
    ("-1", "-2s;-2s;8-14s", "-2s", "-1+2s"),
]


@pytest.mark.parametrize("d,coeffs,x0,y0", DYADIC_HEAVY)
def test_check_solvable_dyadic_heavy_inputs(d, coeffs, x0, y0):
    K = make_field(d)
    eq = ConicEquation(*(parse_element(K, t) for t in coeffs.split(";")))
    assert verify(eq, SolutionTriple(parse_element(K, x0), parse_element(K, y0), K.one()))
    t0 = time.perf_counter()
    cert = check_solvable(eq)
    assert time.perf_counter() - t0 < 0.5
    assert cert.solvable and cert.reason == "solvable"
    dyadic = [c for c in cert.conditions if c["type"] == "dyadic"]
    assert [c["by"] for c in dyadic] == ["reciprocity"]


def test_check_solvable_dyadic_entries():
    # 2 splits in Q(sqrt(-7)), and x^2 + y^2 + z^2 = 0 has no point over
    # Q_2 = K_P at the first prime over 2.
    cert = check_solvable(eq_of(Q7, 1, 1, 1))
    assert not cert.solvable and cert.reason == "dyadic"
    assert cert.conditions[-1]["by"] == "hilbert_symbol"
    # Over Q, Legendre's theorem: the prime 2 follows from the other places.
    cert = check_solvable(eq_of(Q, 1, 1, -2))
    assert cert.solvable and cert.conditions[-1]["by"] == "reciprocity"


# Certificates with odd-prime witnesses at split, inert and ramified primes
# (some under a square content p^2), as check_solvable returned them while
# valuations and prime powers were still computed by ideal products.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "certificates.json")) as _f:
    GOLDEN_CERTIFICATES = json.load(_f)


def _golden_equation(row):
    K = make_field(row["field"])
    return ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";")))


@pytest.mark.parametrize("row", GOLDEN_CERTIFICATES, ids=lambda r: f"{r['field']}:{r['eq']}")
def test_check_solvable_golden_certificates(row):
    assert check_solvable(_golden_equation(row)).to_dict() == row["certificate"]


def test_golden_certificates_cover_every_splitting_type():
    K = {row["field"]: make_field(row["field"]) for row in GOLDEN_CERTIFICATES}
    kinds = set()
    for row in GOLDEN_CERTIFICATES:
        field = K[row["field"]]
        for c in row["certificate"]["conditions"]:
            if c["type"] == "odd_prime" and c["witness"] is not None:
                p = int(c["prime"].strip("()").split(",")[0])
                kinds.add("Split" if field.is_rational else splitting_type(field, p)[0])
    assert kinds == {"Split", "Inert", "Ramified"}


def test_check_solvable_makes_no_ideal_product(monkeypatch):
    products = []
    real = Ideal.__mul__

    def counted(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Ideal, "__mul__", counted)
    for row in GOLDEN_CERTIFICATES:
        check_solvable(_golden_equation(row))
    assert products == []
