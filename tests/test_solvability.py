import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from conic_nf.errors import BaseDegenerate, PreconditionViolated
from conic_nf.descent import SolutionTriple, verify
from conic_nf.fields import FieldElement, integer_ring, make_field, parse_element
from conic_nf import ideals, residues, solvability
from conic_nf.ideals import Ideal, PrimeIdeal, factor_element, factor_ideal, principal_ideal, splitting_type
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


def test_equation_refuses_coefficients_of_different_fields():
    # Built, this triple read its field off a, check_solvable failed deep in
    # the kernel and embedding_condition answered True.
    with pytest.raises(PreconditionViolated):
        ConicEquation(Q7.element(1), make_field(6).element(1), Q7.element(1))
    with pytest.raises(PreconditionViolated):
        ConicEquation(Q7.element(1), Q7.element(1), Q.element(1))


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


def test_kernel_form_matches_the_equation_form():
    # check_solvable(ring, a, b, c) on kernel values gives the certificate of
    # check_solvable(eq), over Q and fields where 2 splits (-7, 17), is inert
    # (-3, 5) or ramifies (-1, 2, 6, -5), real and imaginary.  A zero value
    # is refused as in ConicEquation.
    rng = random.Random(40)
    reasons = set()
    for d in (None, -7, 17, -3, 5, -1, 2, 6, -5):
        K = make_field(d)
        ring = integer_ring(K)
        for _ in range(80):
            pairs = []
            while len(pairs) < 3:
                v = 0 if K.is_rational else rng.randint(-20, 20)
                k = rng.choice((1, 1, 2, 3, 4, 9, 25))
                x = (k * rng.randint(-20, 20), k * v)
                if x != (0, 0):
                    pairs.append(x)
            want = check_solvable(ConicEquation(*map(ring.element, pairs))).to_dict()
            assert check_solvable(ring, *pairs).to_dict() == want, (d, pairs)
            reasons.add(want["reason"])
        for zero_at in range(3):
            values = [ring.one, (3, 0), (-5, 1) if d else (-5, 0)]
            values[zero_at] = ring.zero
            with pytest.raises(BaseDegenerate, match="^all three coefficients must be nonzero$"):
                check_solvable(ring, *values)
    assert reasons == {"solvable", "real_embedding", "congruence", "dyadic"}


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


def test_check_solvable_formats_its_places_only_when_read(monkeypatch):
    # solve_conic and the corpus runner read only the verdict, so the check
    # writes no prime or witness as text; conditions and to_dict do.
    formatted = []
    prime_repr, element_format = PrimeIdeal.__repr__, solvability.format_element
    monkeypatch.setattr(PrimeIdeal, "__repr__", lambda P: formatted.append(P) or prime_repr(P))
    monkeypatch.setattr(
        solvability, "format_element", lambda x: formatted.append(x) or element_format(x)
    )
    cert = check_solvable(eq_of(Q7, 3, 2, 13))
    assert cert.solvable and formatted == []
    conditions = cert.to_dict()["conditions"]
    assert [c["prime"] for c in conditions] == ["(3)", "(13)", "(2, 1/2+1/2s)", "(2, 1/2-1/2s)"]
    assert [c["witness"] for c in conditions[:2]] == ["1", "13/2+3/2s"]
    assert len(formatted) == 6


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
# valuations and prime powers were still computed by ideal products.  The
# last eight rows, as it returned them while it still factored each
# coefficient's ideal: a refusal at 2 and at a real embedding; witnesses at
# valuation 4 and 6 at split primes, 4 at a ramified one and 2 at the inert 3
# of Q(sqrt(5)); and degree-1 primes above 10^6 and 10^12.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "certificates.json")) as _f:
    GOLDEN_CERTIFICATES = json.load(_f)


def _golden_equation(row):
    K = make_field(row["field"])
    return ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";")))


@pytest.mark.parametrize("row", GOLDEN_CERTIFICATES, ids=lambda r: f"{r['field']}:{r['eq']}")
def test_check_solvable_golden_certificates(row):
    assert check_solvable(_golden_equation(row)).to_dict() == row["certificate"]


def test_golden_certificates_cover_every_splitting_type():
    # Odd-prime witnesses at every splitting type, and every exit of the
    # check: a refusal at a real embedding, at an odd prime and at 2.
    K = {row["field"]: make_field(row["field"]) for row in GOLDEN_CERTIFICATES}
    kinds = set()
    for row in GOLDEN_CERTIFICATES:
        field = K[row["field"]]
        for c in row["certificate"]["conditions"]:
            if c["type"] == "odd_prime" and c["witness"] is not None:
                p = int(c["prime"].strip("()").split(",")[0])
                kinds.add("Split" if field.is_rational else splitting_type(field, p)[0])
    assert kinds == {"Split", "Inert", "Ramified"}
    reasons = {row["certificate"]["reason"] for row in GOLDEN_CERTIFICATES}
    assert reasons == {"solvable", "real_embedding", "congruence", "dyadic"}


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


def test_check_solvable_calls_no_valuation_or_root_lister(monkeypatch):
    # The valuations come from the factorisations of the coefficients' norms
    # and each odd witness from one closed-form root of the unit part: no
    # element valuation, no coefficient ideal built, put in HNF or factored,
    # and no listing of roots mod P^e, wherever the names are bound.  Only a
    # witness at a ramified or inert prime builds prime powers, its Ik and
    # Ie; over Q and at split primes the witness builds none.
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    # splitting_type builds its primes' ideals once per field and prime.
    for row in GOLDEN_CERTIFICATES:
        check_solvable(_golden_equation(row))
    for name in ("element_valuation", "sqrt_mod_odd_prime_power", "factor_ideal",
                 "principal_ideal", "hnf_rows", "prime_power"):
        for module in (ideals, residues, solvability):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for row in GOLDEN_CERTIFICATES:
        K = make_field(row["field"])
        calls.clear()
        assert check_solvable(_golden_equation(row)).to_dict() == row["certificate"]
        other = [
            c for c in row["certificate"]["conditions"]
            if c["type"] == "odd_prime" and c["witness"] is not None and not K.is_rational
            and splitting_type(K, int(c["prime"].strip("()").split(",")[0]))[0] != "Split"
        ]
        assert calls == ["prime_power"] * 2 * len(other), row
    calls.clear()
    cert = check_solvable(eq_of(Q, 678223072849, -1, 7))
    (odd,) = [c for c in cert.conditions if c["type"] == "odd_prime"]
    assert odd["witness"] == "823543"
    assert calls == []


def _odd_primes(K, kind):
    """The primes of K over a few odd p that split, ramify or stay inert as
    kind says; over Q every prime counts as split."""
    ps = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 1009)
    return [P for p in ps if splitting_type(K, p)[0] == kind for P in splitting_type(K, p)[1]]


def test_kernel_valuations_match_the_ideal_factorisation():
    # The check reads each coefficient's valuations from the factorisation of
    # its norm, with no ideal (factor_element).  They are the factorisation
    # of its ideal, in the same order, on 3,000 random elements over Q and
    # twelve fields, imaginary and real, where 2 splits, ramifies or is
    # inert.  Each element is a small one times a content, times powers of an
    # element of a prime over 2, of a ramified odd prime and of a split odd
    # prime.
    rng = random.Random(27)
    fields = [Q, *map(make_field, (-1, -3, -5, -7, -15, 2, 5, 13, 14, 17, 1001, -1009))]
    pis = {}
    for K in fields:
        gens = [K.element(P.p) if K.is_rational else P.second_gen for P in splitting_type(K, 2)[1]]
        for kind in ("Ramified", "Split"):
            gens += [K.element(P.p) if K.is_rational else P.second_gen for P in _odd_primes(K, kind)[:2]]
        pis[K] = gens
    seen = set()
    for _ in range(3000):
        K = rng.choice(fields)
        x = K.zero()
        while x.is_zero:
            x = K.element(rng.randint(-40, 40), 0 if K.is_rational else rng.randint(-40, 40))
        x = x * rng.choice((1, 1, 2, 3, 6, 9, 25))
        for pi in rng.sample(pis[K], 3):
            x = x * pi ** rng.randint(0, 4)
        ring = integer_ring(K)
        got = factor_element(ring, ring.pair(x))
        assert got == factor_ideal(principal_ideal(x)), (K, x)
        seen.update((K.disc and K.disc % 8, P.e, P.f) for P, k in got if P.p == 2 and k >= 3)
    # Every kind of prime over 2 at valuation 3 or more: Q, split, inert,
    # ramified with d = 2, 3 (mod 4).
    assert {(None, 1, 1), (1, 1, 1), (5, 1, 2), (0, 2, 1), (4, 2, 1)} <= seen


def _counted(calls, name, fn):
    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


def test_from_coefficients_keeps_integral_triples(monkeypatch):
    # An integral triple is taken as it is, with no FieldElement product; a
    # rational one is scaled by the lcm m of its denominators, as before.
    rng = random.Random("from_coefficients")
    triples = []
    for d in (None, -7, -6, 5, 14):
        K = make_field(d)
        for _ in range(40):
            v = (lambda: 0) if d is None else (lambda: rng.randint(-9, 9))
            triples.append([K.element(rng.choice([-1, 1]) * rng.randint(1, 99), v()) for _ in "abc"])
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(FieldElement, name)
        monkeypatch.setattr(FieldElement, name, _counted(calls, name, real))
    for a, b, c in triples:
        eq = ConicEquation.from_coefficients(a, b, c)
        assert (eq.a, eq.b, eq.c) == (a, b, c)
    assert calls == []
    monkeypatch.undo()
    scaled = 0
    for a, b, c in triples:
        a, b, c = (t / rng.randint(2, 6) for t in (a, b, c))
        eq = ConicEquation.from_coefficients(a, b, c)
        m = math.lcm(a.den, b.den, c.den)
        scaled += m > 1
        assert (eq.a, eq.b, eq.c) == (a * m, b * m, c * m)
    assert scaled > len(triples) // 2
