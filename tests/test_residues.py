import itertools
import json
import os
import random

import pytest

from conic_nf.errors import EvenPrime
from conic_nf.fields import make_field, parse_element, size_sq
from conic_nf.ideals import (
    Ideal,
    element_valuation,
    factor_ideal,
    principal_ideal,
    splitting_type,
    unit_ideal,
)
from conic_nf.solvability import (
    ConicEquation,
    _odd_prime_condition,
    check_solvable,
    embedding_condition,
)
from conic_nf.residues import (
    closest_in_coset,
    crt_coefficients,
    local_solvable_at_two,
    sqrt_mod_dyadic_prime_power,
    sqrt_mod_ideal,
    sqrt_mod_odd_prime_power,
    sqrt_mod_prime,
)

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)
Q14 = make_field(14)


def _prime_over(field, p, idx=0):
    return splitting_type(field, p)[1][idx]


def test_sqrt_mod_prime_examples():
    # X^2 = -26 mod 3 O_K in Q(sqrt(-7)): 1 works since -26 = 1 mod 27.
    P3 = _prime_over(Q7, 3)
    r = sqrt_mod_prime(Q7.element(-26), P3)
    assert r is not None
    assert P3.ideal().contains(r * r - Q7.element(-26))
    assert r == Q7.one()

    # X^2 = -6 mod 13 O_K in Q(sqrt(-7)): 5*sqrt(-7) squares to -175 = -6.
    P13 = _prime_over(Q7, 13)
    r = sqrt_mod_prime(Q7.element(-6), P13)
    assert r is not None
    assert P13.ideal().contains(r * r - Q7.element(-6))

    # X^2 = 2 mod 3 O_K in Q(sqrt(14)): sqrt(14) works.
    P3i = _prime_over(Q14, 3)
    r = sqrt_mod_prime(Q14.element(2), P3i)
    assert r is not None
    assert P3i.ideal().contains(r * r - Q14.element(2))

    # 2 is not a square mod 5 over Q.
    P5 = _prime_over(Q, 5)
    assert sqrt_mod_prime(Q.element(2), P5) is None


def test_sqrt_mod_prime_rejects_two():
    P2 = _prime_over(Q, 2)
    with pytest.raises(EvenPrime):
        sqrt_mod_prime(Q.element(1), P2)


def test_sqrt_mod_prime_random_against_enumeration():
    rng = random.Random(31)
    for field, p in [(Q, 11), (Q6, 5), (Q6, 7), (Q7, 3), (Q7, 11), (Q14, 3)]:
        P = _prime_over(field, p)
        I = P.ideal()
        squares = {I.reduce(x * x) for x in I.residues()}
        for _ in range(30):
            a = field.element(
                rng.randint(-30, 30), 0 if field.is_rational else rng.randint(-30, 30)
            )
            got = sqrt_mod_prime(a, P)
            if I.reduce(a) in squares:
                assert got is not None and I.contains(got * got - a)
            else:
                assert got is None


def test_sqrt_mod_odd_prime_power_complete_root_sets():
    rng = random.Random(5)
    cases = [
        (Q, 3, 3),
        (Q, 5, 2),
        (Q6, 5, 2),  # split
        (Q6, 3, 2),  # ramified
        (Q7, 5, 2),  # inert
        (Q14, 3, 2),  # inert, real field
        (Q7, 11, 2),  # split
        (Q7, 3, 3),  # inert
    ]
    # Ramified, omega = (1 + sqrt(d))/2 and omega = sqrt(d).
    for d, p, es in [(5, 5, (3, 4, 5)), (-3, 3, (3, 4, 5)), (17, 17, (3,)),
                     (-6, 3, (3, 4, 5)), (10, 5, (3, 4, 5))]:
        cases += [(make_field(d), p, e) for e in es]
    for field, p, e in cases:
        P = _prime_over(field, p)
        Ie = P.ideal() ** e
        squares = {}
        for x in Ie.residues():
            squares.setdefault(Ie.reduce(x * x), []).append(x)
        for k in (0, 0, 1, 1, 2) * 5:
            # a = y^2 * p^k * u reaches the strata v_P(a) = 2 and 4.
            y, u = (
                field.element(
                    rng.randint(-60, 60), 0 if field.is_rational else rng.randint(-60, 60)
                )
                for _ in range(2)
            )
            a = y * y * u * p**k
            true_roots = sorted(squares.get(Ie.reduce(a), []), key=lambda z: (z.u, z.v))
            got = sqrt_mod_odd_prime_power(a, P, e)
            if got is None:
                assert not true_roots
            elif Ie.contains(a):
                # P^ceil(e/2) mod P^e, in the order of Ie.residues().
                assert got == sorted(true_roots, key=lambda z: (z.v, z.u))
            else:
                assert got == true_roots


def test_odd_prime_witness_is_the_least_listed_root():
    # The check's witness, taken in closed form from one unit root, is the
    # least element of the full root set mod P^(s+1), listed here.
    rng = random.Random(8)
    places = [
        (K, P)
        for K in (Q, Q6, Q7, Q14, *map(make_field, (-3, 5, -15, 13)))
        for p in (3, 5, 7)
        for P in splitting_type(K, p)[1]
    ]
    seen = set()
    witnesses = 0
    while witnesses < 2000:
        K, P = rng.choice(places)
        pi = K.element(P.p) if P.f == 2 or K.is_rational else P.second_gen
        coeffs = []
        for _ in range(3):
            x = K.zero()
            while x.is_zero or element_valuation(x, P):
                v = 0 if K.is_rational else rng.randint(-30, 30)
                x = K.element(rng.randint(1, 30), v)
            coeffs.append(x * pi ** rng.randint(0, 2))
        _, w = _odd_prime_condition(*coeffs, P)
        if w is None:
            continue
        vals = [element_valuation(x, P) for x in coeffs]
        pairs = ((0, 1), (0, 2), (1, 2))
        i, j = next((i, j) for i, j in pairs if vals[i] % 2 == vals[j] % 2)
        s = vals[i] + vals[j]
        assert s <= 4
        assert w == sqrt_mod_odd_prime_power(-(coeffs[i] * coeffs[j]), P, s + 1)[0]
        witnesses += 1
        seen.add((P.e, P.f, K.omega_kind, s))
    # Every splitting type at s = 4, among them the ramified primes with
    # omega = (1 + sqrt(d))/2, where the HNF reduction alone misses the least root.
    assert {(2, 1, "half_one_plus_sqrt_d", 4), (2, 1, "sqrt_d", 4), (1, 2, "sqrt_d", 4),
            (1, 1, "half_one_plus_sqrt_d", 4), (1, 1, None, 4)} <= seen


def test_sqrt_mod_dyadic_enumeration():
    P2 = _prime_over(Q6, 2)
    roots = sqrt_mod_dyadic_prime_power(Q6.element(-2), P2, 3)
    Ie = P2.ideal() ** 3
    assert roots is not None
    for r in roots:
        assert Ie.contains(r * r - Q6.element(-2))
    # 5 is not a square mod 8.
    P2q = _prime_over(Q, 2)
    assert sqrt_mod_dyadic_prime_power(Q.element(5), P2q, 3) is None


def test_crt_coefficients():
    I = principal_ideal(Q6.element(3))
    J = principal_ideal(Q6.element(5, 1))
    lam = crt_coefficients(Q6, [I, J])
    assert I.contains(lam[0] - Q6.one()) and J.contains(lam[0])
    assert J.contains(lam[1] - Q6.one()) and I.contains(lam[1])


def test_closest_in_coset_certified():
    rng = random.Random(17)
    for field in (Q6, Q7, Q14):
        for _ in range(20):
            g = field.element(rng.randint(1, 8), rng.randint(-3, 3))
            if g.is_zero or abs(g.norm()) < 2:
                continue
            M = principal_ideal(g)
            x = field.element(rng.randint(-40, 40), rng.randint(-40, 40))
            best = closest_in_coset(x, M)
            assert M.contains(best - x)
            for y in M.residues():
                # Brute force over a window of lattice translates of y.
                pass
            # Exhaustive check over small multiples of the HNF basis.
            b1 = field.element(M.a)
            b2 = field.element(M.b, M.c)
            for k1 in range(-6, 7):
                for k2 in range(-6, 7):
                    cand = M.reduce(x) - b1 * k1 - b2 * k2
                    assert size_sq(best) <= size_sq(cand)


# Closest elements of cosets over Q, imaginary and real fields, ties
# included, as closest_in_coset returned them while it still ran on
# FieldElements and Surds.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "lattice_step.json")) as _f:
    GOLDEN_COSETS = json.load(_f)["cosets"]


@pytest.mark.parametrize(
    "row", GOLDEN_COSETS, ids=lambda r: f"{r['field']}:{r['ideal']}:{r['x']}"
)
def test_closest_in_coset_golden(row):
    K = make_field(row["field"])
    got = closest_in_coset(parse_element(K, row["x"]), Ideal(K, *row["ideal"]))
    assert got == parse_element(K, row["closest"])


def test_sqrt_mod_ideal_reference_modulus():
    # Minimal root of X^2 = 823 mod (1929) in Q(sqrt(-6)) is 643+723*sqrt(-6)
    # up to sign; its size is about 1884.1, below |1929| - 1.
    M = principal_ideal(Q6.element(1929))
    w = sqrt_mod_ideal(Q6.element(823), M)
    assert w is not None
    assert M.contains(w * w - Q6.element(823))
    assert w.norm() == 3549823
    assert {abs(w.u), abs(w.v)} == {643, 723}


def test_sqrt_mod_ideal_none_over_q():
    M = principal_ideal(Q.element(21))
    assert sqrt_mod_ideal(Q.element(5), M) is None  # 5 is not a QR mod 3


def test_sqrt_mod_ideal_minimality_small_moduli():
    rng = random.Random(23)
    for field in (Q, Q6, Q7):
        for _ in range(15):
            g = field.element(
                rng.randint(2, 30), 0 if field.is_rational else rng.randint(-3, 3)
            )
            M = principal_ideal(g)
            if M.norm <= 1 or M.norm > 10**4:
                continue
            a = field.element(
                rng.randint(-50, 50), 0 if field.is_rational else rng.randint(-50, 50)
            )
            got = sqrt_mod_ideal(a, M)
            brute = [x for x in M.residues() if M.contains(x * x - a)]
            if got is None:
                assert not brute
                continue
            assert M.contains(got * got - a)
            best_brute = min(
                (size_sq(closest_in_coset(x, M)) for x in brute),
            )
            assert size_sq(got) == best_brute


def test_local_solvable_at_two_examples():
    # 3x^2 + 2y^2 - 13z^2 = 0 is solvable at the primes over 2 in Q(sqrt(-7)).
    for P in splitting_type(Q7, 2)[1]:
        assert local_solvable_at_two(
            Q7.element(3), Q7.element(2), Q7.element(-13), P
        )

    P2 = splitting_type(Q, 2)[1][0]
    # x^2 + y^2 + z^2 = 0 admits no primitive 2-adic solution.
    assert not local_solvable_at_two(Q.element(1), Q.element(1), Q.element(1), P2)
    # x^2 + y^2 - 2z^2 = 0 does (witness (1, 1, 1)).
    assert local_solvable_at_two(Q.element(1), Q.element(1), Q.element(-2), P2)


def test_local_solvable_at_two_matches_known_legendre_cases():
    # For odd squarefree coefficients over Q, compare against the classical
    # necessary congruence conditions on a + b + c mod 8.
    P2 = splitting_type(Q, 2)[1][0]
    solvable = [(1, 1, -2), (1, -1, 1), (2, 3, -5), (1, 2, -3), (3, 5, 7)]
    unsolvable = [(1, 1, 1), (1, 1, 2), (1, 2, 2)]
    for a, b, c in solvable:
        assert local_solvable_at_two(Q.element(a), Q.element(b), Q.element(c), P2)
    for a, b, c in unsolvable:
        assert not local_solvable_at_two(
            Q.element(a), Q.element(b), Q.element(c), P2
        )


def test_local_solvable_at_two_needs_completion_q2():
    for d in (-1, 2, -3, 5):  # 2 ramifies or is inert: K_P is not Q_2
        K = make_field(d)
        (P,) = splitting_type(K, 2)[1]
        with pytest.raises(EvenPrime):
            local_solvable_at_two(K.one(), K.one(), K.element(-1), P)
    with pytest.raises(EvenPrime):
        local_solvable_at_two(Q.one(), Q.one(), Q.element(-1), _prime_over(Q, 3))


def test_hilbert_reciprocity_over_q():
    # The symbols (-ac, -bc)_v multiply to 1 over all places v, so the real,
    # odd and 2-adic places at which the conic fails are even in number.
    P2 = splitting_type(Q, 2)[1][0]
    squarefree = [n for n in range(-13, 14) if n and all(n % (k * k) for k in (2, 3))]
    failures = set()
    for a, b, c in itertools.combinations_with_replacement(squarefree, 3):
        eq = ConicEquation(Q.element(a), Q.element(b), Q.element(c))
        failed = [not embedding_condition(eq)]
        for p in {p for p in (3, 5, 7, 11, 13) if (a * b * c) % p == 0}:
            failed.append(not _odd_prime_condition(eq.a, eq.b, eq.c, _prime_over(Q, p))[0])
        failed.append(not local_solvable_at_two(eq.a, eq.b, eq.c, P2))
        assert sum(failed) % 2 == 0, (a, b, c)
        failures.add(sum(failed))
    assert failures >= {0, 2}


def test_both_primes_over_two_agree_when_the_other_places_pass():
    # When 2 splits, reciprocity forces the two dyadic symbols to agree once
    # the real and odd places pass.
    rng = random.Random(7)
    for d in (-7, 17):
        K = make_field(d)
        primes = splitting_type(K, 2)[1]
        verdicts = []
        for _ in range(150):
            a, b, c = (
                K.element(rng.randint(-9, 9), rng.randint(-9, 9)) * rng.choice((1, 1, 2, 4))
                for _ in range(3)
            )
            if a.is_zero or b.is_zero or c.is_zero:
                continue
            cert = check_solvable(ConicEquation(a, b, c))
            if cert.reason not in ("solvable", "dyadic"):
                continue
            got = [local_solvable_at_two(a, b, c, P) for P in primes]
            assert got[0] == got[1] == cert.solvable, (d, a, b, c)
            verdicts.append(got[0])
        assert True in verdicts and False in verdicts
