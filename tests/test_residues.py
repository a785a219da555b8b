import itertools
import math
import json
import os
import random
import sys

import pytest

from conic_nf.errors import EvenPrime, UndecidedError
from conic_nf.fields import (
    FieldElement,
    IntegerRing,
    elem_size,
    format_element,
    integer_ring,
    make_field,
    parse_element,
    size_sq,
)
from conic_nf.ideals import (
    Ideal,
    element_valuation,
    factor_ideal,
    is_probable_prime,
    kronecker,
    omega_root,
    prime_power,
    principal_ideal,
    splitting_type,
    unit_ideal,
)
from conic_nf.descent import solve_conic, verify
from conic_nf.solvability import (
    ConicEquation,
    _odd_prime_condition,
    check_solvable,
    embedding_condition,
)
from conic_nf.residues import (
    _ENUM_GUARD,
    _least_in_coset,
    _root_mod_prime,
    closest_in_coset,
    crt_coefficients,
    least_root,
    local_solvable_at_two,
    sqrt_mod_dyadic_prime_power,
    sqrt_mod_ideal,
    sqrt_mod_odd_prime_power,
    sqrt_mod_prime,
)
from timelimit import within

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


def test_root_mod_inert_prime_against_brute_force():
    # Every b in F_p^2 = (Z/p)[omega] at each inert odd p <= 13: the closed
    # form returns a root exactly when b is a square, and the branch
    # tr(y) = 0, where y = c*sqrt(d) for b = c^2*d in F_p, is met.
    traceless = 0
    for d in (-1, -7, 2, 5, 13):
        K = make_field(d)
        ring = integer_ring(K)
        for p in (3, 5, 7, 11, 13):
            kind, primes = splitting_type(K, p)
            if kind != "Inert":
                continue
            roots = {}
            for y in itertools.product(range(p), repeat=2):
                u, v = ring.mul(y, y)
                roots.setdefault((u % p, v % p), set()).add(y)
            for b in itertools.product(range(p), repeat=2):
                y = _root_mod_prime(ring, b, primes[0])
                if b not in roots:
                    assert y is None, (d, p, b)
                    continue
                assert y in roots[b], (d, p, b, y)
                traceless += b != (0, 0) and ring.trace(y) % p == 0
    assert traceless > 0


def test_zero_roots_are_listed_up_to_the_guard():
    # The roots of 0 mod P^e are the N(P)^floor(e/2) residues of P^ceil(e/2):
    # 317 of them mod 317^2, though N(P^2) = 100,489 is past the guard.
    P317 = _prime_over(Q, 317)
    roots = sqrt_mod_odd_prime_power(Q.zero(), P317, 2)
    assert len(roots) == 317
    assert all((r * r).u % 317**2 == 0 for r in roots)
    # Every root mod 3 * 1009^2 is +-1 mod 3 and 0 mod 1009; the least are
    # +-1009, and the tie breaks to the lesser u.
    assert sqrt_mod_ideal(Q.element(1009**2), Ideal(Q, 3 * 1009**2)) == Q.element(-1009)
    # 1009^2 roots of 0 mod 1009^4 are past the guard: undecided, not [0].
    with pytest.raises(UndecidedError):
        sqrt_mod_odd_prime_power(Q.zero(), _prime_over(Q, 1009), 4)


def _equation(d, eq):
    K = make_field(d)
    return ConicEquation(*(parse_element(K, t) for t in eq.split(";")))


# A root mod the inert prime 100003 took 2.8-4.9 s while a Tonelli-Shanks
# over F_p^2 scanned up to p - 1 candidates for a non-residue; the closed form
# takes microseconds.
def test_inert_root_runaway_certificate_within_a_second():
    cert = within(1.0, check_solvable, _equation(-1, "1;1;-100003"))
    assert cert.solvable
    odd = [c for c in cert.to_dict()["conditions"] if c["type"] == "odd_prime"]
    assert odd == [{"ok": True, "prime": "(100003)", "type": "odd_prime", "witness": "s"}]


INERT_ROOT_RUNAWAYS = [
    pytest.param(-1, "100003-s;s;-100003", id="-1:100003-s;s;-100003"),
    pytest.param(2, "100003-s;s;-100003", id="2:100003-s;s;-100003"),
]


@pytest.mark.parametrize("d, eq", INERT_ROOT_RUNAWAYS)
def test_inert_root_runaway_solves_within_a_second(d, eq):
    sol = within(1.0, solve_conic, _equation(d, eq))
    assert [format_element(t) for t in (sol.x, sol.y, sol.z)] == ["-1", "1", "1"]


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
        vals = [element_valuation(x, P) for x in coeffs]
        _, w = _odd_prime_condition([integer_ring(K).pair(x) for x in coeffs], vals, P)
        if w is None:
            continue
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


def _degree_one_draw(rng, K, P, s, square=False):
    """A random a with v_P(a) = s at a degree-1 prime P: a unit at P (a
    square when square is set) times p^j times pi^(s-j), pi = P's second
    generator (p over Q), or None when pi has valuation above 1 at P."""
    pi = K.element(P.p) if K.is_rational else P.second_gen
    if element_valuation(pi, P) != 1:
        return None
    x = K.zero()
    while x.is_zero or element_valuation(x, P):
        x = K.element(rng.randint(-10**6, 10**6), 0 if K.is_rational else rng.randint(-10**6, 10**6))
    j = rng.randint(0, s)
    a = (x * x if square else x) * K.element(P.p) ** j * pi ** (s - j)
    assert element_valuation(a, P) == s
    return a


def test_least_root_at_degree_one_primes_is_the_first_listed_root():
    # Over Q and at split primes the witness is the lesser of
    # +-p^(s/2)*y mod p^(s/2+1) in closed form.  It is the first root that
    # the lister gives mod P^(s+1), or None with it, for every even s up to 8
    # that the lister's guard allows (2*p^(s/2) roots), three draws each.
    rng = random.Random(27)
    seen = set()
    for K in (Q, Q7, *map(make_field, (-1, -15, 2, 13, 17))):
        ring = integer_ring(K)
        for p in (3, 5, 7, 11, 23, 101, 1009):
            for P in splitting_type(K, p)[1]:
                if P.e != 1 or P.f != 1:
                    continue
                for s in range(0, 9, 2):
                    if 2 * p ** (s // 2) > _ENUM_GUARD:
                        break
                    for _ in range(3):
                        a = _degree_one_draw(rng, K, P, s)
                        if a is None:
                            continue
                        roots = sqrt_mod_odd_prime_power(a, P, s + 1)
                        want = roots and ring.pair(roots[0])
                        assert least_root(ring, ring.pair(a), P, s) == want, (K, P, a)
                        seen.add((K.is_rational, s, roots is None))
    assert {(r, s, n) for r in (True, False) for s in (0, 2, 4, 6, 8) for n in (True, False)} <= seen


def test_least_root_past_the_guard_is_the_least_root():
    # At split primes near 10^6 and 10^12 the 2*p^(s/2) roots mod P^(s+1)
    # are too many to list.  For even s up to 10 the witness is a root, and
    # the least residue mod P^(s+1) of the two cosets +-w + P^(s/2+1) that
    # the roots make up, as the HNF path of _least_in_coset gives it.
    rng = random.Random(28)
    for K in (Q, Q7, make_field(17)):
        ring = integer_ring(K)
        for p in (10**6, 10**12):
            while not is_probable_prime(p) or not (K.is_rational or kronecker(K.disc, p) == 1):
                p += 1
            for P in splitting_type(K, p)[1]:
                for s in range(0, 11, 2):
                    a = _degree_one_draw(rng, K, P, s, square=True)
                    w = least_root(ring, ring.pair(a), P, s)
                    Ik, Ie = prime_power(P, s // 2 + 1), prime_power(P, s + 1)
                    assert Ie.reduce_pair(ring.sub(ring.mul(w, w), ring.pair(a))) == (0, 0)
                    assert w == min(_least_in_coset(x, Ik, Ie) for x in (w, (-w[0], -w[1])))


def _reference_odd_places(eq):
    # Every odd place of the certificate, rebuilt from element valuations and
    # the first root that the full lister gives mod P^(s+1), up to the first
    # failing place.
    coeffs = (eq.a, eq.b, eq.c)
    primes = [P for x in coeffs for P, _ in factor_ideal(principal_ideal(x)) if P.p != 2]
    places = []
    for P in dict.fromkeys(primes):
        vals = [element_valuation(x, P) for x in coeffs]
        pairs = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if vals[i] % 2 == vals[j] % 2]
        if len(pairs) == 3:
            places.append((P, True, None))
            continue
        (i, j), s = pairs[0], vals[pairs[0][0]] + vals[pairs[0][1]]
        roots = sqrt_mod_odd_prime_power(-(coeffs[i] * coeffs[j]), P, s + 1)
        places.append((P, roots is not None, roots and roots[0]))
        if roots is None:
            break
    return places


def test_odd_places_match_the_listed_roots_on_random_conics():
    # Conics over Q and fields with split, inert and ramified odd primes and
    # both kinds of omega; each coefficient is a small element times a power
    # of 3, 5 or 7, so the places reach s = v(c_i) + v(c_j) of 4 and more.
    rng = random.Random(19)
    fields = [Q, *map(make_field, (-1, -3, -15, 2, 5, 13, 14))]
    seen = set()
    conics = 0
    while conics < 2000:
        K = rng.choice(fields)
        coeffs = []
        while len(coeffs) < 3:
            x = K.element(rng.randint(-12, 12), 0 if K.is_rational else rng.randint(-12, 12))
            if not x.is_zero:
                coeffs.append(x * K.element(rng.choice((3, 5, 7))) ** rng.randint(0, 2))
        eq = ConicEquation(*coeffs)
        cert = check_solvable(eq)
        got = [(c["prime"], c["ok"], c["witness"]) for c in cert.places if c["type"] == "odd_prime"]
        if cert.reason == "real_embedding":
            assert got == []
            continue
        want = _reference_odd_places(eq)
        assert got == want, (K.d, coeffs)
        conics += 1
        seen.update((P.e, P.f, K.omega_kind) for P, _, w in got if w is not None)
    assert {(2, 1, "half_one_plus_sqrt_d"), (2, 1, "sqrt_d"), (1, 2, "sqrt_d"),
            (1, 2, "half_one_plus_sqrt_d"), (1, 1, "half_one_plus_sqrt_d"),
            (1, 1, "sqrt_d"), (1, 1, None)} <= seen


def test_sqrt_mod_odd_prime_power_guards_unit_part_roots():
    # 2*1009^4 has 2*1009^2 roots mod 1009^5, past the guard: undecided at
    # once, as for the roots of 0, instead of seconds spent listing them.
    with pytest.raises(UndecidedError):
        within(1.0, sqrt_mod_odd_prime_power, Q.element(2 * 1009**4), _prime_over(Q, 1009), 5)
    # Under the guard every root is listed: 7*3^4 mod 3^7 over Q and 2*3^2
    # mod (3)^4 at the inert 3 of Q(i), against a scan of all residues.
    for K, a, e, n in ((Q, 7 * 3**4, 7, 3**7), (make_field(-1), 2 * 3**2, 4, 3**4)):
        P = _prime_over(K, 3)
        ring, Ie = integer_ring(K), prime_power(P, e)
        scan = [
            K.element(u, v) if v else K.element(u)
            for u in range(n)
            for v in range(1 if K.is_rational else n)
            if Ie.reduce_pair(ring.sub(ring.mul((u, v), (u, v)), (a, 0))) == (0, 0)
        ]
        roots = sqrt_mod_odd_prime_power(K.element(a), P, e)
        assert roots == sorted(scan, key=lambda x: ring.pair(x))
        s = element_valuation(K.element(a), P)
        assert len(roots) == 2 * P.residue_size ** (s // 2)


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


def test_sqrt_mod_dyadic_guard_is_undecided():
    # Past the enumeration guard the dyadic roots are not listed, which is
    # no verdict: 1 has the root 1 mod 2^17, so None ("no root") would be
    # wrong.
    P2q = _prime_over(Q, 2)
    with pytest.raises(UndecidedError):
        sqrt_mod_dyadic_prime_power(Q.element(1), P2q, 17)
    with pytest.raises(UndecidedError):
        sqrt_mod_ideal(Q.element(1), Ideal(Q, 2**17))
    assert sqrt_mod_ideal(Q.element(1), Ideal(Q, 2**16)) is not None


CRT_FIELDS = [Q] + [make_field(d) for d in (-1, -2, -3, -5, -6, -7, -15, 2, 5, 10, 13, 17)]


def test_crt_coefficients():
    # On random factorizations over Q and twelve fields, with conjugate split
    # pairs of unequal exponents (2 split too), ramified and inert primes:
    # lam_i - 1 lies in P_i^e_i and lam_i in every other P_j^e_j.
    rng = random.Random(41)
    kinds = set()
    for _ in range(1200):
        K = rng.choice(CRT_FIELDS)
        ring = integer_ring(K)
        factors = []
        for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 3)):
            kind, primes = splitting_type(K, p)
            chosen = [P for P in primes if rng.random() < 0.7] or [primes[0]]
            exponents = [rng.randint(1, 4) for _ in chosen]
            factors += zip(chosen, exponents)
            # (splitting type, over 2, 2 when a split pair has unequal exponents)
            kinds.add((kind, p == 2, len(set(exponents)) if len(chosen) == 2 else 0))
        rng.shuffle(factors)
        lam = [ring.element(x) for x in crt_coefficients(K, factors)]
        for i, (P, e) in enumerate(factors):
            I = prime_power(P, e)
            assert I.contains(lam[i] - K.one())
            assert all(I.contains(lam[j]) for j in range(len(factors)) if j != i)
    assert {("Split", False, 2), ("Split", True, 2), ("Ramified", False, 0),
            ("Ramified", True, 0), ("Inert", False, 0), ("Inert", True, 0)} <= kinds


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


def _brute_closest(x, M, R):
    """The least element of x + M by (size, u, v) among those of size <= R,
    by enumerating every pair (u, v) of size <= R in the coset."""
    field = x.field
    t = 0 if field.omega_kind == "sqrt_d" else 1
    (xu, xv), (a, b, c) = x.num, (M.a, M.b, M.c)
    # |sigma1(z) - sigma2(z)| = |v|*sqrt(|disc|) and |tr(z)| = |2u + t*v|,
    # each at most 2R.
    vmax = math.floor(2 * R / math.sqrt(abs(field.disc)))
    best = None
    for v in range(-vmax, vmax + 1):
        if (v - xv) % c:
            continue
        # u = xu + b*k2 (mod a), k2 = (v - xv)/c, and |2u + t*v| <= 2R.
        lo = math.ceil(-R - t * v / 2)
        u = lo + (xu + b * (v - xv) // c - lo) % a
        while u <= R - t * v / 2:
            z = field.element(u, v)
            key = (size_sq(z), u, v)
            if best is None or key < best:
                best = key
            u += a
    return best


def test_closest_in_coset_window_is_bounded_by_the_reduced_basis(monkeypatch):
    # At P^1..P^4 over a split prime the HNF basis is (p^k, 0), (b, 1); the
    # window from the reduced basis stays a few candidates while N(M) grows
    # a million-fold, and the result is the brute-force least element.
    calls = [0]
    size_key = IntegerRing.size_sq

    def counting(self, x):
        calls[0] += 1
        return size_key(self, x)

    monkeypatch.setattr(IntegerRing, "size_sq", counting)
    rng = random.Random(43)
    for d in (-7, -1, 5, 14):
        field = make_field(d)
        P = next(P for P, _ in factor_ideal(principal_ideal(field.element(1009))) if P.f == 1)
        xs = [field.element(12345, 678)]
        xs += [field.element(rng.randint(-3000, 3000), rng.randint(-3000, 3000)) for _ in range(3)]
        for k in (1, 2, 3, 4):
            M = prime_power(P, k)
            for x in xs:
                calls[0] = 0
                got = closest_in_coset(x, M)
                assert calls[0] <= 12, (d, k, calls[0])
                assert M.contains(got - x)
                R = elem_size(got) * (1 + 1e-9) + 1e-9
                assert _brute_closest(x, M, R)[1:] == got.num


def test_closest_in_coset_ties_match_brute_force():
    # Small moduli, where several coset elements often share the least size
    # and the (u, v) tie-break decides.
    for d in (-1, -3, -6, -7, 5):
        field = make_field(d)
        for g in ((2, 0), (1, 1), (3, 0), (2, 1)):
            M = principal_ideal(field.element(*g))
            for u in range(-4, 5):
                for v in range(-4, 5):
                    x = field.element(u, v)
                    got = closest_in_coset(x, M)
                    R = elem_size(got) * (1 + 1e-9) + 1e-9
                    assert _brute_closest(x, M, R)[1:] == got.num


# Closest elements of cosets over Q, imaginary and real fields, ties
# included, as closest_in_coset returned them while it still ran on
# FieldElements and Surds.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "lattice_step.json")) as _f:
    _lattice_step = json.load(_f)
GOLDEN_COSETS, GOLDEN_POINTS = _lattice_step["cosets"], _lattice_step["points"]
with open(os.path.join(os.path.dirname(__file__), "fixtures", "certificates.json")) as _f:
    GOLDEN_CERTIFICATES = json.load(_f)


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


# Roots of a mod (B), with conjugate split pairs (2 split among them),
# factors over 2 and moduli with no root, as sqrt_mod_ideal returned them
# while its CRT still ran on ideal products and a lattice solver.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "sqrt_mod_ideal.json")) as _f:
    GOLDEN_ROOTS = json.load(_f)


def _golden_root_input(row):
    K = make_field(row["field"])
    return parse_element(K, row["a"]), principal_ideal(parse_element(K, row["B"]))


@pytest.mark.parametrize("row", GOLDEN_ROOTS, ids=lambda r: f"{r['field']}:{r['a']}:{r['B']}")
def test_sqrt_mod_ideal_golden(row):
    w = sqrt_mod_ideal(*_golden_root_input(row))
    assert (None if w is None else format_element(w)) == row["w"]


def test_ideal_layer_makes_no_field_arithmetic(monkeypatch):
    # ideals and residues run on the integer kernel's pairs: FieldElements
    # only come in and go out, and no product, quotient or norm of them is
    # taken inside either module.  Each point is also evaluated with element
    # products outside them, so the counters are seen to count.
    inside, total = [], [0]

    def counted(name, fn):
        def wrapper(*args):
            total[0] += 1
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] in ("conic_nf.ideals", "conic_nf.residues"):
                inside.append(f"{caller.f_globals['__name__']}.{caller.f_code.co_name}: {name}")
            return fn(*args)

        return wrapper

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "norm"):
        monkeypatch.setattr(FieldElement, name, counted(name, getattr(FieldElement, name)))
    for row in GOLDEN_CERTIFICATES:
        K = make_field(row["field"])
        check_solvable(ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";"))))
    for row in GOLDEN_POINTS:
        K = make_field(row["field"])
        eq = ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";")))
        sol = solve_conic(eq)
        assert verify(eq, sol) and eq.evaluate(sol.x, sol.y, sol.z).is_zero
    for row in GOLDEN_ROOTS:
        sqrt_mod_ideal(*_golden_root_input(row))
    assert total[0] > 0
    assert inside == []


def test_check_and_solve_make_no_field_arithmetic(monkeypatch):
    # check_solvable and solve_conic run on kernel values from the
    # coefficients to the certificate or the point: no product, quotient or
    # norm of FieldElements is taken anywhere, the local check of the norm
    # form and the back-map to the primitive point included.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            caller = sys._getframe(1)
            calls.append(f"{caller.f_globals['__name__']}.{caller.f_code.co_name}: {name}")
            return fn(*args)

        return wrapper

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "norm"):
        monkeypatch.setattr(FieldElement, name, counted(name, getattr(FieldElement, name)))
    for row in GOLDEN_CERTIFICATES:
        K = make_field(row["field"])
        check_solvable(ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";"))))
    for row in GOLDEN_POINTS:
        K = make_field(row["field"])
        sol = solve_conic(ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";"))))
        assert [format_element(t) for t in (sol.x, sol.y, sol.z)] == row["point"]
    assert calls == []


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
            P = _prime_over(Q, p)
            coeffs = (eq.a, eq.b, eq.c)
            vals = [element_valuation(x, P) for x in coeffs]
            pairs = [integer_ring(Q).pair(x) for x in coeffs]
            failed.append(not _odd_prime_condition(pairs, vals, P)[0])
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


def _reference_crt(field, factors):
    """crt_coefficients with n_p read off the HNF of each prime power."""
    ring, n = integer_ring(field), {}
    for P, e in factors:
        n[P.p] = max(n.get(P.p, 1), prime_power(P, e).a)
    out = []
    for P, e in factors:
        m = math.prod(q for p, q in n.items() if p != P.p)
        lam = (m * pow(m, -1, n[P.p]), 0)
        for Q, f in factors:
            if Q.p == P.p and Q != P:
                k = pow(omega_root(P, e) - omega_root(Q, f), -1, P.p**e)
                lam = ring.mul(lam, (-k * omega_root(Q, f), k))
        out.append(lam)
    return out


@pytest.mark.parametrize("d", [None, -1, -2, -3, -5, -7, -15, 2, 3, 5, 6, 13, 17, 21])
def test_crt_moduli_in_closed_form(d):
    # Each lam_i is 1 mod P_i^e_i and 0 mod the other prime powers, and the
    # coefficients are those of n_p = prime_power(P, e).a, for every prime
    # over p < 100 and e <= 6, alone, with a prime over another p, and with
    # its conjugate when p splits.
    K = make_field(d)
    rng = random.Random(f"crt:{d}")
    primes = [P for p in range(2, 100) if is_probable_prime(p) for P in splitting_type(K, p)[1]]
    for P in primes:
        for e in range(1, 7):
            others = [Q for Q in primes if Q.p != P.p]
            conj = [Q for Q in primes if Q.p == P.p and Q != P]
            for factors in (
                [(P, e)],
                [(P, e), (rng.choice(others), rng.randint(1, 6))],
                [(P, e)] + [(Q, rng.randint(1, 6)) for Q in conj],
            ):
                lams = crt_coefficients(K, factors)
                assert lams == _reference_crt(K, factors), factors
                for i, lam in enumerate(lams):
                    for j, (Q, f) in enumerate(factors):
                        x = K.element(lam[0] - (i == j), lam[1])
                        assert prime_power(Q, f).contains(x), (factors, i, j)
