import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

import conic_nf.ideals
from conic_nf.fields import integer_ring, make_field, normalize_associate, parse_element
from conic_nf.ideals import (
    Ideal,
    PrimeIdeal,
    element_valuation,
    factor_ideal,
    factor_int,
    hnf_rows,
    ideal_from_generators,
    is_probable_prime,
    is_principal,
    kronecker,
    norm_one_unit,
    omega_root,
    prime_power,
    principal_ideal,
    splitting_type,
    square_decompose,
    unit_ideal,
    valuation,
)

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)
Q14 = make_field(14)


def test_factor_int():
    assert factor_int(1929) == [(3, 1), (643, 1)]
    assert factor_int(-12) == [(2, 2), (3, 1)]
    assert factor_int(3076) == [(2, 2), (769, 1)]


def test_factor_int_splits_cofactors_past_trial_division():
    # Two primes above the trial-division limit go to Brent's rho.
    assert factor_int(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    # A perfect power is split by its integer root, not by rho.
    p, q = 10**12 + 39, 10000000000037
    assert factor_int(p**2) == [(p, 2)]
    assert factor_int(q**3) == [(q, 3)]
    assert factor_int(-7 * p**2 * 1000003**3) == [(7, 1), (1000003, 3), (p, 2)]
    assert factor_int((p * q) ** 2) == [(p, 2), (q, 2)]


def _factor_by_trial_division(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + ([(n, 1)] if n > 1 else [])


def test_factor_int_trial_divides_by_the_small_primes_then_splits_the_rest():
    # Up to 4093^2, 4093 being the last prime of the small table, trial
    # division alone factors n.  A cofactor it leaves below 4096^2 is prime:
    # 4099 of 4093*4099, and 16777213, the largest prime below 4096^2;
    # 16777259, the smallest above, 4099^2 and 4099*4111 go on to
    # Miller-Rabin, the perfect-power test and rho.
    rng = random.Random(71)
    edges = [4093 * 4099, 16_777_213, 16_777_259, 4099**2, 4099 * 4111]
    for n in [4093**2, 4091 * 4093, 5_000_000, 5_000_011] + edges + [rng.randint(2, 4093**2) for _ in range(300)]:
        assert factor_int(n) == _factor_by_trial_division(n), n
    # Products of primes on both sides of the first prime past the table
    # (4099) and of 10^6, with known factorisations.
    pool = [2, 3, 4091, 4093, 4099, 4111, 65521, 999983, 1000003, 1000033, 10**12 + 39]
    for _ in range(60):
        expected = sorted((p, rng.randint(1, 3)) for p in rng.sample(pool, rng.randint(1, 3)))
        n = math.prod(p**e for p, e in expected)
        assert factor_int(rng.choice((-1, 1)) * n) == expected, n
    # Past the table rho splits the cofactor: up to 8 primes between 4096
    # and 10^6, the squares (pqr)^2 and powers p^7 of such primes, and a
    # prime near 10^6 times one near 10^12.
    odds = [rng.randrange(4097, 10**6, 2) for _ in range(600)]
    mids = [p for p in odds if _factor_by_trial_division(p) == [(p, 1)]]
    shapes = [rng.sample(mids, rng.randint(1, 8)) for _ in range(30)]
    shapes += [2 * rng.sample(mids, 3) for _ in range(10)] + [7 * [rng.choice(mids)] for _ in range(5)]
    shapes.append([1000003, 10**12 + 39])
    for primes in shapes:
        expected = sorted((p, primes.count(p)) for p in set(primes))
        assert factor_int(rng.choice((-1, 1)) * math.prod(primes)) == expected, primes


def test_is_probable_prime_rejects_a_strong_pseudoprime():
    # 3215031751 = 151 * 751 * 28351 passes the Miller-Rabin rounds to bases
    # 2, 3, 5 and 7; a later base proves it composite.
    assert 3215031751 == 151 * 751 * 28351
    assert not is_probable_prime(3215031751)
    assert is_probable_prime(1000003) and is_probable_prime(10**12 + 39)


def test_kronecker():
    assert kronecker(56, 3) == -1  # 3 inert in Q(sqrt(14))
    assert kronecker(-7, 2) == 1
    assert kronecker(-24, 3) == 0


def test_splitting_examples():
    typ, primes = splitting_type(Q7, 2)
    assert typ == "Split" and len(primes) == 2
    for P in primes:
        assert P.e == 1 and P.f == 1
        assert abs(P.second_gen.norm()) % 2 == 0

    typ, primes = splitting_type(Q6, 2)
    assert typ == "Ramified"
    assert primes[0].e == 2
    assert primes[0].ideal().norm == 2

    typ, primes = splitting_type(Q14, 3)
    assert typ == "Inert" and primes[0].f == 2
    assert primes[0].ideal().norm == 9


def test_splitting_rule_matches_the_kronecker_symbol():
    # splitting_type decides split or inert by a root of omega's polynomial
    # mod p; the reference is (disc|p) for every p that does not divide disc.
    primes = [p for p in range(2, 1000) if is_probable_prime(p)]
    squarefree = [n for n in range(2, 201) if all(n % (k * k) for k in range(2, 15))]
    fields = [make_field(d) for n in squarefree for d in (n, -n)]
    assert len(fields) == 242
    for K in fields:
        for p in primes:
            kind = "Ramified" if K.disc % p == 0 else {1: "Split", -1: "Inert"}[kronecker(K.disc, p)]
            assert splitting_type(K, p)[0] == kind, (K, p)


def test_splitting_type_is_computed_once_per_field_and_prime():
    for field, p in [(Q, 5), (Q7, 2), (Q6, 3), (Q14, 3), (make_field(17), 13)]:
        first = splitting_type(field, p)
        assert splitting_type(make_field(field.d), p) is first
        assert isinstance(first[1], tuple)


def test_ideal_hnf_and_membership():
    I = principal_ideal(Q6.element(0, 1))  # (sqrt(-6)), norm 6
    assert I.norm == 6
    assert I.contains(Q6.element(6))
    assert I.contains(Q6.element(0, 1))
    assert not I.contains(Q6.element(2))
    # Row lattice is an O_K module: omega times the HNF generators a and
    # b + c*omega stays inside.
    for g in (Q6.element(I.a), Q6.element(I.b, I.c)):
        assert I.contains(g * Q6.omega())


def _random_rows(rng):
    """1-8 rows with entries up to 10^12: full-rank sets, sets with a zero
    v-column or a zero u-column, and multiples of one row (rank 1)."""
    n, big = rng.randint(1, 8), 10 ** rng.randint(1, 12)
    entry = lambda: rng.randint(-big, big)
    kind = rng.randrange(5)
    if kind == 0:
        return [(entry(), 0) for _ in range(n)]
    if kind == 1:
        return [(0, entry()) for _ in range(n)]
    if kind == 2:
        u, v = entry(), entry()
        return [(k * u, k * v) for k in (rng.randint(-50, 50) for _ in range(n))]
    return [(entry(), entry()) for _ in range(n)]


def test_hnf_rows_spans_the_rows_with_the_index_of_their_minors():
    # The HNF [[a, 0], [b, c]] with a, c > 0 and 0 <= b < a is unique: each
    # row is an integer combination of (a, 0) and (b, c), and a*c is the
    # index of the lattice, the gcd of the rows' 2x2 minors.
    rng = random.Random(20261019)
    raised = 0
    for _ in range(5000):
        rows = _random_rows(rng)
        minors = math.gcd(*(u1 * v2 - u2 * v1 for (u1, v1), (u2, v2) in itertools.combinations(rows, 2)))
        if minors == 0:
            with pytest.raises(ValueError):
                hnf_rows(rows)
            raised += 1
            continue
        a, b, c = hnf_rows(rows)
        assert a > 0 and c > 0 and 0 <= b < a
        assert a * c == minors
        for u, v in rows:
            assert v % c == 0 and (u - v // c * b) % a == 0, (rows, (u, v))
    assert 1000 < raised < 4000


def test_factor_ideal_examples():
    I = principal_ideal(Q6.element(6))
    fac = factor_ideal(I)
    assert sorted((P.p, e) for P, e in fac) == [(2, 2), (3, 2)]

    I2 = principal_ideal(Q7.element(2))
    fac2 = factor_ideal(I2)
    assert sorted((P.p, e) for P, e in fac2) == [(2, 1), (2, 1)]

    assert factor_ideal(unit_ideal(Q6)) == []


def test_factor_ideal_reconstructs():
    rng = random.Random(1)
    for field in (Q6, Q7, Q14):
        for _ in range(60):
            g = field.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if g.is_zero:
                continue
            I = principal_ideal(g)
            fac = factor_ideal(I)
            prod = unit_ideal(field)
            norm = 1
            for P, e in fac:
                prod = prod * P.ideal() ** e
                norm *= P.residue_size**e
            assert prod == I
            assert norm == I.norm


def test_is_principal_examples():
    p2 = ideal_from_generators(Q6, [Q6.element(2), Q6.element(0, 1)])
    assert p2.norm == 2
    assert is_principal(p2) is None
    assert is_principal(p2 * p2) is not None
    g = is_principal(p2 * p2)
    assert abs(g.norm()) == 4 and g.v == 0  # generator is +-2 up to units

    p7 = principal_ideal(Q6.element(1, 1))
    g7 = is_principal(p7)
    assert g7 is not None and abs(g7.norm()) == 7


def test_is_principal_random_generators():
    rng = random.Random(2)
    for field in (Q, Q6, Q7, make_field(-1)):
        for _ in range(40):
            g = field.element(
                rng.randint(-12, 12), 0 if field.is_rational else rng.randint(-12, 12)
            )
            if g.is_zero:
                continue
            got = is_principal(principal_ideal(g))
            assert got is not None
            ratio = got / g
            assert ratio.is_integral and abs(ratio.norm()) == 1


def test_square_decompose_examples():
    t1, t2 = square_decompose(Q.element(8))
    assert (t1, t2) == (Q.element(2), Q.element(2))
    t1, t2 = square_decompose(Q.element(12))
    assert (t1, t2) == (Q.element(3), Q.element(2))
    t = Q6.element(26, 20)
    t1, t2 = square_decompose(t)
    assert t1 == t and t2 == Q6.one()


def test_square_decompose_finds_a_generator_beyond_a_coordinate_bound():
    # (29, -20 + sqrt(139)) is generated by -12285 + 1042*sqrt(139) and by no
    # element with both coordinates below 1042; Q(sqrt(139)) has class number 1.
    K = make_field(139)
    g = parse_element(K, "-12285+1042s")
    P = ideal_from_generators(K, [K.element(29), parse_element(K, "-20+s")])
    assert principal_ideal(g) == P
    t = 3 * g * g
    t1, t2 = square_decompose(t)
    assert (t1, t2) == (K.element(3), g)


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _elements_of_norm(field, n, vs):
    """Every u + v*omega of norm n with v in vs, from
    4*N(u + v*omega) = (2u + t*v)^2 - disc*v^2."""
    t = integer_ring(field).t
    for v in vs:
        w2 = 4 * n + field.disc * v * v
        w = math.isqrt(w2) if w2 >= 0 else -1
        if w * w == w2:
            for x in {w, -w}:
                if (x - t * v) % 2 == 0:
                    yield field.element((x - t * v) // 2, v)


def _principal_by_norm_scan(I):
    """Reference for imaginary fields: the first element of norm N(I) in a
    scan of v that generates I, normalised, or None."""
    vmax = math.isqrt(4 * I.norm // -I.field.d) + 1
    for x in _elements_of_norm(I.field, I.norm, range(-vmax, vmax + 1)):
        if principal_ideal(x) == I:
            return normalize_associate(x)
    return None


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -11, -15, -23, -26, -47, -71])
def test_is_principal_matches_the_norm_scan_on_imaginary_fields(d):
    K = make_field(d)
    for p in _primes_below(60):
        for P in splitting_type(K, p)[1]:
            for k in (1, 2, 3):
                I = prime_power(P, k)
                assert is_principal(I) == _principal_by_norm_scan(I), (P, k)


def _least_unit(field):
    """The least unit above 1: the least v > 0 with N(u + v*omega) = +-1 and
    the least value u + v*omega > 1 there, in the first embedding."""
    omega = (integer_ring(field).t + math.sqrt(field.disc)) / 2
    v = 0
    while True:
        v += 1
        values = [float(x.u) + v * omega for n in (1, -1) for x in _elements_of_norm(field, n, [v])]
        if any(value > 1 for value in values):
            return min(value for value in values if value > 1)


def _generator_by_search(I, eps):
    """A generator of I, or None, searched among the elements with both
    embeddings at most sqrt(N(I)*eps) in absolute value.  Some generator
    g*eps^k lies there: |sigma1/sigma2| moves by a factor eps^2 per step, so
    one k puts it in [1/eps, eps], and then sigma_i^2 <= N(I)*eps."""
    # sigma1 - sigma2 = v*sqrt(disc), so |v| <= 2*sqrt(N(I)*eps)/sqrt(disc).
    vmax = int(2 * math.sqrt(I.norm * eps / I.field.disc)) + 1
    for n in (I.norm, -I.norm):
        for g in _elements_of_norm(I.field, n, range(-vmax, vmax + 1)):
            if principal_ideal(g) == I:
                return g
    return None


# Class number 1: 2, 3, 5, 17, 94, 139; class number 2: 10, 15, 26, 65;
# 3: 79, 229; 4: 82.
@pytest.mark.parametrize("d", [2, 3, 5, 17, 94, 139, 10, 15, 26, 65, 79, 229, 82])
def test_is_principal_decides_real_fields(d):
    K = make_field(d)
    eps = None
    for p in _primes_below(200):
        for P in splitting_type(K, p)[1]:
            for k in (1, 2):
                I = prime_power(P, k)
                g = is_principal(I)
                if g is not None:
                    assert principal_ideal(g) == I, (P, k)
                    continue
                eps = eps or _least_unit(K)
                assert _generator_by_search(I, eps) is None, (P, k)


def test_square_decompose_identity_and_cleanliness():
    rng = random.Random(3)
    for field in (Q, Q6, Q7):
        for _ in range(40):
            t = field.element(
                rng.randint(-40, 40), 0 if field.is_rational else rng.randint(-10, 10)
            )
            if t.is_zero:
                continue
            t1, t2 = square_decompose(t)
            assert t1 * t2 * t2 == t
            assert t1.is_integral and t2.is_integral
            # No principal square divisor remains in (t1).
            fac = factor_ideal(principal_ideal(t1))
            sq = [(P, e // 2) for P, e in fac if e >= 2]
            divisors = [unit_ideal(field)]
            for P, e in sq:
                divisors = [D * P.ideal() ** k for D in divisors for k in range(e + 1)]
            for D in divisors:
                if D.norm > 1:
                    assert is_principal(D) is None


def _square_decompose_by_divisor_list(t):
    """The former square_decompose: over Q the integer square root of the
    square part; otherwise every divisor of the root of the square part, as
    an ideal, sorted by norm and tested for principality in turn."""
    field = t.field
    if field.is_rational:
        n = t.num[0]
        t2 = 1
        for p, e in factor_int(n):
            t2 *= p ** (e // 2)
        return field.element(n // (t2 * t2)), field.element(t2)
    factors = factor_ideal(principal_ideal(t))
    root = [(P, e // 2) for P, e in factors if e >= 2]
    if not root:
        return t, field.one()
    divisors = [unit_ideal(field)]
    for P, e in root:
        divisors = [D * prime_power(P, k) for D in divisors for k in range(e + 1)]
    divisors.sort(key=lambda D: -D.norm)
    for D in divisors:
        if D.norm == 1:
            break
        g = is_principal(D)
        if g is not None:
            ring = integer_ring(field)
            h = ring.pair(g)
            t1 = ring.exact_div(ring.pair(t), ring.mul(h, h))
            return ring.element(t1), g
    return t, field.one()


# Q, Q(sqrt(-7)) and Q(sqrt(6)) have class number 1; Q(sqrt(-5)), Q(sqrt(-6)),
# Q(sqrt(-15)), Q(sqrt(10)) and Q(sqrt(15)) have 2, Q(sqrt(-23)) 3 and
# Q(sqrt(-47)) 5.
SQUARE_DECOMPOSE_FIELDS = [
    ("Q", 1), (-7, 1), (6, 1), (-5, 2), (-6, 2), (-15, 2), (10, 2), (15, 2), (-23, 3), (-47, 5)
]


def _square_decompose_inputs(d):
    """250 seeded elements t = u*g^2 of the field d."""
    K = make_field(d)
    rng = random.Random(f"square-decompose {d}")
    for _ in range(250):
        u = g = K.zero()
        while u.is_zero or g.is_zero:
            # u of small height carries ramified and split primes to powers
            # above 1, whose roots are often not principal; g adds principal
            # square factors for the walk to find.
            u = K.element(rng.randint(-60, 60), 0 if K.is_rational else rng.randint(-60, 60))
            g = K.element(rng.randint(-9, 9), 0 if K.is_rational else rng.randint(-9, 9))
        yield u * g * g


@pytest.mark.parametrize("d, class_number", SQUARE_DECOMPOSE_FIELDS)
def test_square_decompose_matches_the_divisor_list(d, class_number):
    non_principal_roots = 0
    for t in _square_decompose_inputs(d):
        assert square_decompose(t) == _square_decompose_by_divisor_list(t), t
        root = [prime_power(P, e // 2) for P, e in factor_ideal(principal_ideal(t)) if e >= 2]
        if root and is_principal(functools.reduce(Ideal.__mul__, root)) is None:
            non_principal_roots += 1
    # About a third of the roots walk past R where the class group is not
    # trivial.
    assert (non_principal_roots >= 50) == (class_number > 1), non_principal_roots


def test_square_decompose_builds_no_ideal_of_t(monkeypatch):
    # square_decompose reads the square part of (t) off t's factorisation as
    # an element (factor_element), with no HNF of (t): on the 2,500 elements
    # of test_square_decompose_matches_the_divisor_list it calls
    # principal_ideal 0 times.
    calls = []
    principal = conic_nf.ideals.principal_ideal

    def counted(*args):
        calls.append(args)
        return principal(*args)

    monkeypatch.setattr(conic_nf.ideals, "principal_ideal", counted)
    for d, _ in SQUARE_DECOMPOSE_FIELDS:
        for t in _square_decompose_inputs(d):
            square_decompose(t)
    assert calls == []


def test_valuation():
    P3 = splitting_type(Q6, 3)[1][0]
    assert valuation(principal_ideal(Q6.element(9)), P3) == 4
    assert valuation(principal_ideal(Q6.element(0, 1)), P3) == 1
    assert valuation(principal_ideal(Q6.element(5)), P3) == 0


def test_ideal_product_norm_multiplicative():
    rng = random.Random(4)
    for _ in range(50):
        g1 = Q6.element(rng.randint(-9, 9), rng.randint(-9, 9))
        g2 = Q6.element(rng.randint(-9, 9), rng.randint(-9, 9))
        if g1.is_zero or g2.is_zero:
            continue
        I, J = principal_ideal(g1), principal_ideal(g2)
        assert (I * J).norm == I.norm * J.norm


# -- closed forms against ideal products ---------------------------------------

# 2 splits over Q(sqrt(d)) for d = 1 (mod 8), is inert for d = 5 (mod 8) and
# ramifies otherwise; the odd primes below split, stay inert or ramify too.
CLOSED_FORM_FIELDS = [Q] + [
    make_field(d) for d in (-1, -2, -3, -5, -6, -7, -11, -15, 2, 3, 5, 6, 7, 13, 17)
]
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _prime_by_generators(P):
    """P as the ideal generated by p and its second generator."""
    if P.field.is_rational:
        return Ideal(P.field, P.p)
    return ideal_from_generators(P.field, [P.field.element(P.p), P.second_gen])


def _valuation_by_containment(I, PI):
    """v_P(I) as the largest k with I inside P^k, one product at a time."""
    gens = [I.field.element(I.a)]
    if not I.field.is_rational:
        gens.append(I.field.element(I.b, I.c))
    k, power = 0, unit_ideal(I.field)
    while True:
        power = power * PI
        if not all(power.contains(x) for x in gens):
            return k
        k += 1


def _primes_with_generators(field):
    out = []
    for p in SMALL_PRIMES:
        kind, primes = splitting_type(field, p)
        out += [(kind, P, _prime_by_generators(P)) for P in primes]
    return out


def test_valuations_match_the_containment_loop():
    rng = random.Random(61)
    pairs = 0
    kinds = set()
    for field in CLOSED_FORM_FIELDS:
        primes = _primes_with_generators(field)
        for i in range(36):
            # A rational content p^k, the gcd of the coordinates, gives v_p(g) > 0.
            content = rng.choice((1, 1, 2, 3, 4, 5, 8, 9, 25, 27, 7, 11, 13))
            v = 0 if field.is_rational else rng.randint(-30, 30)
            x = field.element(rng.randint(-30, 30) or 1, v) * content
            ideals = [principal_ideal(x)]
            if not field.is_rational and i % 3 == 0:
                y = field.element(rng.randint(-12, 12), rng.randint(-12, 12))
                ideals.append(ideal_from_generators(field, [x, y]))
            for kind, P, PI in primes:
                want = _valuation_by_containment(ideals[0], PI)
                assert element_valuation(x, P) == want, (x, P)
                assert valuation(ideals[0], P) == want, (x, P)
                for I in ideals[1:]:
                    assert valuation(I, P) == _valuation_by_containment(I, PI), (I, P)
                pairs += len(ideals)
                kinds.add((P.p == 2, kind))
    assert pairs >= 5000
    assert kinds == {(two, k) for two in (True, False) for k in ("Split", "Inert", "Ramified")}


def test_prime_powers_match_ideal_products():
    for field in CLOSED_FORM_FIELDS:
        for _, P, PI in _primes_with_generators(field):
            assert P.ideal() == PI
            for k in range(7):
                assert prime_power(P, k) == PI**k, (P, k)
    with pytest.raises(ValueError):
        prime_power(splitting_type(Q6, 5)[1][0], -1)


def test_element_valuation_rejects_zero_and_fractions():
    P = splitting_type(Q6, 5)[1][0]
    with pytest.raises(ValueError):
        element_valuation(Q6.zero(), P)
    with pytest.raises(ValueError):
        element_valuation(Q6.element(Fraction(1, 2)), P)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 14, 19, 22, 31, 46])
def test_norm_one_unit_generates_the_units_of_norm_one(d):
    # The least y > 0 with x^2 - d*y^2 = 1 (omega = sqrt(d)) or 4
    # (omega = (1 + sqrt(d))/2) gives the unit of norm 1 that generates the
    # others up to sign; the cycle of reduced forms of O_K must find it, up
    # to sign and inverse.
    K = make_field(d)
    ring = integer_ring(K)
    half = K.omega_kind != "sqrt_d"
    y = 1
    while math.isqrt(d * y * y + (4 if half else 1)) ** 2 != d * y * y + (4 if half else 1):
        y += 1
    x = math.isqrt(d * y * y + (4 if half else 1))
    # x + y*sqrt(d) (over 2) as u + v*omega.
    unit = ((x - y) // 2, y) if half else (x, y)
    eta = norm_one_unit(K)
    assert ring.norm(eta) == 1
    assert eta in {unit, ring.conj(unit), (-unit[0], -unit[1]), tuple(-c for c in ring.conj(unit))}


def test_factor_int_divides_out_the_known_primes_first(monkeypatch):
    # A product of primes past Brent's rho is factored by division by the
    # known primes given, with no rho; a known prime that does not divide n
    # is not listed.
    p, q = 947362135750817778025520064077, 1122090946327712751251366359727
    monkeypatch.setattr(conic_nf.ideals, "_brent_rho", None)
    assert factor_int(-4 * p * q * q, {2, 3, p, q}) == [(2, 2), (p, 1), (q, 2)]
    assert factor_int(3 * p * 4099 * 4099, {p}) == [(3, 1), (4099, 2), (p, 1)]


# Fields with split, ramified and inert primes, d = 1 (mod 4) among them.
OMEGA_FIELDS = (-1, -2, -3, -5, -7, -15, -23, 2, 3, 5, 6, 13, 17, 21)


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("d", OMEGA_FIELDS)
def test_omega_root_is_the_lift_of_the_second_generator(d):
    # omega_root(P, k) equals r0 = -s0/s1 mod p read off P's second
    # generator s0 + s1*omega, lifted one power of p at a time by Newton's
    # step on omega's minimal polynomial x^2 - t*x - k.
    K = make_field(d)
    ring = integer_ring(K)

    def g(x):
        return x * x - ring.t * x - ring.k

    split = ramified = 0
    for p in _primes_below(500):
        kind, primes = splitting_type(K, p)
        for P in primes:
            if P.f == 2:
                with pytest.raises(ValueError):
                    omega_root(P)
                continue
            s0, s1 = P.second_gen.num
            r = -s0 * pow(s1, -1, p) % p
            assert omega_root(P) == omega_root(P, 0) == r
            # r is no part of P's arguments, equality, hash or repr.
            Q = PrimeIdeal(K, P.p, P.e, P.f, P.second_gen)
            assert Q == P and hash(Q) == hash(P) and repr(Q) == repr(P) and "r=" not in repr(Q)
            if kind == "Ramified":
                ramified += 1
                continue
            split += 1
            for k in range(2, 5):
                pk = p**k
                r = (r - g(r) * pow(2 * r - ring.t, -1, pk)) % pk
                assert g(r) % pk == 0
                assert omega_root(P, k) == r, (P, k)
    assert split > 20 and ramified >= 1


def test_omega_root_raises_off_degree_one_quadratic_primes():
    for p in _primes_below(60):
        with pytest.raises(ValueError):
            omega_root(splitting_type(Q, p)[1][0])
    inert = [P for p in _primes_below(60) for P in splitting_type(Q7, p)[1] if P.f == 2]
    assert inert
    for P in inert:
        with pytest.raises(ValueError):
            omega_root(P, 2)
