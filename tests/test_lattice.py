import math
import random
from fractions import Fraction

import pytest

from conic_nf.errors import NotPositiveDefinite
from conic_nf.fields import Surd, make_field
from conic_nf.ideals import factor_ideal, prime_power, principal_ideal, unit_ideal
from conic_nf.residues import sqrt_mod_ideal
from conic_nf.lattice import lll_reduce, pair_measure, short_congruence_pair

Q = make_field()
Q6 = make_field(-6)


def _det2(U):
    # Determinant of an integer matrix by fraction-free elimination.
    import copy

    M = [[Fraction(x) for x in row] for row in copy.deepcopy(U)]
    n = len(M)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            for cc in range(col, n):
                M[r][cc] -= f * M[col][cc]
    return det


def test_lll_identity_on_reduced_basis():
    gram = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    out, U = lll_reduce(gram)
    assert out == gram
    assert U == [[1, 0], [0, 1]]


def test_lll_reduces_skew_basis():
    # Basis (1,0), (4,1): Gram [[1,4],[4,17]]; reduced to unit square.
    gram = [[Fraction(1), Fraction(4)], [Fraction(4), Fraction(17)]]
    out, U = lll_reduce(gram)
    assert out[0][0] == 1 and out[1][1] == 1 and out[0][1] == 0
    assert abs(_det2(U)) == 1


def test_lll_rejects_degenerate():
    with pytest.raises(NotPositiveDefinite):
        lll_reduce([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_lll_random_properties():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        basis = [
            [Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)
        ]
        if _det2(basis) == 0:
            continue
        gram = [
            [sum(basis[i][k] * basis[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        out, U = lll_reduce(gram)
        assert abs(_det2(U)) == 1
        # Lovasz condition via Gram-Schmidt on the reduced Gram.
        from conic_nf.lattice import _gso

        mu, bstar = _gso(out)
        for k in range(1, n):
            assert bstar[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * bstar[k - 1]
            for j in range(k):
                assert abs(mu[k][j]) <= Fraction(1, 2)


def test_short_pair_rational_examples():
    # x = 5y mod 13 with weight |A| = 1: shortest pair is (+-3, -+2).
    x, y = short_congruence_pair(Q.element(-1), Q.element(13), Q.element(5))
    assert {abs(x.u), abs(y.u)} == {3, 2}
    assert (x - Q.element(5) * y).u % 13 == 0

    # w = 0, B = 2: the pair (0, 1) is forced.
    x, y = short_congruence_pair(Q.element(-2), Q.element(2), Q.element(0))
    assert x.is_zero and abs(y.u) == 1


def test_short_pair_descent_quality():
    # A = 823, B = -1929, w = 643+723*sqrt(-6): the short pair must do at
    # least as well as (-163+83*sqrt(-6), -7-sqrt(-6)).
    A = Q6.element(823)
    B = Q6.element(-1929)
    w = Q6.element(643, 723)
    x, y = short_congruence_pair(A, B, w)
    ref = pair_measure(Q6.element(-163, 83), Q6.element(-7, -1), 823)
    assert pair_measure(x, y, 823) <= ref
    t = (x * x - A * y * y) / B
    assert t.is_integral
    assert abs(t.norm()) < abs(B.norm())


def test_short_pair_congruence_property():
    rng = random.Random(19)
    for field in (Q, Q6, make_field(-7)):
        for _ in range(25):
            B = field.element(
                rng.randint(2, 60), 0 if field.is_rational else rng.randint(-5, 5)
            )
            if abs(B.norm()) < 2:
                continue
            w = field.element(
                rng.randint(-20, 20), 0 if field.is_rational else rng.randint(-20, 20)
            )
            A = w * w  # guarantees w^2 = A mod B trivially
            x, y = short_congruence_pair(A, B, w)
            assert not y.is_zero
            diff = x - w * y
            assert (diff / B).is_integral
            # No worse than the trivial pair (w, 1).
            na = max(1, abs(int(A.norm())))
            assert pair_measure(x, y, na) <= pair_measure(w, field.one(), na)


# -- the integral LLL against the exact rational definition --------------------


def _reference_lll(gram, delta=Fraction(99, 100)):
    """LLL by exact rational Gram-Schmidt, recomputed after every step: the
    Fraction algorithm lll_reduce replaced, kept as its definition."""
    from conic_nf.lattice import _gso

    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    den = math.lcm(*(Fraction(g).denominator for row in gram for g in row))
    G = [[int(Fraction(g) * den) for g in row] for row in gram]

    def current():
        # U * gram * U^T, exactly.
        GU = [[sum(G[p][q] * U[j][q] for q in range(n)) for j in range(n)] for p in range(n)]
        return [
            [Fraction(sum(U[i][p] * GU[p][j] for p in range(n)), den) for j in range(n)]
            for i in range(n)
        ]

    _gso(gram)
    k = 1
    while k < n:
        mu, bstar = _gso(current())
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                for t in range(n):
                    U[k][t] -= q * U[j][t]
                mu, bstar = _gso(current())
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            k = max(k - 1, 1)
    return current(), U


def _random_gram(rng):
    """Gram matrices as short_congruence_pair builds them (an integer part
    plus a weight with denominator 2^16 times a second one), plain integer
    ones, dependent rows and indefinite symmetric matrices."""
    n = rng.choice([2, 3, 4])
    kind = rng.random()
    if kind < 0.08:
        entries = {(i, j): rng.randint(-4, 4) for i in range(n) for j in range(i, n)}
        return [[Fraction(entries[min(i, j), max(i, j)]) for j in range(n)] for i in range(n)]
    rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
    if kind < 0.16:
        rows[-1] = [3 * t for t in rows[0]]
    weight = Fraction(rng.randint(1, 1 << 20), 1 << 16) if kind > 0.5 else 0
    rows2 = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [
        [
            Fraction(sum(a * b for a, b in zip(rows[i], rows[j])))
            + weight * sum(a * b for a, b in zip(rows2[i], rows2[j]))
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_lll_matches_the_rational_reference():
    rng = random.Random(41)
    degenerate = 0
    # Boundary cases first: Lovasz's condition with equality (no swap), and
    # mu = 1/2 and 3/2, where rounding ties to the even integer.
    edges = [[[100, 0], [0, 99]], [[2, 1], [1, 5]], [[2, 3], [3, 10]], [[4, -2], [-2, 7]]]
    grams = [[[Fraction(g) for g in row] for row in gram] for gram in edges]
    grams += [_random_gram(rng) for _ in range(2000)]
    for gram in grams:
        try:
            expected = _reference_lll(gram)
        except NotPositiveDefinite:
            degenerate += 1
            with pytest.raises(NotPositiveDefinite):
                lll_reduce(gram)
            continue
        assert lll_reduce(gram) == expected
    assert 100 < degenerate < 500


def _rank2_grams(rng):
    """Rank-2 Gram matrices shaped like the program's, moduli of 64 to 1,024
    bits: the lattice of lines of a Holzer step over Q, basis (x0/g, y0/g),
    z0*(t, -s) for s*x0 + t*y0 = g, under |a|*x^2 + |b|*y^2; and the
    congruence lattice (w*m, m), (B, 0) under x^2 + s*y^2."""
    from conic_nf.fields import INTS

    grams = []
    for bits in (64, 128, 256, 512, 1024):
        for _ in range(6):
            x0, y0, z0 = (rng.getrandbits(bits) - rng.getrandbits(bits) for _ in range(3))
            x0, z0 = x0 or 1, z0 or 1
            g, s, t = INTS.xgcd(x0, y0)
            gens = [(x0 // g, y0 // g), (z0 * t, -z0 * s)]
            wx, wy = rng.randint(1, 2 ** (bits // 8)), rng.randint(1, 2 ** (bits // 8))
            grams.append([[wx * x * h + wy * y * k for h, k in gens] for x, y in gens])
            B = rng.getrandbits(bits) | 1
            m, w, sq = rng.randint(1, 10**3), rng.randrange(B), rng.randint(1, 2 ** (bits // 2))
            gens = [(w * m, m), (B * rng.choice((1, -1)), 0)]
            grams.append([[x * h + sq * y * k for h, k in gens] for x, y in gens])
    return grams


def test_rank2_lll_matches_the_rational_reference():
    from conic_nf.lattice import _lll, _lll_rank2

    rng = random.Random(31)
    # mu = +-1/2, +-3/2 and 5/2 (ties round to even); Lovasz's condition with
    # equality (no swap: 99 = 99/100*100, and 296 = (99/100 - 1/4)*400) and
    # just below it.
    ties = [[[2, 1], [1, 5]], [[2, -1], [-1, 5]], [[2, 3], [3, 10]], [[2, -3], [-3, 10]]]
    ties += [[[2, 5], [5, 20]], [[100, 0], [0, 99]], [[400, 200], [200, 396]]]
    ties += [[[400, -200], [-200, 396]], [[400, 200], [200, 395]], [[99, 0], [0, 100]]]
    degenerate = [[[0, 0], [0, 1]], [[1, 1], [1, 1]], [[-1, 0], [0, 1]], [[1, 2], [2, 1]]]
    degenerate += [[[1, 0], [0, 0]], [[4, 6], [6, 9]], [[1, 0], [0, -1]], [[-3, 1], [1, -2]]]
    for gram in ties + _rank2_grams(rng):
        out = lll_reduce(gram)
        assert out == _reference_lll(gram) == _lll(gram)
        assert all(type(g) is int for row in out[0] for g in row)
    for gram in degenerate:
        with pytest.raises(NotPositiveDefinite):
            _reference_lll(gram)
        with pytest.raises(NotPositiveDefinite):
            lll_reduce(gram)
        with pytest.raises(NotPositiveDefinite):
            lll_reduce([[Fraction(g, 3) for g in row] for row in gram])
    # Fraction entries: a weight over 2^16, as reduce_pairs' weights were; the
    # reduced Gram matrix comes back in Fractions.
    for _ in range(200):
        x1, y1, x2, y2 = (rng.randint(-10**6, 10**6) for _ in range(4))
        if x1 * y2 == x2 * y1:
            continue
        wt = Fraction(rng.randint(1, 1 << 24), 1 << 16)
        gens = [(x1, y1), (x2, y2)]
        gram = [[x * h + wt * y * k for h, k in gens] for x, y in gens]
        out = lll_reduce(gram)
        assert out == _reference_lll(gram)
        den = math.lcm(*(g.denominator for row in gram for g in row))
        assert den == 1 or all(type(g) is Fraction for row in out[0] for g in row)
    # The scalar loop against the list-based one on larger random matrices.
    for _ in range(2000):
        bits = rng.choice((8, 64, 256))
        x1, y1, x2, y2 = (rng.getrandbits(bits) - rng.getrandbits(bits) for _ in range(4))
        gens, wy = [(x1, y1), (x2, y2)], rng.randint(1, 2**bits)
        G = [[x * h + wy * y * k for h, k in gens] for x, y in gens]
        try:
            expected = _lll(G)
        except NotPositiveDefinite:
            with pytest.raises(NotPositiveDefinite):
                _lll_rank2(G)
            continue
        assert _lll_rank2(G) == expected


def test_short_pair_lattice_of_any_modulus():
    # (B) = M^2*S with S squarefree: the pair lies in
    # L = {(w*y + m, y) : y in M, m in M*S} for a root w of A mod S, so B
    # divides x^2 - A*y^2 although A need not be a square mod (B).
    rng = random.Random(23)
    seen = 0
    for d in (None, -5, -6, -1, 5, 10):
        field = make_field(d)
        for _ in range(200):
            def draw(u, v):
                return field.element(rng.randint(-u, u), 0 if field.is_rational else rng.randint(-v, v))

            A, r = draw(12, 3), draw(9, 3)
            B = r * r * draw(9, 2)
            if A.is_zero or B.is_zero or abs(B.norm()) < 2:
                continue
            factors = factor_ideal(principal_ideal(B))
            if all(e == 1 for _, e in factors):
                continue
            M = S = unit_ideal(field)
            for P, e in factors:
                M, S = M * prime_power(P, e // 2), S * prime_power(P, e % 2)
            w = sqrt_mod_ideal(A, S)
            if w is None:
                continue
            x, y = short_congruence_pair(A, B, w, M)
            assert not y.is_zero and M.contains(y)
            assert (M * S).contains(x - w * y)
            assert ((x * x - A * y * y) / B).is_integral
            seen += 1
    assert seen > 200


def test_short_pair_meets_the_norm_bound_over_real_fields():
    # Over a real field the weighted lattice bounds the quotient with no
    # dependence on units: |N(t)| <= C_K*sqrt(|N(A)|) for the first LLL row,
    # C_K = alpha^3*D/4 and alpha = 1/(99/100 - 1/4) = 50/37, and that row
    # has y != 0 once |N(B)| > C_K*sqrt(|N(A)|)*N(M)^2.  In integers:
    # 16*N(t)^2*37^6 <= 50^6*D^2*|N(A)|.  The coefficients include lopsided
    # ones, whose conjugates differ by powers of the fundamental unit, such
    # as A = -4109-738*sqrt(31) with conjugates near -8218 and 0.01.
    rng = random.Random(29)
    seen = seen_lopsided = 0
    for d, units, lopsided in (
        (2, (1, 1), (7, 5)),
        (5, (0, 1), (-20, 9)),
        (14, (15, 4), (-449, 120)),
        (22, (197, 42), (-1909, 407)),
        (31, (1520, 273), (-4109, -738)),
    ):
        field = make_field(d)
        unit, D = field.element(*units), field.disc
        for _ in range(80):
            def draw(u, v):
                return field.element(rng.randint(-u, u), rng.randint(-v, v))

            lop = rng.random() < 0.3
            A = field.element(*lopsided) if lop else draw(30, 9)
            B = draw(300, 60) * unit ** rng.randint(-2, 2)
            if A.is_zero or B.is_zero:
                continue
            factors = factor_ideal(principal_ideal(B))
            M = S = unit_ideal(field)
            for P, e in factors:
                M, S = M * prime_power(P, e // 2), S * prime_power(P, e % 2)
            w = sqrt_mod_ideal(A, S)
            na, nb = abs(A.norm()), abs(B.norm())
            if w is None or 16 * nb * nb * 37**6 <= 50**6 * D * D * na * M.norm**4:
                continue
            x, y = short_congruence_pair(A, B, w, M)
            t = (x * x - A * y * y) / B
            assert t.is_integral and not y.is_zero
            assert 16 * t.norm() ** 2 * 37**6 <= 50**6 * D * D * na
            seen += 1
            seen_lopsided += lop
    assert seen > 100 and seen_lopsided > 30


# -- the reduced Gram matrix read off the integral Gram-Schmidt data ------------


def _explicit_product(U, gram):
    """U * gram * U^T by the definition."""
    n = len(gram)
    return [
        [sum(U[i][p] * gram[p][q] * U[j][q] for p in range(n) for q in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _weighted_gram(rows, weights):
    return [[sum(w * x * y for w, x, y in zip(weights, r, q)) for q in rows] for r in rows]


def test_lll_reduced_gram_is_the_explicit_product():
    # lll_reduce reads the reduced matrix off D and lam; it must be U*G*U^T
    # at every rank, for int and Fraction entries alike.
    rng = random.Random(33)
    # Lovasz's condition with equality at each k (9900 = 99/100*10000 and
    # 9801 = 99/100*9900), and mu = 1/2 and -3/2 ties beside larger blocks.
    grams = [[[10000, 0, 0], [0, 9900, 0], [0, 0, 9801]]]
    grams.append([[2, 1, 0, 0], [1, 5, 0, 0], [0, 0, 2, -3], [0, 0, -3, 10]])
    grams.append([[400, 200, 0], [200, 396, 0], [0, 0, 7]])
    checked = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.25:  # near-dependent: twice row 0 plus a unit vector
            rows[-1] = [2 * t for t in rows[0]]
            rows[-1][rng.randrange(n)] += 1
        weights = [rng.choice((1, rng.randint(1, 1 << 20))) for _ in range(n)]
        if rng.random() < 0.3:
            weights = [Fraction(w, 1 << 16) for w in weights]
        grams.append(_weighted_gram(rows, weights))
    for gram in grams:
        try:
            reduced, U = lll_reduce(gram)
        except NotPositiveDefinite:
            continue
        assert reduced == _explicit_product(U, gram)
        assert abs(_det2(U)) == 1
        integral = all(type(g) is int for row in gram for g in row)
        assert all((type(g) is int) == integral for row in reduced for g in row)
        checked += 1
    assert checked > 400


def test_lll_still_rejects_dependent_and_indefinite_matrices_at_higher_rank():
    rng = random.Random(34)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            with pytest.raises(NotPositiveDefinite):
                lll_reduce(_weighted_gram(rows, [rng.randint(1, 99) for _ in range(n)]))
            indefinite = [[rng.randint(1, 9) if i == j else 0 for j in range(n)] for i in range(n)]
            indefinite[-1][-1] = -indefinite[-1][-1]
            with pytest.raises(NotPositiveDefinite):
                lll_reduce(indefinite)
            with pytest.raises(NotPositiveDefinite):
                lll_reduce([[Fraction(g, 3) for g in row] for row in indefinite])


def test_reduce_pairs_builds_each_gram_entry_once(monkeypatch):
    # The rank-4 lattice of lines of a Holzer step over Q(sqrt(-7)), through
    # (17718 - 30742w, 376695 - 46319w, -52243 - 53732w) on
    # (-3 + 4w)x^2 + (4 - 2w)y^2 + (28 + 20w)z^2 = 0: 10 Gram entries of
    # two dot products each, the same rows as the full matrix gives.
    from conic_nf import lattice
    from conic_nf.fields import IntegerRing, integer_ring

    ring = integer_ring(make_field(-7))
    a, b = (-3, 4), (4, -2)
    x0, y0, z0 = (17718, -30742), (376695, -46319), (-52243, -53732)
    g, s, t = ring.xgcd(x0, y0)
    e1 = (ring.exact_div(x0, g), ring.exact_div(y0, g))
    e2 = (ring.mul(z0, t), ring.sub(ring.zero, ring.mul(z0, s)))
    gens = lattice.module_basis(ring, [e1, e2])
    assert len(gens) == 4
    wx, wy = ((math.isqrt(4 * ring.norm(e) * lattice._SCALE**2) + 1) // 2 for e in (a, b))
    full = [[wx * ring.dot(p, u) + wy * ring.dot(q, v) for u, v in gens] for p, q in gens]
    expected = [lattice.combine(row, gens) for row in lll_reduce(full)[1]]

    calls = [0]
    dot = IntegerRing.dot

    def counted(self, x, y):
        calls[0] += 1
        return dot(self, x, y)

    monkeypatch.setattr(IntegerRing, "dot", counted)
    assert lattice.reduce_pairs(ring, gens, (a, b, ring.one)) == expected
    assert calls[0] == 20
