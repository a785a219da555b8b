"""Exact lattice reduction for finding short congruence pairs.

Given w with w^2 = A (mod B), the pairs (x, y) with x = w*y (mod B) form a
lattice; a short vector for the weighted length |x|^2 + |A|*|y|^2 yields a
small value of x^2 - A*y^2, which drives the descent.  LLL is integral
(Cohen, Alg. 2.6.7): it clears the Gram matrix's denominators once and keeps
its Gram-Schmidt data as integers.  The pair is built on the integer
kernel's (u, v) pairs and picked by an exact integer comparison of
X + Y*sqrt(|N(A)|), so the rounded weight only steers the reduction, never
the answer.  _gso and pair_measure are the exact rational definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotPositiveDefinite
from .fields import FieldElement, IntSurd, Surd, integer_ring, round_quotient

DELTA = Fraction(99, 100)
# The weight sqrt(|N(A)|) of short_congruence_pair is rounded to a multiple
# of 1/_SCALE; it only steers the reduction, the exact length picks the pair.
_SCALE = 1 << 16


def _gso(gram):
    """Gram-Schmidt data (mu, Bstar) from a Gram matrix, exactly."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            num = Fraction(gram[i][j])
            for k in range(j):
                num -= mu[i][k] * mu[j][k] * bstar[k]
            mu[i][j] = num / bstar[j]
        b = Fraction(gram[i][i])
        for k in range(i):
            b -= mu[i][k] * mu[i][k] * bstar[k]
        if b <= 0:
            raise NotPositiveDefinite(
                "Gram matrix is not positive definite (or rows are dependent)"
            )
        bstar[i] = b
        mu[i][i] = Fraction(1)
    return mu, bstar


def _integral_gso(G):
    """Leading minors D (D[0] = 1, D[i] = det of the leading i x i block)
    and lam[i][j] = D[j+1] * mu[i][j] (j < i) of an integral Gram matrix,
    all integers (Cohen, Alg. 2.6.7, step 3)."""
    n = len(G)
    D = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = G[i][j]
            for l in range(j):
                u = (D[l + 1] * u - lam[i][l] * lam[j][l]) // D[l]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise NotPositiveDefinite(
                    "Gram matrix is not positive definite (or rows are dependent)"
                )
            else:
                D[i + 1] = u
    return D, lam


def lll_reduce(gram, delta: Fraction = DELTA):
    """LLL-reduce a lattice given only its (rational) Gram matrix.

    Returns (reduced_gram, U) with U unimodular over Z and
    reduced_gram = U * gram * U^T, in ints when gram is integral.  Integral
    LLL (Cohen, Alg. 2.6.7): the denominators of the Gram matrix are cleared
    once, and the leading minors D_i and lam_ij = D_{j+1} * mu_ij are kept
    as integers and updated in place on each size reduction and each swap.
    Row k is size-reduced against rows k-1, ..., 0 with q = mu_kj rounded
    half to even, then tested by Lovasz's condition, so U is the same as
    with exact rational Gram-Schmidt recomputed after every step.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return gram, U
    den = math.lcm(*(g.denominator for row in gram for g in row))
    G = [[g.numerator * (den // g.denominator) for g in row] for row in gram]
    D, lam = _integral_gso(G)

    k = 1
    while k < n:
        Uk, lk = U[k], lam[k]
        for j in range(k - 1, -1, -1):
            q = round_quotient(lk[j], D[j + 1])
            if q:
                Uj, lj = U[j], lam[j]
                for t in range(n):
                    Uk[t] -= q * Uj[t]
                lk[j] -= q * D[j + 1]
                for i in range(j):
                    lk[i] -= q * lj[i]
        # Lovasz: B_k >= (delta - mu^2) B_{k-1}, times D_k * D_{k-1}.
        l = lk[k - 1]
        if delta.denominator * (D[k + 1] * D[k - 1] + l * l) >= delta.numerator * D[k] * D[k]:
            k += 1
            continue
        # Swap rows k-1 and k: only D_k changes, lam_{k,k-1} stays.
        U[k], U[k - 1] = U[k - 1], U[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        b = (D[k - 1] * D[k + 1] + l * l) // D[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (D[k + 1] * li[k - 1] - l * t) // D[k]
            li[k - 1] = (b * t + l * li[k]) // D[k + 1]
        D[k] = b
        k = max(k - 1, 1)

    GU = [[sum(G[p][q] * U[j][q] for q in range(n)) for j in range(n)] for p in range(n)]
    reduced = [[sum(U[i][p] * GU[p][j] for p in range(n)) for j in range(n)] for i in range(n)]
    if den > 1:
        reduced = [[Fraction(g, den) for g in row] for row in reduced]
    return reduced, U


def _dot(x: FieldElement, y: FieldElement) -> Fraction:
    """Euclidean inner product of the archimedean embedding vectors."""
    field = x.field
    if field.is_rational:
        return Fraction(x.u) * Fraction(y.u)
    if field.totally_imaginary:
        return Fraction((x * y.conj()).trace(), 2)
    return Fraction((x * y).trace())


def pair_measure(x: FieldElement, y: FieldElement, norm_a: int) -> Surd:
    """Exact weighted size |x|^2 + sqrt(|N(A)|)*|y|^2 as a quadratic surd."""
    rad = norm_a
    s = math.isqrt(rad)
    if s * s == rad:
        return Surd(_dot(x, x) + s * _dot(y, y))
    return Surd(_dot(x, x), _dot(y, y), rad)


def short_congruence_pair(
    A: FieldElement, B: FieldElement, w: FieldElement
) -> tuple[FieldElement, FieldElement]:
    """A short pair (x, y) with x = w*y (mod B), y != 0.

    Assumes w^2 = A (mod B); then x^2 - A*y^2 = 0 (mod B) and the weighted
    length |x|^2 + |A| |y|^2 of the returned pair is small, which bounds
    the quotient (x^2 - A*y^2)/B in the descent.  Runs on the integer
    kernel's pairs: the Gram matrix of the weighted length, with sqrt(|N(A)|)
    rounded to a multiple of 2^-16 and scaled by 2^16 into integers, is
    reduced by LLL, and the shortest candidate by the exact length
    X + Y*sqrt(|N(A)|) (pair_measure, in integers) wins.
    """
    ring = integer_ring(A.field)
    a, b, r = ring.pair(A), ring.pair(B), ring.pair(w)
    if b == (0, 0):
        raise ValueError("modulus must be nonzero")
    norm_a = max(1, abs(ring.norm(a)))
    weight = max(1, round(math.sqrt(norm_a) * _SCALE))

    one, zero = (1, 0), (0, 0)
    if A.field.is_rational:
        gens = [(r, one), (b, zero)]
    else:
        om = (0, 1)
        gens = [(r, one), (ring.mul(r, om), om), (b, zero), (ring.mul(b, om), zero)]
    dot = ring.dot
    gram = [
        [_SCALE * dot(gx, hx) + weight * dot(gy, hy) for hx, hy in gens]
        for gx, gy in gens
    ]
    _, U = lll_reduce(gram)

    def combine(coeffs):
        x = y = zero
        for t, (gx, gy) in zip(coeffs, gens):
            x = ring.add(x, ring.mul((t, 0), gx))
            y = ring.add(y, ring.mul((t, 0), gy))
        return x, y

    s = math.isqrt(norm_a)

    def measure(x, y):
        X, Y = dot(x, x), dot(y, y)
        return X + s * Y if s * s == norm_a else IntSurd(X, Y, norm_a)

    best_key = None
    for x, y in [combine(row) for row in U] + [(r, one)]:
        if y == zero:
            continue
        key = (measure(x, y), *x, *y)
        if best_key is None or key < best_key:
            best_key = key
    x, y = best_key[1:3], best_key[3:]
    assert ring.exact_div(ring.sub(x, ring.mul(r, y)), b) is not None, (
        "pair left the congruence lattice"
    )
    return ring.element(x), ring.element(y)
