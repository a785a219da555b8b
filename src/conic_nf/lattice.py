"""Exact lattice reduction for finding short pairs in a congruence lattice.

Given (B) = M^2*S with S squarefree and w with w^2 = A (mod S), the pairs
(w*y + m, y) with y in M and m in M*S form a lattice on which B divides
x^2 - A*y^2; a short vector for the weighted length |x|^2 + |A|*|y|^2 yields
a small quotient, which drives the descent; holzer reduces the lattice of
lines through a point the same way (reduce_pairs).  LLL is integral (Cohen,
Alg. 2.6.7): it clears the Gram matrix's denominators once and keeps its
Gram-Schmidt data as integers.  The pair is built on the integer kernel's
(u, v) pairs and picked by an exact integer comparison of
X + Y*sqrt(|N(A)|), so the rounded weight only steers the reduction, never
the answer.  _gso and pair_measure are the exact rational definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import NotPositiveDefinite
from .fields import FieldElement, IntSurd, Surd, integer_ring, round_quotient
from .ideals import Ideal, hnf_rows, unit_ideal

DELTA = Fraction(99, 100)
# The weights of reduce_pairs are rounded to multiples of 1/_SCALE; they only
# steer the reduction, and the caller's exact measure picks the pair.
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


def combine(coeffs, vecs):
    """The sum of c*v over coeffs and vecs, each v a pair (x, y) of kernel
    pairs."""
    xu = xv = yu = yv = 0
    for c, ((a, b), (e, f)) in zip(coeffs, vecs):
        xu, xv, yu, yv = xu + c * a, xv + c * b, yu + c * e, yv + c * f
    return (xu, xv), (yu, yv)


def module_basis(ring, basis):
    """The Z-basis e, omega*e for each e in the O_K-basis basis of pairs
    (x, y) of kernel pairs (e alone over Q)."""
    om = [(1, 0)] if ring.field.is_rational else [(1, 0), (0, 1)]
    return [(ring.mul(o, x), ring.mul(o, y)) for x, y in basis for o in om]


def reduce_pairs(ring, gens, norms):
    """LLL-reduced rows of the lattice with Z-basis gens, pairs (x, y) of
    kernel pairs, for the weighted length sqrt(n_x)*|x|^2 + sqrt(n_y)*|y|^2
    with (n_x, n_y) = norms.  Each weight is rounded to a multiple of
    1/_SCALE and scaled by _SCALE into an integer, so the Gram matrix is
    integral; the weights only steer the reduction, and each caller picks
    among the rows by its own exact measure."""
    wx, wy = (max(1, round(math.sqrt(n) * _SCALE)) for n in norms)
    dot = ring.dot
    gram = [[wx * dot(gx, hx) + wy * dot(gy, hy) for hx, hy in gens] for gx, gy in gens]
    return [combine(row, gens) for row in lll_reduce(gram)[1]]


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


def _hnf_basis(I):
    """The Z-basis a, b + c*omega of the ideal I in HNF (a alone over Q)."""
    return [(I.a, 0)] if I.field.is_rational else [(I.a, 0), (I.b, I.c)]


def short_congruence_pair(
    A: FieldElement, B: FieldElement, w: FieldElement, M: Optional[Ideal] = None
) -> tuple[FieldElement, FieldElement]:
    """A short pair (x, y), y != 0, of L = {(w*y + m, y) : y in M, m in M*S}
    for (B) = M^2*S, M = (1) unless given, and w^2 = A (mod S).

    L has index N(B), and B divides x^2 - A*y^2 on it, as
    x^2 - A*y^2 = (w^2 - A)*y^2 + 2*w*y*m + m^2 (Cremona and Rusin, Math.
    Comp. 72, 2003; Simon, Math. Comp. 74, 2005).  Its Z-basis is (w*y, y)
    for y in M's HNF basis and (B*z/N(M), 0) for z in the HNF basis of
    conj(M), as M*S = B*conj(M)/N(M).  The Gram matrix of the weighted
    length |x|^2 + sqrt(|N(A)|)*|y|^2, the weight rounded to a multiple of
    2^-16 and scaled by 2^16 into integers, is reduced by LLL, and the
    shortest candidate by the exact length X + Y*sqrt(|N(A)|)
    (pair_measure, in integers) wins; a short pair bounds the quotient
    (x^2 - A*y^2)/B in the descent.
    """
    field = A.field
    ring = integer_ring(field)
    a, b, r = ring.pair(A), ring.pair(B), ring.pair(w)
    if b == (0, 0):
        raise ValueError("modulus must be nonzero")
    M = M or unit_ideal(field)
    norm_a = max(1, abs(ring.norm(a)))

    zero, dot, s = (0, 0), ring.dot, math.isqrt(norm_a)

    def measure(x, y):
        X, Y = dot(x, x), dot(y, y)
        return X + s * Y if s * s == norm_a else IntSurd(X, Y, norm_a)

    ys = _hnf_basis(M)
    zs = ys if field.is_rational else _hnf_basis(Ideal(field, *hnf_rows(map(ring.conj, ys))))
    gens = [(ring.mul(r, y), y) for y in ys] + [
        (ring.exact_div(ring.mul(b, z), (M.norm, 0)), zero) for z in zs
    ]
    best_key = None
    for x, y in reduce_pairs(ring, gens, (1, norm_a)) + gens[:1]:
        if y == zero:
            continue
        key = (measure(x, y), *x, *y)
        if best_key is None or key < best_key:
            best_key = key
    x, y = best_key[1:3], best_key[3:]
    q = ring.exact_div(ring.sub(ring.mul(x, x), ring.mul(a, ring.mul(y, y))), b)
    assert q is not None, "pair left the congruence lattice"
    return ring.element(x), ring.element(y)
