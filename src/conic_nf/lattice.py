"""Exact lattice reduction for finding short congruence pairs.

Given w with w^2 = A (mod B), the pairs (x, y) with x = w*y (mod B) form a
lattice; a short vector for the weighted length |x|^2 + |A|*|y|^2 yields a
small value of x^2 - A*y^2, which drives the descent.  LLL runs on exact
rational Gram matrices; the final pick among candidates uses an exact
quadratic-surd comparison, so the floating point weight only steers the
reduction, never the answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotPositiveDefinite
from .fields import FieldElement, Surd, require_integral

DELTA = Fraction(99, 100)


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


def _apply(U, gram0):
    n = len(U)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Fraction(0)
            for p in range(n):
                if U[i][p] == 0:
                    continue
                for q in range(n):
                    if U[j][q] == 0:
                        continue
                    s += U[i][p] * U[j][q] * Fraction(gram0[p][q])
            out[i][j] = s
    return out


def lll_reduce(gram, delta: Fraction = DELTA):
    """LLL-reduce a lattice given only its (rational) Gram matrix.

    Returns (reduced_gram, U) with U unimodular over Z and
    reduced_gram = U * gram * U^T.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return gram, U
    _gso(gram)  # validate definiteness up front

    def current():
        return _apply(U, gram)

    k = 1
    while k < n:
        G = current()
        mu, bstar = _gso(G)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                for t in range(n):
                    U[k][t] -= q * U[j][t]
                G = current()
                mu, bstar = _gso(G)
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            k = max(k - 1, 1)
    return current(), U


def _dot(x: FieldElement, y: FieldElement) -> Fraction:
    """Euclidean inner product of the archimedean embedding vectors."""
    field = x.field
    if field.is_rational:
        return Fraction(x.u) * Fraction(y.u)
    if field.totally_imaginary:
        return Fraction((x * y.conj()).trace(), 2)
    return Fraction((x * y).trace())


def _sqrt_weight(n: int) -> Fraction:
    """A positive rational close to sqrt(n) (n >= 1)."""
    scale = 1 << 16
    return Fraction(max(1, round(math.sqrt(n) * scale)), scale)


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
    the quotient (x^2 - A*y^2)/B in the descent.
    """
    field = A.field
    require_integral(A)
    require_integral(B)
    require_integral(w)
    if B.is_zero:
        raise ValueError("modulus must be nonzero")
    norm_a = abs(int(A.norm()))
    c = _sqrt_weight(max(1, norm_a))

    if field.is_rational:
        gens = [(w, field.one()), (B, field.zero())]
    else:
        om = field.omega()
        gens = [
            (w, field.one()),
            (w * om, om),
            (B, field.zero()),
            (B * om, field.zero()),
        ]
    n = len(gens)
    gram = [
        [
            _dot(gens[i][0], gens[j][0]) + c * _dot(gens[i][1], gens[j][1])
            for j in range(n)
        ]
        for i in range(n)
    ]
    _, U = lll_reduce(gram)

    def combine(coeffs):
        x = field.zero()
        y = field.zero()
        for t, (gx, gy) in zip(coeffs, gens):
            x = x + gx * t
            y = y + gy * t
        return x, y

    candidates = [combine(row) for row in U]
    candidates.append((w, field.one()))
    best = None
    best_key = None
    for x, y in candidates:
        if y.is_zero:
            continue
        m = pair_measure(x, y, max(1, norm_a))
        key = (m, x.u, x.v, y.u, y.v)
        if best_key is None or key < best_key:
            best, best_key = (x, y), key
    assert best is not None
    x, y = best
    mod = B
    diff = x - w * y
    q = diff / mod
    assert q.is_integral, "pair left the congruence lattice"
    return best
