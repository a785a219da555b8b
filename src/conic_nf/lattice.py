"""Exact lattice reduction for finding short pairs in a congruence lattice.

Given (B) = M^2*S with S squarefree and w with w^2 = A (mod S), the pairs
(w*y + m, y) with y in M and m in M*S form a lattice on which B divides
x^2 - A*y^2; a short vector for a length weighted per embedding yields a
small quotient, which drives the descent over the quadratic fields; holzer
reduces lines through a point alike (over Q by reduce_int_pairs; over an
imaginary field after a reduction over O_K of its own, with pair_weights'
weights, on the Gram matrix hermitian_gram reads off that reduction), and
the descent solves Q by one rank-3 reduction.  LLL is integral
(Cohen, Alg. 2.6.7): it clears the Gram matrix's denominators once and
keeps its Gram-Schmidt data as integers, in four scalars at rank 2 (the
kernel's step, fields._lll_rank2), and reads the reduced Gram matrix off
that data, with no matrix product.  The integer weights only steer it, and
the pair is picked on the kernel's (u, v) pairs by an exact integer
comparison.
short_congruence_pair is a kernel form with the ring first
(fields.kernel_edge), which converts FieldElements at its edge; it takes
the Z-bases of its ideals from Ideal.basis.  _gso and
pair_measure are the exact rational definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotPositiveDefinite
from .fields import DELTA, FieldElement, IntSurd, Surd, _lll_rank2, integer_ring, kernel_edge, round_quotient
from .ideals import Ideal, hnf_rows, unit_ideal

# reduce_pairs' weights are exact to about 1/_SCALE; they only steer LLL.
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


def lll_reduce(gram):
    """LLL-reduce a lattice given only its (rational, symmetric) Gram matrix.

    Returns (reduced_gram, U) with U unimodular over Z and
    reduced_gram = U * gram * U^T, in ints when gram is integral.  Integral
    LLL (Cohen, Alg. 2.6.7): the denominators of the Gram matrix are cleared
    once, and the leading minors D_i and lam_ij = D_{j+1} * mu_ij are kept
    as integers and updated in place on each size reduction and each swap.
    Row k is size-reduced against rows k-1, ..., 0 with q = mu_kj rounded
    half to even, then tested by Lovasz's condition, so U is the same as
    with exact rational Gram-Schmidt recomputed after every step.  Rank 2
    takes the same steps in scalars (fields._lll_rank2, which the kernel's
    rank-2 questions share).
    """
    n = len(gram)
    den = math.lcm(*(g.denominator for row in gram for g in row))
    G = [[g.numerator * (den // g.denominator) for g in row] for row in gram]
    # Kept for speed: through _lll the rational minimise cell ran 35% slower (p50 x1.38).
    reduced, U = (_lll_rank2 if n == 2 else _lll)(G)
    if den > 1:
        reduced = [[Fraction(g, den) for g in row] for row in reduced]
    return reduced, U


def _lll(G):
    """lll_reduce on the integral Gram matrix G: (U * G * U^T, U)."""
    n = len(G)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    D, lam = _integral_gso(G)
    dn, dd = DELTA.numerator, DELTA.denominator

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
        # Lovasz: B_k >= (DELTA - mu^2) B_{k-1}, times D_k * D_{k-1}.
        l = lk[k - 1]
        if dd * (D[k + 1] * D[k - 1] + l * l) >= dn * D[k] * D[k]:
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

    # U * G * U^T off D and lam: _integral_gso's step 3 backwards, from
    # u_j = lam_ij (D_{i+1} at j = i) to u_0 = b_i.b_j, each division exact.
    R = [[0] * n for _ in range(n)]
    for i, li in enumerate(lam):
        for j in range(i + 1):
            u, lj = li[j] if j < i else D[i + 1], lam[j]
            for l in range(j - 1, -1, -1):
                u = (D[l] * u + li[l] * lj[l]) // D[l + 1]
            R[i][j] = R[j][i] = u
    return R, U


def combine(coeffs, vecs):
    """The sum of c*v over coeffs and vecs, each v a pair (x, y) of kernel
    pairs, or a tuple of ints."""
    if type(vecs[0][0]) is int:
        return tuple(sum(c * t for c, t in zip(coeffs, ts)) for ts in zip(*vecs))
    xu = xv = yu = yv = 0
    for c, ((a, b), (e, f)) in zip(coeffs, vecs):
        xu, xv, yu, yv = xu + c * a, xv + c * b, yu + c * e, yv + c * f
    return (xu, xv), (yu, yv)


def module_basis(ring, basis):
    """The Z-basis e, omega*e for each e in the O_K-basis basis of pairs
    (x, y) of kernel values (e alone over Q)."""
    if ring.field.is_rational:
        return list(basis)
    return [(ring.mul(o, x), ring.mul(o, y)) for x, y in basis for o in ((1, 0), (0, 1))]


def hermitian_gram(ring, n1, h21, n2):
    """reduce_pairs' Gram matrix of module_basis(ring, (r1, r2)) over an
    imaginary field, read off the values n1 = h(r1, r1), h21 = h(r2, r1) and
    n2 = h(r2, r2) of its Hermitian form h(p, q) = wx*x_p*conj(x_q) +
    wy*y_p*conj(y_q), with no product of pairs.  The entry of alpha*p and
    beta*q is tr(alpha*conj(beta)*h(p, q)), so rows e', omega*e' and columns
    e, omega*e hold [[tr(H), tr(conj(omega)*H)], [tr(omega*H), N(omega)*tr(H)]]
    for H = h(e', e) = hu + hv*omega; with omega^2 = k + t*omega,
    tr(H) = 2hu + t*hv, tr(omega*H) = t*hu + (2k + t^2)*hv,
    tr(conj(omega)*H) = t*hu - 2k*hv and N(omega) = -k."""
    t, k = ring.t, ring.k
    hu, hv = h21
    tr, tw, tc = 2 * hu + t * hv, t * hu + (2 * k + t * t) * hv, t * hu - 2 * k * hv
    return [
        [2 * n1, t * n1, tr, tw],
        [t * n1, -2 * k * n1, tc, -k * tr],
        [tr, tc, 2 * n2, t * n2],
        [tw, -k * tr, t * n2, -2 * k * n2],
    ]


def pair_weights(ring, a, b):
    """The integer weights round(sqrt(|N(a)|)*_SCALE) and round(sqrt(|N(b)|)*_SCALE)
    by which reduce_pairs weighs x and y over Q and an imaginary field."""
    return tuple((math.isqrt(4 * abs(ring.norm(e)) * _SCALE**2) + 1) // 2 for e in (a, b))


def reduce_pairs(ring, gens, coeffs):
    """LLL-reduced rows of the lattice with Z-basis gens, pairs (x, y) of
    kernel pairs, for the length sum_i (|sigma_i(a)|*sigma_i(x)^2 +
    |sigma_i(b)|*sigma_i(y)^2)/|sigma_i(c)| over the archimedean embeddings,
    (a, b, c) = coeffs nonzero.  Over Q and an imaginary field c drops out,
    and a weighs x by round(sqrt(N(a))*_SCALE) in the trace form dot.  Over a
    real field |sigma_i(a/c)|*|N(c)| = |sigma_i(q)| for q = a*conj(c), and x
    has the form tr(q'*x*x') of the totally positive q' = +-q*delta*_SCALE
    if N(q) < 0 (delta = 2*omega - t has the conjugates +-sqrt(disc)), else
    +-q*round(sqrt(disc)*_SCALE): |sigma_i(q)|*sqrt(disc)*_SCALE to a
    relative 2^-17.  b weighs y alike.  The Gram matrix is integral."""
    dot, mul, norm = ring.dot, ring.mul, ring.norm
    if ring.real:
        c, root = ring.conj(coeffs[2]), (math.isqrt(4 * ring.field.disc * _SCALE**2) + 1) // 2
        qs = [mul(e, c) for e in coeffs[:2]]
        qs = [(mul(q, (-ring.t, 2)), _SCALE) if norm(q) < 0 else (q, root) for q in qs]
        wx, wy = (mul(q, (m if ring.trace(q) > 0 else -m, 0)) for q, m in qs)
        ws = [(mul(wx, p), mul(wy, q)) for p, q in gens]
        low = [[dot(p, u) + dot(q, v) for u, v in gens[: i + 1]] for i, (p, q) in enumerate(ws)]
    else:
        wx, wy = pair_weights(ring, *coeffs[:2])
        low = [[wx * dot(p, u) + wy * dot(q, v) for u, v in gens[: i + 1]] for i, (p, q) in enumerate(gens)]
    # dot is symmetric: each entry is built once, on or below the diagonal.
    gram = [row + [low[j][i] for j in range(i + 1, len(low))] for i, row in enumerate(low)]
    return [combine(row, gens) for row in lll_reduce(gram)[1]]


def reduce_int_pairs(gens, wx: int, wy: int):
    """LLL-reduced rows of the rank-2 lattice with Z-basis gens, two pairs
    (x, y) of ints, for the length wx*x^2 + wy*y^2 (wx, wy > 0): its Gram
    matrix is wx*x*x' + wy*y*y'."""
    (x1, y1), (x2, y2) = gens
    g12 = wx * x1 * x2 + wy * y1 * y2
    gram = [[wx * x1 * x1 + wy * y1 * y1, g12], [g12, wx * x2 * x2 + wy * y2 * y2]]
    return [(c * x1 + e * x2, c * y1 + e * y2) for c, e in lll_reduce(gram)[1]]


def _dot(x: FieldElement, y: FieldElement) -> Fraction:
    """Inner product of the archimedean embedding vectors over Q and an
    imaginary field: the kernel's trace form of the numerators, halved."""
    return Fraction(integer_ring(x.field).dot(x.num, y.num), 2 * x.den * y.den)


def pair_measure(x: FieldElement, y: FieldElement, norm_a: int) -> Surd:
    """Exact weighted size |x|^2 + sqrt(|N(A)|)*|y|^2 as a quadratic surd."""
    rad = norm_a
    s = math.isqrt(rad)
    if s * s == rad:
        return Surd(_dot(x, x) + s * _dot(y, y))
    return Surd(_dot(x, x), _dot(y, y), rad)


@kernel_edge
def short_congruence_pair(ring, A, B, w, M=None):
    """A short pair (x, y), y != 0, of L = {(w*y + m, y) : y in M, m in M*S}
    for (B) = M^2*S, M = (1) unless given, and w^2 = A (mod S).

    L has index N(B), and B divides x^2 - A*y^2 on it, as
    x^2 - A*y^2 = (w^2 - A)*y^2 + 2*w*y*m + m^2 (Cremona and Rusin, Math.
    Comp. 72, 2003; Simon, Math. Comp. 74, 2005).  Its Z-basis is (w*y, y)
    for y in M's HNF basis and (B*z/N(M), 0) for z in the HNF basis of
    conj(M), as M*S = B*conj(M)/N(M).  reduce_pairs reduces it for the length
    Q = q_1 + ..., q_i = (sigma_i(x)^2 + |sigma_i(A)|*sigma_i(y)^2)/|sigma_i(B)|,
    and |sigma_i(t)| <= q_i for t = (x^2 - A*y^2)/B.  The least exact
    |x|^2 + sqrt(|N(A)|)*|y|^2 (pair_measure) wins over Q and an imaginary
    field, the least |N(t)| over a real field, where the bound needs no
    units: by AM-GM |N(t)| <= q_1*q_2 <= (Q/2)^2; L has index |N(B)| in O_K^2,
    of covolume D = disc scaled by sqrt(|N(A)|)/|N(B)| here, so the first LLL
    row of L has Q^2 <= alpha^3*D*sqrt(|N(A)|), alpha = 1/(DELTA - 1/4), and
    |N(t)| <= C_K*sqrt(|N(A)|), C_K = alpha^3*D/4.  A row with y = 0 has x in
    M*S and Q >= 2*sqrt(|N(B)|)/N(M), so the first row has y != 0 once
    |N(B)| > C_K*sqrt(|N(A)|)*N(M)^2.  Units move the weights, not the bound.
    """
    if B == ring.zero:
        raise ValueError("modulus must be nonzero")
    mul, zero, field = ring.mul, ring.zero, ring.field
    M = M or unit_ideal(field)
    norm_a = max(1, abs(ring.norm(A)))
    dot, s = ring.dot, math.isqrt(norm_a)

    def measure(x, y):
        if ring.real:
            return abs(ring.norm(ring.sub(mul(x, x), mul(A, mul(y, y)))))
        X, Y = dot(x, x), dot(y, y)
        return X + s * Y if s * s == norm_a else IntSurd(X, Y, norm_a)

    ys = M.basis
    zs = ys if field.is_rational else Ideal(field, *hnf_rows(map(ring.conj, ys))).basis
    gens = [(mul(w, y), y) for y in ys] + [(ring.exact_div(mul(B, z), (M.norm, 0)), zero) for z in zs]
    # The reduced rows, then the first generator; ties go to the least x, then y.
    rows = reduce_pairs(ring, gens, (ring.one, A if A != zero else ring.one, B)) + gens[:1]
    _, x, y = min((measure(x, y), x, y) for x, y in rows if y != zero)
    t = ring.exact_div(ring.sub(mul(x, x), mul(A, mul(y, y))), B)
    assert t is not None, "pair left the congruence lattice"
    return x, y
