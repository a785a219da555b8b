"""Size reduction of solutions of a*x^2 + b*y^2 + c*z^2 = 0.

Over the rationals a solvable equation always has a solution with
z^2 <= |ab|; over the Euclidean imaginary quadratic fields the same holds
with |z|^2 below an explicit multiple of |ab|.  Each step LLL-reduces the
lattice of lines through the current point (Cremona & Rusin, "Efficient
solution of rational conics", Math. Comp. 72, 2003) and moves to the second
intersection of a short line, whose N(z) is smaller; N(z) is a non-negative
integer, so the steps end, and a step that cannot shrink it raises.

The steps run on kernel values: plain ints over Q (fields.INTS), whose
rank-2 lattices go to lattice.reduce_int_pairs, and integer (u, v) pairs
through the field's IntegerRing elsewhere.  Over an imaginary field the
lattice of lines is a rank-2 O_K-module: a Lagrange-Gauss loop over O_K
(Napias, 1996) reduces its O_K-basis first, which leaves the rank-4 LLL of
its Z-basis little to do.  The LLL still runs: the step's rows are to be an
LLL-reduced basis for the weights, and the Z-basis e, omega*e of a reduced
O_K-basis need not be one.  The equation and
the start are converted once, each step checks in integers that its point
lies on the conic, and so do the start and the result.  is_reduced tests
the bound on each point's kernel z, and only the result is made elements.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotEuclidean, PreconditionViolated, UndecidedError, UnsupportedField
from .descent import SolutionTriple, _cleared, _on_conic
from .fields import INTS, FieldDescriptor, elements_of, integer_ring, kernel_edge
from .lattice import combine, module_basis, pair_weights, reduce_int_pairs, reduce_pairs
from .solvability import ConicEquation

# Square of the bound constant: a minimal solution satisfies
# |z|^2 <= C * |ab|, i.e. N(z)^2 <= C^2 * |N(a)*N(b)|.
_BOUND_SQ = {
    None: Fraction(1),
    -1: Fraction(2),
    -2: Fraction(4),
    -3: Fraction(3, 2),
    -7: Fraction(7, 3),
    -11: Fraction(11, 2),
}


def bound_constant_sq(field: FieldDescriptor) -> Fraction:
    """C^2 in the minimality condition N(z)^2 <= C^2 * |N(a)*N(b)|."""
    try:
        return _BOUND_SQ[field.d]
    except KeyError:
        raise UnsupportedField(
            f"no size-reduction bound available for {field}"
        ) from None


def is_reduced(eq: ConicEquation, sol) -> bool:
    """Exact check of the minimality bound on |z|, in integers, for a
    SolutionTriple, whose N(z) is N(num)/den^2, or a kernel point (x, y, z)
    of reduce_solution: ints over Q, pairs otherwise.  The coefficients are
    integral."""
    csq = bound_constant_sq(eq.field)
    z, den = (sol.z.num, sol.z.den) if isinstance(sol, SolutionTriple) else (sol[2], 1)
    values = (eq.a.num, eq.b.num, z)
    if eq.field.is_rational:
        ring, values = INTS, [x if type(x) is int else x[0] for x in values]
    else:
        ring = integer_ring(eq.field)
    na, nb, nz = map(ring.norm, values)
    return nz * nz * csq.denominator <= csq.numerator * abs(na * nb) * den**4


@kernel_edge
def xgcd(ring, a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), via nearest-integer division."""
    if not ring.field.euclidean:
        raise NotEuclidean(f"{ring.field} is not in the Euclidean list")
    return ring.xgcd(a, b)


def _primitive(ring, point):
    g = ring.gcd(point)
    return tuple(ring.exact_div(t, g) for t in point)


def _second_point(ring, coeffs, point, polar, uv, bound=None):
    """The primitive second intersection of the conic with the line through
    point and (u, v, 0), for (u, v) in the lattice of _lattice_step:
    (q*x0 - 2*l*u, q*y0 - 2*l*v, q*z0)/z0 with q = a*u^2 + b*v^2 and
    2*l = 2*a*x0*u + 2*b*y0*v, both multiples of z0; polar holds 2*a*x0 and
    2*b*y0.  At q = 0 (l is then not 0) it is (u, v, 0), a point with z = 0.
    None, with no gcd taken, when its N(z) cannot be below bound: the
    content g of (x, y, q) has N(g) | gcd(N(x), N(y), N(q)), and the
    primitive point's N(z) is N(q)/N(g)."""
    a, b, _ = coeffs
    x0, y0, z0 = point
    u, v = uv
    mul, sub = ring.mul, ring.sub
    q = ring.add(mul(a, mul(u, u)), mul(b, mul(v, v)))
    l2 = ring.add(mul(polar[0], u), mul(polar[1], v))
    new = (sub(mul(q, x0), mul(l2, u)), sub(mul(q, y0), mul(l2, v)), mul(q, z0))
    new = tuple(ring.exact_div(t, z0) for t in new)
    if bound is not None and ring.norm(new[2]) >= bound * math.gcd(*map(ring.norm, new)):
        return None
    return _primitive(ring, new)


def _hermitian_reduce(ring, basis, weights):
    """The O_K-basis basis = ((x1, y1), (x2, y2)) of kernel pairs, Lagrange-Gauss
    reduced over O_K for h(p, q) = wx*x_p*conj(x_q) + wy*y_p*conj(y_q), with
    (wx, wy) = weights (Napias, J. Theor. Nombres Bordeaux 8, 1996): r2 -= q*r1
    for q = round(h(r2, r1)/h(r1, r1)), and a swap while h(r2, r2) < h(r1, r1).
    h(r, r) = wx*N(x) + wy*N(y) is a positive integer that each swap lowers, so
    the loop ends over every imaginary field; over the Euclidean ones round's
    covering radius below 1 leaves the pair Hermitian-reduced."""
    mul, sub, conj, norm = ring.mul, ring.sub, ring.conj, ring.norm
    wx, wy = weights
    (x1, y1), (x2, y2) = basis
    n1 = wx * norm(x1) + wy * norm(y1)
    while True:
        hx, hy = mul(x2, conj(x1)), mul(y2, conj(y1))
        q = ring.round((wx * hx[0] + wy * hy[0], wx * hx[1] + wy * hy[1]), n1)
        x2, y2 = sub(x2, mul(q, x1)), sub(y2, mul(q, y1))
        n2 = wx * norm(x2) + wy * norm(y2)
        if n2 >= n1:
            return (x1, y1), (x2, y2)
        x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2


def _lattice_step(ring, coeffs, point):
    """A point with smaller N(z), from one LLL reduction, or raise.

    The line through the primitive point (x0, y0, z0) and (u, v, 0) meets
    the conic again at a point that stays integral after division by z0
    when (u, v) lies in L = {(u, v) : u*y0 = v*x0 (mod z0)}, which has the
    O_K-basis (x0/g, y0/g), z0*(t, -s) for s*x0 + t*y0 = g = gcd(x0, y0)
    (gcd(g, z0) = 1, as the point is primitive).  A short (u, v) for
    |a|*|u|^2 + |b|*|v|^2 makes a*u^2 + b*v^2, and so the new z, small.
    Over an imaginary field _hermitian_reduce first reduces that O_K-basis
    for the same weights.  On the benchmark's seed-1 minimise requests the
    rank-4 LLL then takes a median of 3 passes and no swap, where the
    skewed basis took 34 passes and 19 swaps; it still runs, as only it
    makes the rows an LLL-reduced basis.
    The least N(z) among the reduced rows wins; when none of them shrinks
    N(z), the least among the rows' {-1, 0, 1} combinations does.  Ties go
    to the first point.  ring is the kernel: plain ints over Q (INTS),
    pairs over the imaginary fields.
    """
    a, b, _ = coeffs
    x0, y0, z0 = point
    mul = ring.mul
    g, s, t = ring.xgcd(x0, y0)
    e1 = (ring.exact_div(x0, g), ring.exact_div(y0, g))
    e2 = (mul(z0, t), ring.sub(ring.zero, mul(z0, s)))
    if ring is INTS:
        rows = reduce_int_pairs([e1, e2], abs(a), abs(b))
    else:
        basis = _hermitian_reduce(ring, (e1, e2), pair_weights(ring, a, b))
        rows = reduce_pairs(ring, module_basis(ring, basis), (a, b, ring.one))
    polar = (mul(ring.add(a, a), x0), mul(ring.add(b, b), y0))

    def least(vectors):
        # The least N(z), ties to the first.  A point that cannot beat the
        # best so far takes no gcd in O_K.
        nz = best = None
        for uv in vectors:
            p = _second_point(ring, coeffs, point, polar, uv, nz)
            if p is not None and (best is None or ring.norm(p[2]) < nz):
                nz, best = ring.norm(p[2]), p
        return nz, best

    nz, best = least(rows)
    if nz >= ring.norm(z0):
        # Every {-1, 0, 1} combination of the rows, up to sign.
        signs = itertools.product((0, 1, -1), repeat=len(rows))
        nz, best = least([combine(k, rows) for k in signs if next((c for c in k if c), 0) == 1])
    if nz >= ring.norm(z0):
        raise UndecidedError("lattice step failed to shrink |z|")
    assert _on_conic(ring, coeffs, best)
    return best


def reduce_solution(eq: ConicEquation, sol: SolutionTriple) -> SolutionTriple:
    """A primitive solution meeting the minimality bound on |z|.

    Supported over the rationals and the Euclidean imaginary quadratic
    fields (d = -1, -2, -3, -7, -11).
    """
    field = eq.field
    bound_constant_sq(field)
    # Over a common denominator the start is integral, and on the conic
    # exactly when it is.  The coefficients are integral (ConicEquation).
    den, start = _cleared(eq, sol)
    coeffs = [t.num for t in (eq.a, eq.b, eq.c)]
    ring = INTS if field.is_rational else integer_ring(field)
    if ring is INTS:
        coeffs, start = ([u for u, _ in v] for v in (coeffs, start))
    if sol.is_trivial or not _on_conic(ring, coeffs, start):
        raise PreconditionViolated("starting point is not a solution")
    if den > 1:
        raise PreconditionViolated("starting solution must be integral")
    cur = _primitive(ring, start)
    while not is_reduced(eq, cur):
        cur = _lattice_step(ring, coeffs, cur)
    assert _on_conic(ring, coeffs, cur)
    return SolutionTriple(*elements_of(ring, cur))
