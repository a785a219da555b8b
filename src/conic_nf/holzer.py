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
through the field's IntegerRing elsewhere.  The equation and
the start are converted once, each step checks in integers that its point
lies on the conic, and so do the start and the result.  is_reduced tests
the bound on each point's kernel z, and only the result is made elements.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotEuclidean, PreconditionViolated, UndecidedError, UnsupportedField
from .descent import SolutionTriple, _on_conic
from .fields import INTS, FieldDescriptor, elements_of, integer_ring, kernel_edge
from .lattice import combine, module_basis, reduce_int_pairs, reduce_pairs
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


def _lattice_step(ring, coeffs, point):
    """A point with smaller N(z), from one LLL reduction, or raise.

    The line through the primitive point (x0, y0, z0) and (u, v, 0) meets
    the conic again at a point that stays integral after division by z0
    when (u, v) lies in L = {(u, v) : u*y0 = v*x0 (mod z0)}, which has the
    O_K-basis (x0/g, y0/g), z0*(t, -s) for s*x0 + t*y0 = g = gcd(x0, y0)
    (gcd(g, z0) = 1, as the point is primitive).  A short (u, v) for
    |a|*|u|^2 + |b|*|v|^2 makes a*u^2 + b*v^2, and so the new z, small.
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
    rows = (reduce_int_pairs([e1, e2], abs(a), abs(b)) if ring is INTS
            else reduce_pairs(ring, module_basis(ring, [e1, e2]), (a, b, ring.one)))
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
    point = (sol.x, sol.y, sol.z)
    if any(t.field is not field for t in (eq.b, eq.c, *point)):
        raise ValueError("elements of different fields")
    # Over a common denominator the start is integral, and on the conic
    # exactly when it is.  The coefficients are integral (ConicEquation).
    den = math.lcm(*(t.den for t in point))
    coeffs = [t.num for t in (eq.a, eq.b, eq.c)]
    start = [(t.num[0] * (den // t.den), t.num[1] * (den // t.den)) for t in point]
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
