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
O_K-basis need not be one; its Gram matrix is read off the loop's
Hermitian values (lattice.hermitian_gram).  One Euclid pass per point
(_content) gives its content and the Bezout data of the next step's basis,
and a candidate point is tested against the best N(z) so far before it is
divided by z0.  The equation and the start are converted once, each step
checks in integers that its point lies on the conic, and so do the start
and the result.  is_reduced tests the bound on each point's kernel z, and
only the result is made elements.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotEuclidean, PreconditionViolated, UndecidedError, UnsupportedField
from .descent import SolutionTriple, _cleared, _on_conic
from .fields import INTS, FieldDescriptor, elements_of, integer_ring, kernel_edge
from .lattice import combine, hermitian_gram, lll_reduce, module_basis, pair_weights, reduce_int_pairs
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


def _content(ring, point):
    """(point over its content, the Bezout data (g, s, t) of its x and y that
    the next _lattice_step takes), from one Euclid pass: for
    ring.xgcd(x, y) = (h, s, t) the content is G = ring.gcd((h, z)), which is
    ring.gcd(point), and as the kernel's nearest-integer quotient depends
    only on the ratio it rounds, Euclid on (x/G, y/G) takes the same
    quotients as on (x, y), so ring.xgcd(x/G, y/G) = (h/G, s, t)."""
    x, y, z = point
    h, s, t = ring.xgcd(x, y)
    g, div = ring.gcd((h, z)), ring.exact_div
    return (div(x, g), div(y, g), div(z, g)), (div(h, g), s, t)


def _line_point(ring, coeffs, point, polar, uv):
    """q*(x0, y0, z0) - 2*l*(u, v, 0), the second intersection of the conic
    with the line through point and (u, v, 0): q = a*u^2 + b*v^2, and
    2*l = 2*a*x0*u + 2*b*y0*v, the polar form, from polar = (2*a*x0, 2*b*y0).
    At q = 0 it is a multiple of (u, v, 0).  parametrize's slope m/n is (n, m)."""
    (a, b, _), (x0, y0, z0), (u, v) = coeffs, point, uv
    mul, sub = ring.mul, ring.sub
    q = ring.add(mul(a, mul(u, u)), mul(b, mul(v, v)))
    l2 = ring.add(mul(polar[0], u), mul(polar[1], v))
    return sub(mul(q, x0), mul(l2, u)), sub(mul(q, y0), mul(l2, v)), mul(q, z0)


def _second_point(ring, coeffs, point, polar, uv, bound=None):
    """_content of the _line_point for (u, v) in the lattice of _lattice_step
    over z0, which divides q and 2*l: the point (x, y, q) and its Bezout data.
    None, with no division and no gcd, when its primitive N(z) cannot be
    below bound: the content g of (x, y, q) has N(g) dividing
    gcd(N(x), N(y), N(q)), and the primitive point's N(z) is N(q)/N(g).  The
    test runs on the undivided line point, each of whose norms is N(z0)
    times the divided one's, so only a point that passes is divided."""
    new, norm = _line_point(ring, coeffs, point, polar, uv), ring.norm
    if bound is not None and norm(new[2]) >= bound * math.gcd(*map(norm, new)):
        return None
    z0, div = point[2], ring.exact_div
    return _content(ring, (div(new[0], z0), div(new[1], z0), div(new[2], z0)))


def _hermitian_reduce(ring, basis, weights):
    """The O_K-basis basis = ((x1, y1), (x2, y2)) of kernel pairs, Lagrange-Gauss
    reduced over O_K for h(p, q) = wx*x_p*conj(x_q) + wy*y_p*conj(y_q), with
    (wx, wy) = weights (Napias, J. Theor. Nombres Bordeaux 8, 1996): r2 -= q*r1
    for q = round(h(r2, r1)/h(r1, r1)), and a swap while h(r2, r2) < h(r1, r1).
    h(r, r) = wx*N(x) + wy*N(y) is a positive integer that each swap lowers, so
    the loop ends over every imaginary field; over the Euclidean ones round's
    covering radius below 1 leaves the pair Hermitian-reduced.  Returns the
    pair (r1, r2) and (h(r1, r1), h(r2, r1), h(r2, r2)), for
    lattice.hermitian_gram: h(r2, r1) is the last one before r2 -= q*r1,
    less q*h(r1, r1)."""
    mul, sub, conj, norm = ring.mul, ring.sub, ring.conj, ring.norm
    wx, wy = weights
    (x1, y1), (x2, y2) = basis
    n1 = wx * norm(x1) + wy * norm(y1)
    while True:
        hx, hy = mul(x2, conj(x1)), mul(y2, conj(y1))
        hu, hv = wx * hx[0] + wy * hy[0], wx * hx[1] + wy * hy[1]
        q = ring.round((hu, hv), n1)
        x2, y2 = sub(x2, mul(q, x1)), sub(y2, mul(q, y1))
        n2 = wx * norm(x2) + wy * norm(y2)
        if n2 >= n1:
            return ((x1, y1), (x2, y2)), (n1, (hu - q[0] * n1, hv - q[1] * n1), n2)
        x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2


def _lattice_step(ring, coeffs, point, bezout):
    """A point with smaller N(z), from one LLL reduction, with its Bezout
    data (both as _content returns them), or raise.

    The line through the primitive point (x0, y0, z0) and (u, v, 0) meets
    the conic again at a point that stays integral after division by z0
    when (u, v) lies in L = {(u, v) : u*y0 = v*x0 (mod z0)}, which has the
    O_K-basis (x0/g, y0/g), z0*(t, -s) for s*x0 + t*y0 = g = gcd(x0, y0)
    (gcd(g, z0) = 1, as the point is primitive); bezout = (g, s, t) comes
    from the content pass that made the point.  A short (u, v) for
    |a|*|u|^2 + |b|*|v|^2 makes a*u^2 + b*v^2, and so the new z, small.
    Over an imaginary field _hermitian_reduce first reduces that O_K-basis
    for the same weights.  On the benchmark's seed-1 minimise requests the
    rank-4 LLL then takes a median of 3 passes and no swap, where the
    skewed basis took 34 passes and 19 swaps; it still runs, as only it
    makes the rows an LLL-reduced basis, on the Gram matrix that
    lattice.hermitian_gram reads off the loop's Hermitian values.
    The least N(z) among the reduced rows wins; when none of them shrinks
    N(z), the least among the rows' {-1, 0, 1} combinations does.  Ties go
    to the first point.  ring is the kernel: plain ints over Q (INTS),
    pairs over the imaginary fields.
    """
    a, b, _ = coeffs
    x0, y0, z0 = point
    mul = ring.mul
    g, s, t = bezout
    e1 = (ring.exact_div(x0, g), ring.exact_div(y0, g))
    e2 = (mul(z0, t), ring.sub(ring.zero, mul(z0, s)))
    if ring is INTS:
        rows = reduce_int_pairs([e1, e2], abs(a), abs(b))
    else:
        basis, values = _hermitian_reduce(ring, (e1, e2), pair_weights(ring, a, b))
        gens = module_basis(ring, basis)
        rows = [combine(u, gens) for u in lll_reduce(hermitian_gram(ring, *values))[1]]
    polar = (mul(ring.add(a, a), x0), mul(ring.add(b, b), y0))

    def least(vectors):
        # The least N(z), ties to the first.  A point that cannot beat the
        # best so far takes no gcd in O_K.
        nz = best = None
        for uv in vectors:
            p = _second_point(ring, coeffs, point, polar, uv, nz)
            if p is not None and (best is None or ring.norm(p[0][2]) < nz):
                nz, best = ring.norm(p[0][2]), p
        return nz, best

    nz, best = least(rows)
    if nz >= ring.norm(z0):
        # Every {-1, 0, 1} combination of the rows, up to sign.
        signs = itertools.product((0, 1, -1), repeat=len(rows))
        nz, best = least([combine(k, rows) for k in signs if next((c for c in k if c), 0) == 1])
    if nz >= ring.norm(z0):
        raise UndecidedError("lattice step failed to shrink |z|")
    assert _on_conic(ring, coeffs, best[0])
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
    cur, bezout = _content(ring, start)
    while not is_reduced(eq, cur):
        cur, bezout = _lattice_step(ring, coeffs, cur, bezout)
    assert _on_conic(ring, coeffs, cur)
    return SolutionTriple(*elements_of(ring, cur))
