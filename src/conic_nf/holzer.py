"""Size reduction of solutions of a*x^2 + b*y^2 + c*z^2 = 0.

Over the rationals a solvable equation always has a solution with
z^2 <= |ab|; over the Euclidean imaginary quadratic fields the same holds
with |z|^2 below an explicit multiple of |ab|.  Descent through a tangent
construction shrinks |z| strictly at each step, so iterating from any
starting solution reaches the bound.

The descent runs on integer (u, v) pairs through the integer kernel of
fields (IntegerRing): the equation and the start are converted once, each
step checks in integers that its point lies on the conic, and the result is
converted back and verified before it is returned.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BezoutFailed,
    NotEuclidean,
    PreconditionViolated,
    UndecidedError,
    UnsupportedField,
)
from .descent import SolutionTriple, verify
from .fields import FieldDescriptor, FieldElement, IntegerRing, integer_ring
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

_MAX_ITER = 10_000


def bound_constant_sq(field: FieldDescriptor) -> Fraction:
    """C^2 in the minimality condition N(z)^2 <= C^2 * |N(a)*N(b)|."""
    try:
        return _BOUND_SQ[field.d]
    except KeyError:
        raise UnsupportedField(
            f"no size-reduction bound available for {field}"
        ) from None


def is_reduced(eq: ConicEquation, sol: SolutionTriple) -> bool:
    """Exact check of the minimality bound on |z|, in integers: N(z) is
    N(num)/den^2 and the coefficients are integral."""
    csq, ring = bound_constant_sq(eq.field), integer_ring(eq.field)
    nz, nab = ring.norm(sol.z.num), abs(ring.norm(eq.a.num) * ring.norm(eq.b.num))
    return nz * nz * csq.denominator <= csq.numerator * nab * sol.z.den**4


def xgcd(a: FieldElement, b: FieldElement):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), via nearest-integer division."""
    field = a.field
    if not field.euclidean:
        raise NotEuclidean(f"{field} is not in the Euclidean list")
    ring = integer_ring(field)
    return tuple(map(ring.element, ring.xgcd(ring.pair(a), ring.pair(b))))


# Shifts of the Bezout point by multiples of (x, y), in the order tried.
_SHIFTS_Q = ((0, 0), (-1, 0), (1, 0))
_SHIFTS_QUADRATIC = ((0, 0),) + tuple(
    (u, v) for u in (-1, 0, 1) for v in (-1, 0, 1) if (u, v) != (0, 0)
)


def _bezout_point(ring: IntegerRing, a0, b0, c):
    """Some (alpha, beta) with b0*alpha - a0*beta = c, or raise."""
    g, s, t = ring.xgcd(b0, a0)
    q, r = ring.divmod(c, g)
    if r != (0, 0):
        raise BezoutFailed("x-y part of the solution does not divide c")
    tq = ring.mul(t, q)
    return ring.mul(s, q), (-tq[0], -tq[1])


def _on_conic(ring: IntegerRing, coeffs, point) -> bool:
    total = (0, 0)
    for co, t in zip(coeffs, point):
        total = ring.add(total, ring.mul(co, ring.mul(t, t)))
    return total == (0, 0)


def _descend_once(ring: IntegerRing, coeffs, point):
    """One tangent-descent step on pairs; returns a point with smaller |z|."""
    a, b, c = coeffs
    a0, b0, g0 = point
    alpha0, beta0 = _bezout_point(ring, a0, b0, c)
    add, mul = ring.add, ring.mul
    aa0, bb0, cg0 = mul(a, a0), mul(b, b0), mul(c, g0)
    # gamma is the nearest integer to -lin / (c*g0) = -lin * conj(c*g0) / den,
    # where lin = a*a0*alpha + b*b0*beta.
    cg0_conj, den = ring.conj(cg0), ring.norm(cg0)
    # Shifting by multiples of (a0, b0) keeps the Bezout identity; try a
    # few shifts and keep the candidate with the smallest |z|.
    shifts = _SHIFTS_Q if ring.field.is_rational else _SHIFTS_QUADRATIC
    best = None
    best_norm = None
    for shift in shifts:
        alpha = add(alpha0, mul(shift, a0))
        beta = add(beta0, mul(shift, b0))
        lin = add(mul(aa0, alpha), mul(bb0, beta))
        gamma = ring.round(mul((-lin[0], -lin[1]), cg0_conj), den)
        q = add(add(mul(a, mul(alpha, alpha)), mul(b, mul(beta, beta))), mul(c, mul(gamma, gamma)))
        r = add(lin, mul(cg0, gamma))
        r2 = (2 * r[0], 2 * r[1])
        cand = tuple(
            ring.exact_div(ring.sub(mul(t0, q), mul(t1, r2)), c)
            for t0, t1 in ((a0, alpha), (b0, beta), (g0, gamma))
        )
        if None in cand or cand == ((0, 0), (0, 0), (0, 0)):
            continue
        n = ring.norm(cand[2])
        if best is None or n < best_norm:
            best, best_norm = cand, n
    if best is None or best_norm >= ring.norm(g0):
        raise UndecidedError("tangent descent failed to shrink |z|")
    assert _on_conic(ring, coeffs, best)
    return best


def _primitive(ring: IntegerRing, point):
    g = ring.gcd(point)
    return tuple(ring.exact_div(t, g) for t in point)


def reduce_solution(eq: ConicEquation, sol: SolutionTriple) -> SolutionTriple:
    """A primitive solution meeting the minimality bound on |z|.

    Supported over the rationals and the Euclidean imaginary quadratic
    fields (d = -1, -2, -3, -7, -11).
    """
    bound_constant_sq(eq.field)
    if sol.is_trivial or not verify(eq, sol):
        raise PreconditionViolated("starting point is not a solution")
    if not all(t.is_integral for t in (sol.x, sol.y, sol.z)):
        raise PreconditionViolated("starting solution must be integral")
    ring = integer_ring(eq.field)
    coeffs = (ring.pair(eq.a), ring.pair(eq.b), ring.pair(eq.c))
    cur = _primitive(ring, (ring.pair(sol.x), ring.pair(sol.y), ring.pair(sol.z)))
    for _ in range(_MAX_ITER):
        red = SolutionTriple(*map(ring.element, cur))
        if is_reduced(eq, red):
            assert verify(eq, red)
            return red
        cur = _primitive(ring, _descend_once(ring, coeffs, cur))
    raise UndecidedError("size reduction did not converge")
