"""Legendre-style descent for the norm form equation x^2 - A*y^2 = B*z^2.

Each step puts the coefficient of larger |N| first, factors (B) = M^2*S once,
with S squarefree, takes a small root w of A mod S and reduces the
congruence lattice of B (lattice), weighted per embedding, whose short pair
(a0, b0) gives t = (a0^2 - A*b0^2)/B.  While |N(t)| < |N(B)| the descent
recurses on (A, t1), t1 the part of t free of principal squares, and
composes by the multiplicativity of x^2 - A*y^2 (Cremona and Rusin, 2003;
Simon, 2005), on every field with no unit balancing.  A unit B, or a t that
does not shrink, ends in one search over pairs (y, z) in the reduced basis of
the same weighted lattice, which Hasse-Minkowski ends with no bound.

A solve factors the norms of a, b, c and of each quotient t once, and hands
the primes down as values; every other number is factored by division by them.

solve_conic runs on kernel values from the norm form to the point: the
integer kernel's pairs over a quadratic field, plain ints over Q
(fields.INTS), the base search included.  The helpers it calls
(sqrt_mod_ideal, short_congruence_pair, square_decompose, principal_ideal)
take the ring first and its values, so the norm form and the steps make no
element.  The local conditions are decided once, by check_solvable's
kernel form on the norm form's own values, which builds no equation; the
square test is a closed-form root, norms and units are integer
comparisons, and each step checks its composition in the kernel.  One
back-map on pairs, the same on every field, sends the solution to the
primitive point, which is checked on the conic in integers and made
elements once.  A DescentTrace stores the kernel values of each step and
makes elements of them only when read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NotSolvable, PellSearchExhausted
from .fields import (
    INTS,
    FieldDescriptor,
    FieldElement,
    elem_sqrt,
    elements_of,
    format_element,
    integer_ring,
    require_integral,
)
from .ideals import factor_ideal, factor_int, prime_power, principal_ideal
from .ideals import square_decompose, unit_ideal
from .lattice import combine, module_basis, reduce_pairs
from .lattice import short_congruence_pair
from .residues import sqrt_mod_ideal
from .solvability import ConicEquation, check_solvable

DEFAULT_PELL_BOUND = 200
MAX_DEPTH = 80


@dataclass(frozen=True)
class NormFormEquation:
    """x^2 - A*y^2 = B*z^2 with integral A, B."""

    A: FieldElement
    B: FieldElement


@dataclass(frozen=True)
class SolutionTriple:
    x: FieldElement
    y: FieldElement
    z: FieldElement

    @property
    def is_trivial(self) -> bool:
        return self.x.is_zero and self.y.is_zero and self.z.is_zero

    def __repr__(self):
        return (
            f"({format_element(self.x)}, {format_element(self.y)}, "
            f"{format_element(self.z)})"
        )


def _formatted(value):
    if isinstance(value, FieldElement):
        return format_element(value)
    if isinstance(value, list):
        return [_formatted(v) for v in value]
    return value


class DescentTrace:
    """Recorded steps of a descent run, for inspection and JSON output.

    A step keeps the kernel values it was given and their ring; steps makes
    elements of them, and to_list() formats them."""

    def __init__(self):
        self._steps: list[tuple[object, dict]] = []

    def add(self, kind: str, ring, **info):
        self._steps.append((ring, {"step": kind, **info}))

    @property
    def steps(self) -> list[dict]:
        return [{k: elements_of(ring, v) for k, v in step.items()} for ring, step in self._steps]

    def to_list(self) -> list[dict]:
        return [{k: _formatted(v) for k, v in step.items()} for step in self.steps]


def _size(ring, x) -> int:
    """|N(x)| for a kernel value x of ring, |x| on INTS."""
    return abs(x) if ring is INTS else abs(ring.norm(x))


def _norm_form(eq: ConicEquation):
    """(ring, a, A1, A2, B1, B2, primes) with -a*b = A1*A2^2 and
    -a*c = B1*B2^2 as kernel values of ring (ints over Q, pairs otherwise),
    and primes those of |N(a)|, |N(b)| and |N(c)|, each factored once.

    Every prime of -a*b, -a*c, their square-free parts and their norms (and
    of a rational A1 or B1 over a quadratic field) is one of primes, which
    square_decompose and the descent get, so none of those is trial-divided."""
    field = eq.field
    ring = integer_ring(field)
    a, b, c = (ring.pair(x) for x in (eq.a, eq.b, eq.c))
    if field.is_rational:
        ring, a, b, c = INTS, a[0], b[0], c[0]
    primes = set()
    for x in (a, b, c):
        primes.update(p for p, _ in factor_int(_size(ring, x), primes))
    A0, B0 = (ring.sub(ring.zero, ring.mul(a, x)) for x in (b, c))
    (A1, A2), (B1, B2) = (square_decompose(ring, x, primes) for x in (A0, B0))
    return ring, a, A1, A2, B1, B2, primes


def to_norm_form(
    eq: ConicEquation,
) -> tuple[NormFormEquation, Callable[[FieldElement, FieldElement, FieldElement], tuple]]:
    """Rewrite a*x^2 + b*y^2 + c*z^2 = 0 as X^2 - A*Y^2 = B*Z^2.

    Multiplying by a gives (a*x)^2 = (-a*b)*y^2 + (-a*c)*z^2; principal
    square parts of the new coefficients are absorbed into Y and Z.  The
    returned map sends a solution of the norm form back to a (rational)
    solution of the original equation.
    """
    ring, *values, _ = _norm_form(eq)
    a, A1, A2, B1, B2 = elements_of(ring, values)

    def back(x: FieldElement, y: FieldElement, z: FieldElement):
        return (x / a, y / A2, z / B2)

    return NormFormEquation(A1, B1), back


def _enumerate_small(field: FieldDescriptor, bound: int):
    """Nonzero-first enumeration of integral elements by weight, then size."""
    if field.is_rational:
        for n in range(0, bound + 1):
            yield field.element(n)
        return
    # Shell by shell (|u| + |v| = W), each shell in (u, v) order.
    for W in range(2 * bound + 1):
        for u in range(-min(W, bound), min(W, bound) + 1):
            r = W - abs(u)
            if r > bound:
                continue
            yield field.element(u, -r)
            if r:
                yield field.element(u, r)


def _enumerate_pairs(ring, a, b):
    """Pairs (y, z) of O_K^2, up to sign, as sum k_i*r_i over the rows r_i
    that reduce_pairs gives the length sum_i |sigma_i(a)|*sigma_i(y)^2 +
    |sigma_i(b)|*sigma_i(z)^2, by shells max|k_i| = W = 1, 2, ...  The rows
    are a Z-basis of O_K^2, so every nonzero pair comes once; y -> y/eta and
    a -> a*eta^2 leave the length alone, so the order does not see units.
    ring is the kernel: pairs, or plain ints over Q (INTS)."""
    one, zero = ring.one, ring.zero
    rows = reduce_pairs(ring, module_basis(ring, [(one, zero), (zero, one)]), (a, b, one))
    for W in itertools.count(1):
        for k in itertools.product(range(-W, W + 1), repeat=len(rows)):
            if max(map(abs, k)) == W and next(c for c in k if c) > 0:
                yield combine(k, rows)


def _norm_search(ring, A, B, trace: DescentTrace):
    """The base of the descent, for a unit B or a quotient t that does not
    shrink: the first pair (y, z) of _enumerate_pairs with A*y^2 + B*z^2 a
    square x^2, as kernel values of ring.

    The search ends.  At depth 0 the descent checks x^2 = A*y^2 + B*z^2
    locally solvable, and each step keeps it so: t*B = a0^2 - A*b0^2 is a
    norm from K(sqrt(A)), so (A, t)_v = (A, B)_v at every place v, and
    removing square factors or swapping A and B changes no symbol.  By
    Hasse-Minkowski the conic has a point, which scales to one with y, z in
    O_K, not both 0, and then x in O_K.  The rows of _enumerate_pairs are a
    Z-basis of O_K^2, so it reaches that pair or its negative.
    """
    trace.add("pell_fallback", ring, A=A, B=B)
    mul = ring.mul
    for y, z in _enumerate_pairs(ring, A, B):
        x = ring.sqrt(ring.add(mul(A, mul(y, y)), mul(B, mul(z, z))))
        if x is not None:
            return x, y, z


def solve_pell(
    A: FieldElement, B: FieldElement, bound: Optional[int] = None
) -> tuple[FieldElement, FieldElement]:
    """A solution (x, y) of x^2 - A*y^2 = B by bounded exact search."""
    if bound is None:
        bound = DEFAULT_PELL_BOUND
    field = A.field
    require_integral(A)
    require_integral(B)
    for y in _enumerate_small(field, bound):
        rhs = B + A * y * y
        x = elem_sqrt(rhs)
        if x is not None:
            return x, y
    raise PellSearchExhausted(
        f"no solution of x^2 - ({format_element(A)})*y^2 = {format_element(B)} "
        f"with coordinate bound {bound}"
    )


def _compose(ring, A, pair, inner, t12):
    """(a0*a1 + A*b0*b1, a1*b0 + a0*b1, t12*g1) for pair = (a0, b0) and
    inner = (a1, b1, g1), in ring's arithmetic."""
    mul, add = ring.mul, ring.add
    (a0, b0), (a1, b1, g1) = pair, inner
    return add(mul(a0, a1), mul(A, mul(b0, b1))), add(mul(a1, b0), mul(a0, b1)), mul(t12, g1)


def compose_solution(
    A: FieldElement,
    pair: tuple[FieldElement, FieldElement],
    inner: SolutionTriple,
    t1: FieldElement,
    t2: FieldElement,
) -> SolutionTriple:
    """Combine (a0, b0) with a solution of x^2 - A*y^2 = t1*z^2.

    Uses the norm identity
    (a0^2 - A b0^2)(a1^2 - A b1^2) = (a0 a1 + A b0 b1)^2 - A (a0 b1 + a1 b0)^2.
    The descent composes kernel values the same way; the operators of INTS
    serve FieldElements too.
    """
    return SolutionTriple(*_compose(INTS, A, pair, (inner.x, inner.y, inner.z), t1 * t2))


def _try_rational_subfield(ring, A, B, primes):
    """Solve over Q when the pairs A and B are rational and the conditions
    hold there: the solution as pairs, or None.

    The conditions are decided here, so the descent over Q starts as a
    recursive call, which does not decide them again."""
    if ring is INTS or A[1] or B[1] or not check_solvable(INTS, 1, -A[0], -B[0], primes).solvable:
        return None
    return tuple((t, 0) for t in legendre_descent(A[0], B[0], None, 1, INTS, primes))


def legendre_descent(
    A: FieldElement,
    B: FieldElement,
    trace: Optional[DescentTrace] = None,
    _depth: int = 0,
    _ring=None,
    _primes=frozenset(),
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """A nonzero solution (x, y, z) of x^2 - A*y^2 = B*z^2, by descent.

    The top-level call decides the local conditions once and raises
    NotSolvable when they fail (BaseDegenerate for a zero A or B); the
    recursive calls do not check again.  Each call is one step of the
    descent (see the module docstring).  With _ring, A, B and the solution
    are its kernel values, as the descent's calls and solve_conic pass them,
    and _primes the primes known so far (see the module docstring).
    """
    if trace is None:
        trace = DescentTrace()
    if _depth > MAX_DEPTH:
        raise PellSearchExhausted("descent recursion exceeded its depth limit")
    ring = _ring or integer_ring(A.field)
    if _ring is None:
        A, B = ring.pair(A), ring.pair(B)
        if ring.field.is_rational:
            ring, A, B = INTS, A[0], B[0]
    sol = _try_rational_subfield(ring, A, B, _primes) if _depth == 0 else None
    if sol is not None:
        trace.add("rational_subfield", ring)
    else:
        if _depth == 0:
            cert = check_solvable(ring, ring.one, ring.sub(ring.zero, A), ring.sub(ring.zero, B), _primes)
            if not cert.solvable:
                eA, eB = elements_of(ring, (A, B))
                raise NotSolvable(
                    f"x^2 - ({format_element(eA)})y^2 = ({format_element(eB)})z^2 "
                    f"fails the local conditions ({cert.reason})"
                )
        sol = _step(ring, A, B, trace, _depth, _primes)
    return sol if _ring is not None else elements_of(ring, sol)


def _step(ring, A, B, trace: DescentTrace, depth: int, primes):
    """One step of the descent on the kernel values A and B of ring.  primes
    hold every prime of |N(A)| and |N(B)|; the quotient t is factored once,
    and its primes join them for the next step."""
    field = ring.field
    # A perfect square A short-circuits everything: x = sqrt(A)*y.
    sq = ring.sqrt(A)
    if sq is not None:
        trace.add("square_discriminant", ring, sqrt=sq)
        return (sq, ring.one, ring.zero)

    norm_b = abs(ring.norm(B))
    if abs(ring.norm(A)) > norm_b:
        trace.add("swap", ring, A=A, B=B)
        x, y, z = legendre_descent(B, A, trace, depth + 1, ring, primes)
        return (x, z, y)

    if norm_b == 1:
        return _norm_search(ring, A, B, trace)

    # (B) = M^2 * S with S squarefree, from one factorization.  A root of A
    # mod S exists when the conditions hold: at an odd P | S not dividing A
    # the Hilbert symbol (A, B)_P = 1 says A is a square mod P; w = 0 at
    # P | A; over 2 every residue is a square.  Over Q, S and M are ints.
    if ring is INTS:
        factors = factor_ideal(B, primes)
        S = math.prod(p for p, e in factors if e % 2)
        M = math.prod(p ** (e // 2) for p, e in factors)
    else:
        S, M = principal_ideal(ring, B), None
        factors = factor_ideal(S, primes)
        if any(e > 1 for _, e in factors):
            S = M = unit_ideal(field)
            for P, e in factors:
                S, M = S * prime_power(P, e % 2), M * prime_power(P, e // 2)
    w = sqrt_mod_ideal(ring, A, S, [(P, 1) for P, e in factors if e % 2])
    assert w is not None, "no root of A modulo the squarefree part of (B)"

    a0, b0 = short_congruence_pair(ring, A, B, w, M)
    mul = ring.mul
    t = ring.exact_div(ring.sub(mul(a0, a0), mul(A, mul(b0, b0))), B)
    assert t is not None, "congruence pair must give an integral quotient"
    trace.add("reduce", ring, A=A, B=B, w=w, pair=[a0, b0], t=t)
    if not abs(ring.norm(t)) < norm_b:
        return _norm_search(ring, A, B, trace)
    primes = primes.union(p for p, _ in factor_int(_size(ring, t), primes))
    t1, t2 = square_decompose(ring, t, primes)
    inner = legendre_descent(A, t1, trace, depth + 1, ring, primes)
    x, y, z = _compose(ring, A, (a0, b0), inner, mul(t1, t2))
    assert ring.sub(mul(x, x), mul(A, mul(y, y))) == mul(B, mul(z, z)), "descent composition failed"
    return (x, y, z)


def verify(eq: ConicEquation, sol: SolutionTriple) -> bool:
    return (not sol.is_trivial) and eq.evaluate(sol.x, sol.y, sol.z).is_zero


def _primitive_point(ring, point, divisors):
    """The primitive point on the ray through (x/a, y/A2, z/B2) for the pairs
    point = (x, y, z) and divisors = (a, A2, B2): the integral multiple by
    P = |N(a)*N(A2)*N(B2)|, P*t/d = t*conj(d)*(P/N(d)), over its content."""
    P = (abs(math.prod(ring.norm(d) for d in divisors)), 0)
    point = [ring.exact_div(ring.mul(P, t), d) for t, d in zip(point, divisors)]
    g = math.gcd(*(c for t in point for c in t))
    assert g, "descent produced a non-solution"
    return [(u // g, v // g) for u, v in point]


def _on_conic(ring, coeffs, point) -> bool:
    """a*x^2 + b*y^2 + c*z^2 == 0 on kernel values of ring (pairs or INTS)."""
    total = ring.zero
    for co, t in zip(coeffs, point):
        total = ring.add(total, ring.mul(co, ring.mul(t, t)))
    return total == ring.zero


def solve_conic(
    eq: ConicEquation,
    trace: Optional[DescentTrace] = None,
) -> SolutionTriple:
    """A nonzero integral solution of a*x^2 + b*y^2 + c*z^2 = 0.

    Raises NotSolvable when the equation fails the local conditions: its
    norm form has the same local conditions, and the descent checks them.
    """
    ring, a, A1, A2, B1, B2, primes = _norm_form(eq)
    if trace is not None:
        trace.add("norm_form", ring, A=A1, B=B1)
    sol = legendre_descent(A1, B1, trace, 0, ring, primes)
    divisors, pairs = (a, A2, B2), integer_ring(eq.field)
    if ring is INTS:
        sol, divisors = ([(t, 0) for t in v] for v in (sol, divisors))
    point = _primitive_point(pairs, sol, divisors)
    coeffs = [pairs.pair(t) for t in (eq.a, eq.b, eq.c)]
    assert _on_conic(pairs, coeffs, point), "descent produced a non-solution"
    return SolutionTriple(*map(pairs.element, point))
