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

Every decision of a step is a test on the integer kernel's pairs: the
square test is the kernel's closed-form root (elem_sqrt), and norms and
units are integer comparisons.  A DescentTrace stores the elements of each
step and formats them only in to_list().
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NotSolvable, PellSearchExhausted
from .fields import (
    FieldDescriptor,
    FieldElement,
    elem_sqrt,
    format_element,
    integer_ring,
    is_unit,
    make_field,
    require_integral,
)
from .ideals import factor_ideal, prime_power, principal_ideal
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

    A step keeps the elements it was given; to_list() formats them."""

    def __init__(self):
        self.steps: list[dict] = []

    def add(self, kind: str, **info):
        self.steps.append({"step": kind, **info})

    def to_list(self) -> list[dict]:
        return [{k: _formatted(v) for k, v in step.items()} for step in self.steps]


def to_norm_form(
    eq: ConicEquation,
) -> tuple[NormFormEquation, Callable[[FieldElement, FieldElement, FieldElement], tuple]]:
    """Rewrite a*x^2 + b*y^2 + c*z^2 = 0 as X^2 - A*Y^2 = B*Z^2.

    Multiplying by a gives (a*x)^2 = (-a*b)*y^2 + (-a*c)*z^2; principal
    square parts of the new coefficients are absorbed into Y and Z.  The
    returned map sends a solution of the norm form back to a (rational)
    solution of the original equation.
    """
    a, b, c = eq.a, eq.b, eq.c
    A0 = -(a * b)
    B0 = -(a * c)
    A1, A2 = square_decompose(A0)
    B1, B2 = square_decompose(B0)

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
    a -> a*eta^2 leave the length alone, so the order does not see units."""
    one, zero = (1, 0), (0, 0)
    rows = reduce_pairs(ring, module_basis(ring, [(one, zero), (zero, one)]), (a, b, one))
    for W in itertools.count(1):
        for k in itertools.product(range(-W, W + 1), repeat=len(rows)):
            if max(map(abs, k)) == W and next(c for c in k if c) > 0:
                yield combine(k, rows)


def _norm_search(
    A: FieldElement, B: FieldElement, trace: DescentTrace
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """The base of the descent, for a unit B or a quotient t that does not
    shrink: the first pair (y, z) of _enumerate_pairs with A*y^2 + B*z^2 a
    square x^2.

    The search ends.  At depth 0 the descent checks x^2 = A*y^2 + B*z^2
    locally solvable, and each step keeps it so: t*B = a0^2 - A*b0^2 is a
    norm from K(sqrt(A)), so (A, t)_v = (A, B)_v at every place v, and
    removing square factors or swapping A and B changes no symbol.  By
    Hasse-Minkowski the conic has a point, which scales to one with y, z in
    O_K, not both 0, and then x in O_K.  The rows of _enumerate_pairs are a
    Z-basis of O_K^2, so it reaches that pair or its negative.
    """
    trace.add("pell_fallback", A=A, B=B)
    ring = integer_ring(A.field)
    a, b, mul = ring.pair(A), ring.pair(B), ring.mul
    for y, z in _enumerate_pairs(ring, a, b):
        x = ring.sqrt(ring.add(mul(a, mul(y, y)), mul(b, mul(z, z))))
        if x is not None:
            return ring.element(x), ring.element(y), ring.element(z)


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
    """
    a0, b0 = pair
    a1, b1, g1 = inner.x, inner.y, inner.z
    x = a0 * a1 + A * b0 * b1
    y = a1 * b0 + a0 * b1
    z = t1 * t2 * g1
    return SolutionTriple(x, y, z)


def _try_rational_subfield(
    A: FieldElement, B: FieldElement
) -> Optional[tuple[FieldElement, FieldElement, FieldElement]]:
    """Solve over Q when A and B are rational and the conditions hold there.

    The conditions are decided here, so the descent over Q starts as a
    recursive call, which does not decide them again."""
    field = A.field
    if field.is_rational or A.num[1] or B.num[1]:
        return None
    Qf = make_field()
    a, b = Qf.element(A.num[0]), Qf.element(B.num[0])
    if not check_solvable(ConicEquation.from_coefficients(Qf.one(), -a, -b)).solvable:
        return None
    sol = legendre_descent(a, b, _depth=1)
    return tuple(field.element(t.num[0]) / t.den for t in sol)


def legendre_descent(
    A: FieldElement,
    B: FieldElement,
    trace: Optional[DescentTrace] = None,
    _depth: int = 0,
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """A nonzero solution (x, y, z) of x^2 - A*y^2 = B*z^2, by descent.

    The top-level call decides the local conditions once and raises
    NotSolvable when they fail; the recursive calls do not check again.
    Each call is one step of the descent (see the module docstring).
    """
    field = A.field
    ring = integer_ring(field)
    require_integral(A)
    require_integral(B)
    if trace is None:
        trace = DescentTrace()
    if _depth > MAX_DEPTH:
        raise PellSearchExhausted("descent recursion exceeded its depth limit")

    if _depth == 0:
        sub = _try_rational_subfield(A, B)
        if sub is not None:
            trace.add("rational_subfield")
            return sub
        eq = ConicEquation.from_coefficients(field.one(), -A, -B)
        cert = check_solvable(eq)
        if not cert.solvable:
            raise NotSolvable(
                f"x^2 - ({format_element(A)})y^2 = ({format_element(B)})z^2 "
                f"fails the local conditions ({cert.reason})"
            )

    # A perfect square A short-circuits everything: x = sqrt(A)*y.
    sq = elem_sqrt(A)
    if sq is not None:
        trace.add("square_discriminant", sqrt=sq)
        return (sq, field.one(), field.zero())

    norm_b = abs(ring.norm(B.num))
    if abs(ring.norm(A.num)) > norm_b:
        trace.add("swap", A=A, B=B)
        x, y, z = legendre_descent(B, A, trace, _depth + 1)
        return (x, z, y)

    if is_unit(B):
        return _norm_search(A, B, trace)

    # (B) = M^2 * S with S squarefree, from one factorization.  A root of A
    # mod S exists when the conditions hold: at an odd P | S not dividing A
    # the Hilbert symbol (A, B)_P = 1 says A is a square mod P; w = 0 at
    # P | A; over 2 every residue is a square.
    S, M = principal_ideal(B), None
    factors = factor_ideal(S)
    if any(e > 1 for _, e in factors):
        S = M = unit_ideal(field)
        for P, e in factors:
            S, M = S * prime_power(P, e % 2), M * prime_power(P, e // 2)
    w = sqrt_mod_ideal(A, S, [(P, 1) for P, e in factors if e % 2])
    assert w is not None, "no root of A modulo the squarefree part of (B)"

    a0, b0 = short_congruence_pair(A, B, w, M)
    t = (a0 * a0 - A * b0 * b0) / B
    assert t.is_integral, "congruence pair must give an integral quotient"
    trace.add("reduce", A=A, B=B, w=w, pair=[a0, b0], t=t)
    if not abs(ring.norm(t.num)) < norm_b:
        return _norm_search(A, B, trace)
    t1, t2 = square_decompose(t)
    inner = legendre_descent(A, t1, trace, _depth + 1)
    sol = compose_solution(A, (a0, b0), SolutionTriple(*inner), t1, t2)
    assert sol.x * sol.x - A * sol.y * sol.y == B * sol.z * sol.z, "descent composition failed"
    return (sol.x, sol.y, sol.z)


def verify(eq: ConicEquation, sol: SolutionTriple) -> bool:
    return (not sol.is_trivial) and eq.evaluate(sol.x, sol.y, sol.z).is_zero


def _clear_denominators(field, triple):
    m = math.lcm(*(t.den for t in triple))
    scaled = [t * m for t in triple]
    # Remove the rational integer content.
    g = math.gcd(*(co for t in scaled for co in t.num))
    if g > 1:
        scaled = [t / g for t in scaled]
    return scaled


def solve_conic(
    eq: ConicEquation,
    trace: Optional[DescentTrace] = None,
) -> SolutionTriple:
    """A nonzero integral solution of a*x^2 + b*y^2 + c*z^2 = 0.

    Raises NotSolvable when the equation fails the local conditions: its
    norm form has the same local conditions, and the descent checks them.
    """
    nf, back = to_norm_form(eq)
    if trace is not None:
        trace.add("norm_form", A=nf.A, B=nf.B)
    x, y, z = legendre_descent(nf.A, nf.B, trace)
    raw = back(x, y, z)
    xi, yi, zi = _clear_denominators(eq.field, raw)
    sol = SolutionTriple(xi, yi, zi)
    assert verify(eq, sol), "descent produced a non-solution"
    return sol
