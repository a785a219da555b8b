"""Slope parameterisation of all solutions of a*x^2 + b*y^2 + c*z^2 = 0.

The line of slope m/n through a base point with z0 != 0 meets the conic
again at holzer._line_point, run through fields.INTS on FieldElements; the
lines sweep out every other solution.  A slope point is cleared to kernel
pairs and taken over its content (its rational integer content outside the
Euclidean fields), so a rational base gives the points of its integral
multiple.  Each projective point over K is listed once, on every field.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from .errors import BaseDegenerate
from .descent import SolutionTriple, _cleared, verify
from .fields import INTS, FieldElement, elements_of, integer_ring
from .holzer import _line_point, _primitive
from .solvability import ConicEquation


def param_solution(
    eq: ConicEquation,
    base: SolutionTriple,
    m: FieldElement,
    n: FieldElement,
) -> SolutionTriple:
    """The solution attached to slope m/n through the base point.

    Requires base.z != 0; permute the equation first if necessary.
    """
    if base.z.is_zero:
        raise BaseDegenerate("base solution must have a nonzero z")
    coeffs, point = (eq.a, eq.b, eq.c), (base.x, base.y, base.z)
    polar = (2 * eq.a * base.x, 2 * eq.b * base.y)
    return SolutionTriple(*_line_point(INTS, coeffs, point, polar, (n, m)))


def primitive_param(
    eq: ConicEquation,
    base: SolutionTriple,
    m: FieldElement,
    n: FieldElement,
) -> Optional[SolutionTriple]:
    """The cleared slope solution over its coordinate gcd, or None if trivial.

    Full primitivity needs gcds, so outside the norm-Euclidean fields only
    the rational integer content is removed.
    """
    sol = param_solution(eq, base, m, n)
    if sol.is_trivial:
        return None
    ring, (_, point) = integer_ring(eq.field), _cleared(eq, sol)
    if eq.field.euclidean:
        return SolutionTriple(*elements_of(ring, _primitive(ring, point)))
    g = math.gcd(*(c for t in point for c in t))
    return SolutionTriple(*(ring.element((u // g, v // g)) for u, v in point))


def canonical_solution(sol: SolutionTriple) -> tuple:
    """A projective invariant of a nonzero solution: its coordinates over
    its last nonzero one, so two solutions share it exactly when they
    differ by a factor in K*."""
    last = next(t for t in (sol.z, sol.y, sol.x) if not t.is_zero)
    return tuple(t / last for t in (sol.x, sol.y, sol.z))


def enumerate_solutions(
    eq: ConicEquation,
    base: SolutionTriple,
    max_param: int,
    z_norm_bound: Optional[int] = None,
) -> Iterator[SolutionTriple]:
    """Distinct primitive solutions from slopes with coordinates in a box.

    Slopes m/n run over integral m, n with coordinates bounded by
    max_param; projectively equal solutions are reported once.  With
    z_norm_bound, solutions whose z has larger absolute field norm are
    skipped (the rational field uses the degree-two norm u -> u^2).
    """
    field = eq.field
    box = range(-max_param, max_param + 1)
    if field.is_rational:
        slopes = ((m, 0, n, 0) for m, n in itertools.product(range(max_param + 1), box))
    else:
        slopes = itertools.product(box, repeat=4)
    seen = set()
    for mu, mv, nu, nv in slopes:
        m, n = field.element(mu, mv), field.element(nu, nv)
        sol = primitive_param(eq, base, m, n)
        if sol is None:
            continue
        if z_norm_bound is not None and abs(sol.z.norm()) > z_norm_bound:
            continue
        key = canonical_solution(sol)
        if key in seen:
            continue
        seen.add(key)
        assert verify(eq, sol)
        yield sol


def solutions_cover(
    eq: ConicEquation, base: SolutionTriple, target: SolutionTriple, max_param: int
) -> bool:
    """True when some slope in the box reproduces the target projectively."""
    want = canonical_solution(target)
    for sol in enumerate_solutions(eq, base, max_param):
        if canonical_solution(sol) == want:
            return True
    return False
