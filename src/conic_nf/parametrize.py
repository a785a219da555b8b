"""Slope parameterisation of all solutions of a*x^2 + b*y^2 + c*z^2 = 0.

Lines of varying slope through a base point (a0, b0, g0) with g0 != 0 sweep
out every other solution; clearing denominators turns the slope t = m/n
into the polynomial formulas below.  Over the Euclidean fields the common
divisor D_{m,n} can be removed to reach primitive integral solutions.
Points are listed once per projective point over K, on every field: two
triples that differ by a factor in K* are one point.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from math import gcd as _int_gcd

from .errors import BaseDegenerate
from .descent import SolutionTriple, verify
from .fields import FieldElement, gcd_elems
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
    a, b = eq.a, eq.b
    a0, b0, g0 = base.x, base.y, base.z
    x = (b * m * m - a * n * n) * a0 - 2 * b * m * n * b0
    y = -(2 * a * m * n * a0) + b0 * (a * n * n - b * m * m)
    z = g0 * (a * n * n + b * m * m)
    return SolutionTriple(x, y, z)


def primitive_param(
    eq: ConicEquation,
    base: SolutionTriple,
    m: FieldElement,
    n: FieldElement,
) -> Optional[SolutionTriple]:
    """The slope solution divided by its coordinate gcd, or None if trivial.

    Full primitivity needs gcds, so outside the norm-Euclidean fields only
    the rational integer content is removed.
    """
    sol = param_solution(eq, base, m, n)
    if sol.is_trivial:
        return None
    triple = (sol.x, sol.y, sol.z)
    if sol.x.field.euclidean:
        g = gcd_elems(triple)
    else:
        g = sol.x.field.element(_int_gcd(*(q for t in triple for q in t.num)))
    return SolutionTriple(sol.x / g, sol.y / g, sol.z / g)


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
