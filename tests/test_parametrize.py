import math
import random

import pytest

from conic_nf.descent import SolutionTriple, solve_conic, verify
from conic_nf.errors import BaseDegenerate
from conic_nf.fields import FieldElement, make_field, parse_element
from conic_nf.parametrize import (
    canonical_solution,
    enumerate_solutions,
    param_solution,
    primitive_param,
    solutions_cover,
)
from conic_nf.solvability import ConicEquation

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)


def _eq(field, a, b, c):
    return ConicEquation(field.element(a), field.element(b), field.element(c))


def test_param_solution_satisfies_equation():
    eq = _eq(Q, 1, 1, -1)
    base = SolutionTriple(Q.element(3), Q.element(4), Q.element(5))
    rng = random.Random(7)
    for _ in range(40):
        m = Q.element(rng.randint(-9, 9))
        n = Q.element(rng.randint(-9, 9))
        if m.is_zero and n.is_zero:
            continue
        sol = param_solution(eq, base, m, n)
        assert eq.evaluate(sol.x, sol.y, sol.z).is_zero


def test_param_solution_requires_nonzero_z():
    eq = _eq(Q, 1, -1, 1)
    base = SolutionTriple(Q.element(1), Q.element(1), Q.element(0))
    with pytest.raises(BaseDegenerate):
        param_solution(eq, base, Q.element(1), Q.element(0))


def test_param_solution_known_values():
    # x^2 + y^2 = z^2 through (1, 0, 1): slope (m, n) gives
    # (m^2 - n^2, -2mn, n^2 + m^2), the classical parameterisation.
    eq = _eq(Q, 1, 1, -1)
    base = SolutionTriple(Q.element(1), Q.element(0), Q.element(1))
    sol = param_solution(eq, base, Q.element(2), Q.element(1))
    assert (sol.x.u, sol.y.u, sol.z.u) == (3, -4, 5)
    sol = param_solution(eq, base, Q.element(3), Q.element(2))
    assert (sol.x.u, sol.y.u, sol.z.u) == (5, -12, 13)


def test_primitive_param_strips_content():
    eq = _eq(Q, 1, 1, -1)
    base = SolutionTriple(Q.element(1), Q.element(0), Q.element(1))
    # (m, n) = (3, 1) gives (8, -6, 10); primitive form is (4, -3, 5).
    sol = primitive_param(eq, base, Q.element(3), Q.element(1))
    assert sorted([abs(sol.x.u), abs(sol.y.u)]) == [3, 4]
    assert abs(sol.z.u) == 5
    ints = [sol.x.u, sol.y.u, sol.z.u]
    assert math.gcd(*(int(t) for t in ints)) == 1


def test_param_solution_quadratic_field():
    # 3x^2 + 2y^2 + 13z^2 = 0 over Q(sqrt(-7)) through (sqrt(-7), 2, 1).
    eq = _eq(Q7, 3, 2, 13)
    base = SolutionTriple(Q7.sqrt_gen(), Q7.element(2), Q7.element(1))
    assert verify(eq, base)
    rng = random.Random(11)
    for _ in range(25):
        m = Q7.element(rng.randint(-4, 4), rng.randint(-4, 4))
        n = Q7.element(rng.randint(-4, 4), rng.randint(-4, 4))
        if m.is_zero and n.is_zero:
            continue
        sol = param_solution(eq, base, m, n)
        assert eq.evaluate(sol.x, sol.y, sol.z).is_zero
        psol = primitive_param(eq, base, m, n)
        if psol is not None:
            assert verify(eq, psol)


def test_enumerate_pythagorean_hypotenuse_count():
    # Primitive Pythagorean triples with hypotenuse at most 100, counted up
    # to swapping the legs and flipping signs: the classical answer is 16.
    eq = _eq(Q, 1, 1, -1)
    base = SolutionTriple(Q.element(1), Q.element(0), Q.element(1))
    classes = set()
    for sol in enumerate_solutions(eq, base, 12, z_norm_bound=100 * 100):
        if sol.x.is_zero or sol.y.is_zero:
            continue
        legs = tuple(sorted([abs(int(sol.x.u)), abs(int(sol.y.u))]))
        classes.add(legs + (abs(int(sol.z.u)),))
    assert len(classes) == 16
    assert (3, 4, 5) in classes and (65, 72, 97) in classes


def test_enumerate_dedups_projective_classes():
    eq = _eq(Q, 1, 1, -1)
    base = SolutionTriple(Q.element(1), Q.element(0), Q.element(1))
    sols = list(enumerate_solutions(eq, base, 5))
    keys = [canonical_solution(s) for s in sols]
    assert len(keys) == len(set(keys))
    for s in sols:
        assert verify(eq, s)


def test_solutions_cover_solver_output():
    # The slope sweep through one solution recovers another known one.
    eq = _eq(Q, 1, 1, -2)
    base = SolutionTriple(Q.element(1), Q.element(1), Q.element(1))
    target = SolutionTriple(Q.element(-7), Q.element(1), Q.element(5))
    assert verify(eq, target)
    assert solutions_cover(eq, base, target, 8)
    # The slopes of the box with coordinates up to 2 miss it.
    assert not solutions_cover(eq, base, target, 2)


def test_enumerate_over_quadratic_field():
    eq = _eq(Q7, 3, 2, 13)
    sol0 = solve_conic(eq)
    base = sol0 if not sol0.z.is_zero else SolutionTriple(sol0.z, sol0.y, sol0.x)
    count = 0
    for sol in enumerate_solutions(eq, base, 1):
        assert verify(eq, sol)
        count += 1
    assert count >= 5


def test_enumerate_builds_slopes_lazily(monkeypatch):
    # The first solution comes before the slope box is built: over Q(sqrt(-7))
    # at max_param 6 a list of slopes would make 2 * 13^4 elements first.
    eq = _eq(Q7, 1, 1, -2)
    base = SolutionTriple(Q7.one(), Q7.one(), Q7.one())
    built = [0]
    init = FieldElement.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    first = next(enumerate_solutions(eq, base, 6))
    assert verify(eq, first)
    assert built[0] < 100


def _proportional(p, q):
    """True when the triples p and q are projectively equal: every 2x2 minor
    of the matrix with rows p and q vanishes."""
    rows = [(p.x, q.x), (p.y, q.y), (p.z, q.z)]
    return all((a * d - b * c).is_zero for i, (a, b) in enumerate(rows) for c, d in rows[i + 1 :])


# Over real fields a unit of infinite order, and over non-PID fields a scalar
# that is no unit, can relate the points of two slopes: each projective
# point is still listed once, and count is the number of such points.
@pytest.mark.parametrize(
    "d, coeffs, point, max_param, count",
    [
        (2, "1;1;-3-2s", "1+s;0;1", 1, 24),
        (2, "1;1;-3-2s", "1+s;0;1", 2, 148),
        (5, "1;1;-2", "1;1;1", 1, 16),
        (3, "1;1;-2", "1;1;1", 1, 28),
        (-5, "1;1;-2", "1;1;1", 2, 224),
        (-6, "1;1;-2", "1;1;1", 2, 224),
    ],
)
def test_enumerate_lists_each_projective_point_once(d, coeffs, point, max_param, count):
    K = make_field(d)
    eq = ConicEquation(*(parse_element(K, t) for t in coeffs.split(";")))
    base = SolutionTriple(*(parse_element(K, t) for t in point.split(";")))
    sols = list(enumerate_solutions(eq, base, max_param))
    for i, p in enumerate(sols):
        assert not any(_proportional(p, q) for q in sols[i + 1 :])
    assert len(sols) == count
