import math
import random
from fractions import Fraction

import pytest

from conic_nf.descent import SolutionTriple, solve_conic, verify
from conic_nf import holzer
from conic_nf.errors import PreconditionViolated, UnsupportedField
from conic_nf.fields import make_field
from conic_nf.holzer import bound_constant_sq, is_reduced, reduce_solution, xgcd
from conic_nf.solvability import ConicEquation, check_solvable

Q = make_field()
QI = make_field(-1)
Q2 = make_field(-2)
Q7 = make_field(-7)
Q14 = make_field(14)


def _eq(field, a, b, c):
    return ConicEquation(field.element(a), field.element(b), field.element(c))


def test_xgcd_identity():
    rng = random.Random(3)
    for field in (Q, QI, Q7):
        for _ in range(30):
            a = field.element(
                rng.randint(-40, 40), 0 if field.is_rational else rng.randint(-40, 40)
            )
            b = field.element(
                rng.randint(-40, 40), 0 if field.is_rational else rng.randint(-40, 40)
            )
            if a.is_zero and b.is_zero:
                continue
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            if not a.is_zero:
                assert (a / g).is_integral
            if not b.is_zero:
                assert (b / g).is_integral


def test_bound_constant_values():
    assert bound_constant_sq(Q) == 1
    assert bound_constant_sq(QI) == 2
    assert bound_constant_sq(Q2) == 4
    assert bound_constant_sq(make_field(-3)) == pytest.approx(1.5)
    assert bound_constant_sq(Q7) * 3 == 7
    assert bound_constant_sq(make_field(-11)) * 2 == 11
    with pytest.raises(UnsupportedField):
        bound_constant_sq(Q14)


def test_reduce_rational_classic():
    # x^2 + y^2 - 5z^2 = 0 with a large starting solution; the bound forces
    # z^2 <= 1, i.e. one of the fundamental points like (1, 2, 1).
    eq = _eq(Q, 1, 1, -5)
    big = SolutionTriple(Q.element(41), Q.element(38), Q.element(25))
    assert verify(eq, big)
    red = reduce_solution(eq, big)
    assert verify(eq, red)
    assert is_reduced(eq, red)
    assert red.z.norm() <= 1


def test_reduce_rational_keeps_already_reduced():
    eq = _eq(Q, 1, 1, -2)
    sol = SolutionTriple(Q.element(1), Q.element(1), Q.element(1))
    red = reduce_solution(eq, sol)
    assert is_reduced(eq, red)
    assert abs(red.z.u) == 1


def test_reduce_requires_solution():
    eq = _eq(Q, 1, 1, -2)
    with pytest.raises(PreconditionViolated):
        reduce_solution(eq, SolutionTriple(Q.element(1), Q.element(2), Q.element(3)))


# Starts on x^2 + y^2 - 2z^2 = 0 and the precondition each one fails: a
# start that is not a solution is reported as such before its integrality.
@pytest.mark.parametrize(
    "start, message",
    [
        ((1, 2, 3), "starting point is not a solution"),
        ((0, 0, 0), "starting point is not a solution"),
        ((Fraction(1, 2), 1, 1), "starting point is not a solution"),
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), "starting solution must be integral"),
    ],
)
def test_reduce_precondition_messages(start, message):
    eq = _eq(Q, 1, 1, -2)
    with pytest.raises(PreconditionViolated) as raised:
        reduce_solution(eq, SolutionTriple(*map(Q.element, start)))
    assert str(raised.value) == message


def test_reduce_solver_output_rational():
    rng = random.Random(19)
    done = 0
    while done < 15:
        a = rng.randint(1, 12)
        b = rng.randint(1, 12)
        c = -rng.randint(1, 20)
        eq = _eq(Q, a, b, c)
        if not check_solvable(eq).solvable:
            continue
        sol = solve_conic(eq)
        red = reduce_solution(eq, sol)
        assert verify(eq, red)
        assert is_reduced(eq, red)
        done += 1


def test_reduce_over_gaussian_field():
    # x^2 + y^2 + (2 + i) z^2 = 0 over Q(i) from a deliberately blown-up
    # starting solution.
    eq = ConicEquation(QI.element(1), QI.element(1), QI.element(2, 1))
    base = solve_conic(eq)
    k = QI.element(3, 2)
    big = SolutionTriple(base.x * k, base.y * k, base.z * k)
    red = reduce_solution(eq, big)
    assert verify(eq, red)
    assert is_reduced(eq, red)
    # N(z)^2 <= 2 * |N(a)*N(b)| = 2 here.
    assert red.z.norm() ** 2 <= 2


def test_reduce_known_field_example():
    # 3x^2 + 2y^2 + 13z^2 = 0 over Q(sqrt(-7)): (sqrt(-7), 2, 1) is already
    # minimal, and scaled copies reduce back to a minimal one.
    eq = _eq(Q7, 3, 2, 13)
    base = SolutionTriple(Q7.sqrt_gen(), Q7.element(2), Q7.element(1))
    assert is_reduced(eq, base)
    k = Q7.element(1, 2)
    big = SolutionTriple(base.x * k, base.y * k, base.z * k)
    red = reduce_solution(eq, big)
    assert verify(eq, red)
    assert is_reduced(eq, red)


def test_reduce_random_imaginary_fields():
    rng = random.Random(41)
    done = 0
    for field in (QI, Q2, Q7):
        trials = 0
        while done < 3 * (1 + [QI, Q2, Q7].index(field)) and trials < 200:
            trials += 1
            x = field.element(rng.randint(-5, 5), rng.randint(-2, 2))
            y = field.element(rng.randint(-5, 5), rng.randint(-2, 2))
            z = field.element(rng.randint(1, 5), rng.randint(-2, 2))
            a = field.element(rng.randint(1, 6))
            b = field.element(rng.randint(1, 6))
            if x.is_zero or y.is_zero or z.is_zero:
                continue
            # Build c so the triple is a solution with integral c.
            num = -(a * x * x + b * y * y)
            den = z * z
            c = num / den
            if not c.is_integral or c.is_zero:
                continue
            eq = ConicEquation(a, b, c)
            sol = SolutionTriple(x, y, z)
            assert verify(eq, sol)
            red = reduce_solution(eq, sol)
            assert verify(eq, red)
            assert is_reduced(eq, red)
            done += 1
    assert done >= 9


# (d, (a, b, c), start, reduced point), every element a (u, v) pair over
# {1, w}: four starts over Q and each Euclidean imaginary field, drawn on
# lines through small points with directions of height up to 10^4 over Q and
# 10^2 over the fields, and the points reduce_solution returns for them.
# Pins the lattice step: its basis, the order of the reduced rows and the
# tie-break among points of equal N(z).
GOLDEN = [
    (None, ((19, 0), (22, 0), (-1267, 0)), ((-235008797535, 0), (441792293414, 0), (64940766131, 0)), ((5, 0), (-6, 0), (1, 0))),
    (None, ((17, 0), (2, 0), (-433, 0)), ((46314705772, 0), (18460195520, 0), (9262335404, 0)), ((-5, 0), (-2, 0), (1, 0))),
    (None, ((-1, 0), (19, 0), (-170, 0)), ((-3904897786, 0), (13173594622, 0), (4393899570, 0)), ((1, 0), (-3, 0), (1, 0))),
    (None, ((14, 0), (-11, 0), (-251, 0)), ((7697334995, 0), (7461707927, 0), (929887941, 0)), ((-5, 0), (-3, 0), (1, 0))),
    (-1, ((-2, -4), (3, -1), (102, -26)), ((470232, 180308), (-419452, 26856), (-46250, -112598)), ((3, 3), (-3, -1), (0, 1))),
    # -1 times the point before the O_K pre-reduction of the lattice step.
    (-1, ((-2, 2), (-3, 3), (43, 29)), ((-169616, 302120), (-2048, -323592), (-52456, -102064)), ((7, 0), (1, -6), (0, 1))),
    (-1, ((3, 2), (3, -4), (9, 12)), ((22821, -18378), (6471, 42207), (7797, -19296)), ((11, -8), (1, -11), (-1, -2))),
    (-1, ((2, 0), (-3, -1), (3, 15)), ((-33702, 21532), (21968, -24610), (2590, 6676)), ((4, -1), (3, -2), (0, -1))),
    (-2, ((0, 1), (1, 4), (42, 71)), ((-209006, -277869), (-745622, -450898), (170102, -108309)), ((-3, -2), (0, -3), (-1, 0))),
    (-2, ((-3, 4), (2, -3), (-102, -34)), ((-128754, 218629), (-51920, 243715), (-57119, -3466)), ((-2, 3), (0, 3), (1, 0))),
    (-2, ((-4, 1), (3, 3), (-57, 6)), ((95976, 17811), (-85968, 17451), (-6714, -7605)), ((-3, -9), (-9, -5), (1, 0))),
    (-2, ((0, 3), (4, -1), (80, 4)), ((24256, -4555), (2878, 33605), (-10184, 3071)), ((1, 0), (-1, 3), (1, 0))),
    # -w times the point before the O_K pre-reduction of the lattice step.
    (-3, ((1, 3), (2, 3), (34, -51)), ((402272, -100616), (114400, 63800), (-125256, 74712)), ((4, -2), (1, -1), (1, -1))),
    (-3, ((-3, 2), (4, -1), (20, -75)), ((-5059, -12984), (38373, -37113), (-3167, 10478)), ((3, 2), (3, 3), (1, 0))),
    # w - 1 times the point before the O_K pre-reduction of the lattice step.
    (-3, ((4, 0), (-2, 2), (-36, 18)), ((-4596, -23364), (30996, -10128), (-620, 11820)), ((0, -3), (3, -3), (0, -1))),
    (-3, ((3, 4), (1, -4), (-52, 43)), ((-6220, -13220), (13872, 11856), (908, 2040)), ((-1, 0), (2, -4), (0, 1))),
    (-7, ((2, -2), (2, -4), (-64, -12)), ((-376908, 37954), (84264, -37628), (-66492, 43034)), ((2, 3), (-2, 0), (1, 0))),
    (-7, ((-3, 4), (4, -2), (28, 20)), ((17718, -30742), (376695, -46319), (-52243, -53732)), ((2, -2), (3, -3), (1, 0))),
    (-7, ((2, -3), (-3, 4), (-32, -6)), ((166862, -78205), (-8202, -39033), (-27374, 44461)), ((-1, -2), (0, 1), (-1, 0))),
    (-7, ((3, 4), (1, -1), (-25, -33)), ((-67114, -31536), (-4371, -139477), (35727, 10698)), ((-2, 0), (-1, -3), (-1, 0))),
    (-11, ((-4, -2), (-2, -4), (-42, -120)), ((602126, 42538), (-256540, -92000), (34200, -67986)), ((-2, 3), (2, -2), (-1, 0))),
    (-11, ((2, 3), (3, 3), (-48, -12)), ((-491958, 207945), (233101, -218227), (-193840, 70021)), ((3, 0), (-2, 1), (-1, 0))),
    (-11, ((3, -3), (-1, 2), (9, 36)), ((68625, 31886), (-104325, -12351), (-2077, 15836)), ((-3, 2), (3, -3), (1, 0))),
    (-11, ((-4, -2), (-2, 0), (-64, 42)), ((65224, -1560), (88664, 62600), (-29568, 8296)), ((0, 1), (2, 3), (1, 0))),
]


# Rational rows: the 31 STALLED starts of perfbench/workloads.py (tangent
# descent stalls, heights up to 10^4), then two starts per decade of height
# 10^0 to 10^12 on lines through small points of conics with squarefree,
# pairwise coprime a, b, c.  The points are those the integer-pair step
# (IntegerRing over Q) returned, before the step ran on plain ints.
GOLDEN_Q = [
    (None, ((1, 0), (3, 0), (-7, 0)), ((5, 0), (-1, 0), (2, 0)), ((2, 0), (-1, 0), (1, 0))),
    (None, ((-7, 0), (-19, 0), (691, 0)), ((-4319, 0), (-7254, 0), (-1279, 0)), ((1, 0), (6, 0), (-1, 0))),
    (None, ((-13, 0), (-23, 0), (209, 0)), ((31, 0), (49, 0), (-18, 0)), ((-3, 0), (-2, 0), (-1, 0))),
    (None, ((11, 0), (21, 0), (-65, 0)), ((11, 0), (-27, 0), (16, 0)), ((-2, 0), (1, 0), (1, 0))),
    (None, ((29, 0), (13, 0), (-42, 0)), ((157, 0), (347, 0), (233, 0)), ((1, 0), (1, 0), (1, 0))),
    (None, ((19, 0), (13, 0), (-683, 0)), ((67, 0), (83, 0), (16, 0)), ((-5, 0), (-4, 0), (1, 0))),
    (None, ((-21, 0), (-1, 0), (1, 0)), ((1, 0), (-2, 0), (-5, 0)), ((0, 0), (-1, 0), (-1, 0))),
    (None, ((-23, 0), (-11, 0), (419, 0)), ((60, 0), (59, 0), (-17, 0)), ((1, 0), (6, 0), (-1, 0))),
    (None, ((-3, 0), (-1, 0), (7, 0)), ((-83, 0), (79, 0), (-62, 0)), ((1, 0), (-2, 0), (-1, 0))),
    (None, ((21, 0), (1, 0), (-541, 0)), ((-62, 0), (-275, 0), (17, 0)), ((-5, 0), (4, 0), (1, 0))),
    (None, ((-19, 0), (-21, 0), (829, 0)), ((101, 0), (-81, 0), (-20, 0)), ((-4, 0), (5, 0), (-1, 0))),
    (None, ((11, 0), (7, 0), (-527, 0)), ((-271, 0), (-4734, 0), (547, 0)), ((5, 0), (6, 0), (1, 0))),
    (None, ((17, 0), (7, 0), (-265, 0)), ((1103, 0), (-1621, 0), (384, 0)), ((-3, 0), (4, 0), (1, 0))),
    (None, ((-29, 0), (-23, 0), (1619, 0)), ((-2118, 0), (4711, 0), (-629, 0)), ((6, 0), (-5, 0), (-1, 0))),
    (None, ((-11, 0), (-15, 0), (71, 0)), ((28, 0), (-15, 0), (-13, 0)), ((-1, 0), (2, 0), (-1, 0))),
    (None, ((-15, 0), (-29, 0), (491, 0)), ((-791, 0), (862, 0), (-251, 0)), ((5, 0), (-2, 0), (-1, 0))),
    (None, ((-29, 0), (-19, 0), (713, 0)), ((-3029, 0), (-1062, 0), (-635, 0)), ((1, 0), (-6, 0), (-1, 0))),
    (None, ((13, 0), (19, 0), (-193, 0)), ((1573, 0), (1203, 0), (556, 0)), ((-3, 0), (-2, 0), (1, 0))),
    (None, ((17, 0), (21, 0), (-446, 0)), ((11, 0), (-87, 0), (19, 0)), ((-5, 0), (1, 0), (1, 0))),
    (None, ((-23, 0), (-15, 0), (38, 0)), ((-11, 0), (27, 0), (-19, 0)), ((-1, 0), (1, 0), (-1, 0))),
    (None, ((-17, 0), (-15, 0), (203, 0)), ((253, 0), (75, 0), (-76, 0)), ((2, 0), (-3, 0), (-1, 0))),
    (None, ((-11, 0), (-23, 0), (674, 0)), ((891, 0), (-1211, 0), (-251, 0)), ((-3, 0), (5, 0), (-1, 0))),
    (None, ((-15, 0), (-23, 0), (158, 0)), ((99, 0), (-191, 0), (-79, 0)), ((-3, 0), (-1, 0), (-1, 0))),
    (None, ((-23, 0), (-17, 0), (385, 0)), ((-16228, 0), (-5953, 0), (-4159, 0)), ((4, 0), (1, 0), (-1, 0))),
    (None, ((-11, 0), (-23, 0), (199, 0)), ((-221, 0), (-94, 0), (-61, 0)), ((4, 0), (1, 0), (-1, 0))),
    (None, ((-13, 0), (-19, 0), (527, 0)), ((-127, 0), (473, 0), (-92, 0)), ((2, 0), (-5, 0), (-1, 0))),
    (None, ((-17, 0), (-29, 0), (301, 0)), ((-4549, 0), (1346, 0), (-1159, 0)), ((4, 0), (-1, 0), (-1, 0))),
    (None, ((3, 0), (7, 0), (-202, 0)), ((-29, 0), (-19, 0), (5, 0)), ((3, 0), (5, 0), (1, 0))),
    (None, ((7, 0), (15, 0), (-247, 0)), ((-116, 0), (277, 0), (71, 0)), ((1, 0), (-4, 0), (1, 0))),
    (None, ((13, 0), (21, 0), (-1081, 0)), ((827, 0), (1602, 0), (241, 0)), ((-5, 0), (-6, 0), (1, 0))),
    (None, ((-19, 0), (-23, 0), (1303, 0)), ((884, 0), (279, 0), (-113, 0)), ((5, 0), (-6, 0), (-1, 0))),
    (None, ((13, 0), (34, 0), (-149, 0)), ((841701418722, 0), (2969598088224, 0), (1440170180118, 0)), ((-1, 0), (-2, 0), (1, 0))),
    (None, ((11, 0), (19, 0), (-182, 0)), ((-64421, 0), (90657, 0), (33299, 0)), ((1, 0), (-3, 0), (1, 0))),
    (None, ((23, 0), (19, 0), (-707, 0)), ((89325358304, 0), (390548902926, 0), (66019990946, 0)), ((-1, 0), (-6, 0), (1, 0))),
    (None, ((-23, 0), (29, 0), (111, 0)), ((-34236, 0), (29754, 0), (-3402, 0)), ((110, 0), (97, 0), (7, 0))),
    (None, ((2, 0), (-19, 0), (163, 0)), ((19457342, 0), (33831417, 0), (-11347699, 0)), ((-2, 0), (-3, 0), (-1, 0))),
    (None, ((31, 0), (-7, 0), (-523, 0)), ((35, 0), (-42, 0), (-7, 0)), ((5, 0), (-6, 0), (-1, 0))),
    (None, ((-1, 0), (-10, 0), (251, 0)), ((-421773338111, 0), (3516829433875, 0), (-702468003889, 0)), ((-1, 0), (-5, 0), (-1, 0))),
    (None, ((15, 0), (-14, 0), (-151, 0)), ((-14119171, 0), (-14080636, 0), (1192039, 0)), ((5, 0), (4, 0), (1, 0))),
    (None, ((6, 0), (-5, 0), (29, 0)), ((1172464, 0), (2675272, 0), (-974456, 0)), ((6, 0), (-7, 0), (-1, 0))),
    (None, ((21, 0), (-11, 0), (-178, 0)), ((-1297, 0), (-1619, 0), (-191, 0)), ((-3, 0), (1, 0), (-1, 0))),
    (None, ((-31, 0), (-22, 0), (119, 0)), ((-352317697, 0), (-688580866, 0), (-346399487, 0)), ((1, 0), (-2, 0), (-1, 0))),
    (None, ((23, 0), (38, 0), (-1157, 0)), ((-48333611652, 0), (16216073204, 0), (7421364980, 0)), ((-3, 0), (-5, 0), (1, 0))),
    (None, ((-21, 0), (-22, 0), (877, 0)), ((-1499571, 0), (-1638666, 0), (-348147, 0)), ((5, 0), (4, 0), (-1, 0))),
    (None, ((-2, 0), (-3, 0), (77, 0)), ((-65885, 0), (-162297, 0), (-33749, 0)), ((1, 0), (5, 0), (-1, 0))),
    (None, ((11, 0), (15, 0), (-251, 0)), ((4624, 0), (2432, 0), (1136, 0)), ((1, 0), (-4, 0), (1, 0))),
    (None, ((-19, 0), (-11, 0), (30, 0)), ((7255224, 0), (-119581704, 0), (-72640152, 0)), ((1, 0), (1, 0), (-1, 0))),
    (None, ((-10, 0), (33, 0), (7, 0)), ((11035824800, 0), (-2799086675, 0), (11706793175, 0)), ((2, 0), (-1, 0), (-1, 0))),
    (None, ((11, 0), (-1, 0), (-395, 0)), ((118214, 0), (259431, 0), (14791, 0)), ((-6, 0), (-1, 0), (1, 0))),
    (None, ((17, 0), (-5, 0), (-267, 0)), ((-5545191068, 0), (-1967242241, 0), (1373076097, 0)), ((4, 0), (-1, 0), (1, 0))),
    (None, ((-19, 0), (2, 0), (-13, 0)), ((115, 0), (-772, 0), (269, 0)), ((1, 0), (4, 0), (1, 0))),
    (None, ((33, 0), (17, 0), (-149, 0)), ((-60107505674, 0), (-170522413148, 0), (64169986682, 0)), ((2, 0), (1, 0), (1, 0))),
    (None, ((6, 0), (-37, 0), (13, 0)), ((-3685230328, 0), (1554302074, 0), (779600354, 0)), ((72, 0), (29, 0), (-1, 0))),
    (None, ((-2, 0), (-35, 0), (37, 0)), ((790, 0), (50, 0), (-190, 0)), ((-1, 0), (1, 0), (-1, 0))),
    (None, ((7, 0), (22, 0), (-373, 0)), ((35, 0), (21, 0), (7, 0)), ((5, 0), (3, 0), (1, 0))),
    (None, ((-2, 0), (1, 0), (1, 0)), ((2, 0), (2, 0), (2, 0)), ((1, 0), (1, 0), (1, 0))),
    (None, ((-6, 0), (5, 0), (1, 0)), ((6, 0), (6, 0), (-6, 0)), ((1, 0), (1, 0), (-1, 0))),
]


@pytest.mark.parametrize("d, coeffs, start, expected", GOLDEN + GOLDEN_Q)
def test_reduce_solution_golden_points(d, coeffs, start, expected):
    field = make_field(d)
    eq = ConicEquation(*(field.element(*t) for t in coeffs))
    red = reduce_solution(eq, SolutionTriple(*(field.element(*t) for t in start)))
    assert tuple((t.u, t.v) for t in (red.x, red.y, red.z)) == expected
    assert is_reduced(eq, red)


def test_reduce_checks_the_bound_once_per_step(monkeypatch):
    calls = []

    def counting(eq, sol):
        calls.append(sol)
        return is_reduced(eq, sol)

    monkeypatch.setattr(holzer, "is_reduced", counting)
    eq = _eq(Q, 1, 1, -5)
    red = reduce_solution(eq, SolutionTriple(Q.element(41), Q.element(38), Q.element(25)))
    # One check per point visited: the primitive start, then one per step,
    # each on the step's kernel point (ints over Q).
    assert len(calls) >= 2 and calls[-1] == tuple(t.num[0] for t in (red.x, red.y, red.z))
    assert [abs(s[2]) for s in calls] == sorted((abs(s[2]) for s in calls), reverse=True)


def test_lattice_step_searches_the_row_combinations_when_no_row_shrinks(monkeypatch):
    # -8x^2 - y^2 + 2881z^2 = 0 from (1, -161, -3): z^2 = 9 > |ab| = 8, and
    # the second points of both reduced rows have N(z) = 9 again, so the
    # step takes the least among the rows' {-1, 0, 1} combinations.
    from conic_nf.fields import INTS

    coeffs, start = (-8, -1, 2881), (1, -161, -3)
    points, combined = [], []
    second_point, combine = holzer._second_point, holzer.combine

    def recorded(*args):
        # The bound drops a point that cannot win; record each row's point
        # without it.
        points.append(second_point(*args[:5]))
        return second_point(*args)

    def counted(*args):
        combined.append(args)
        return combine(*args)

    monkeypatch.setattr(holzer, "_second_point", recorded)
    monkeypatch.setattr(holzer, "combine", counted)
    assert holzer._lattice_step(INTS, coeffs, start) == (18, 17, -1)
    # Over Q the lattice has rank 2: two rows, then their 4 combinations.
    assert [abs(p[2]) for p in points[:2]] == [3, 3] and len(combined) == 4
    eq = _eq(Q, *coeffs)
    red = reduce_solution(eq, SolutionTriple(*(Q.element(t) for t in start)))
    assert (red.x, red.y, red.z) == (18, 17, -1) and is_reduced(eq, red)


def test_lattice_step_skips_the_gcd_of_points_that_cannot_win(monkeypatch):
    # Over an imaginary field a second point whose bound
    # N(q)/gcd(N(x), N(y), N(q)) is no less than the best N(z) so far takes no
    # gcd in O_K; with the bound dropped every point takes one, and the
    # reductions end at the same points.
    from conic_nf.fields import IntegerRing

    calls, gcd = [0], IntegerRing.gcd

    def counted(self, xs):
        calls[0] += 1
        return gcd(self, xs)

    def reduced():
        calls[0] = 0
        points = []
        for d, coeffs, start, _ in (r for r in GOLDEN if r[0] is not None):
            field = make_field(d)
            eq = ConicEquation(*(field.element(*t) for t in coeffs))
            red = reduce_solution(eq, SolutionTriple(*(field.element(*t) for t in start)))
            points.append((red.x, red.y, red.z))
        return points, calls[0]

    monkeypatch.setattr(IntegerRing, "gcd", counted)
    points, gcds = reduced()
    second_point = holzer._second_point
    monkeypatch.setattr(holzer, "_second_point", lambda *args: second_point(*args[:5]))
    full_points, full_gcds = reduced()
    assert full_points == points and gcds < full_gcds


def test_reduce_does_not_stall_above_holzer_bound():
    # (2, 1, 1) solves x^2 + 3y^2 - 7z^2 = 0 with z^2 = 1 <= |ab| = 3.
    eq = _eq(Q, 1, 3, -7)
    red = reduce_solution(eq, SolutionTriple(Q.element(5), Q.element(-1), Q.element(2)))
    assert verify(eq, red) and red.z.norm() ** 2 <= 3


# Rational starts ((a, b, c), (x, y, z)) from which a tangent descent stalled
# one step above Holzer's bound, though Holzer's theorem gives a solution
# with z^2 <= |ab|; the last one stalled at (91, 53, 16), 16^2 = 256 > 247.
STALLED = [
    ((1, 3, -7), (5, -1, 2)),
    ((-7, -19, 691), (-4319, -7254, -1279)),
    ((-13, -23, 209), (31, 49, -18)),
    ((11, 21, -65), (11, -27, 16)),
    ((29, 13, -42), (157, 347, 233)),
    ((19, 13, -683), (67, 83, 16)),
    ((-21, -1, 1), (1, -2, -5)),
    ((-23, -11, 419), (60, 59, -17)),
    ((-3, -1, 7), (-83, 79, -62)),
    ((21, 1, -541), (-62, -275, 17)),
    ((-19, -21, 829), (101, -81, -20)),
    ((11, 7, -527), (-271, -4734, 547)),
    ((17, 7, -265), (1103, -1621, 384)),
    ((-29, -23, 1619), (-2118, 4711, -629)),
    ((-11, -15, 71), (28, -15, -13)),
    ((-15, -29, 491), (-791, 862, -251)),
    ((-29, -19, 713), (-3029, -1062, -635)),
    ((13, 19, -193), (1573, 1203, 556)),
    ((17, 21, -446), (11, -87, 19)),
    ((-23, -15, 38), (-11, 27, -19)),
    ((-17, -15, 203), (253, 75, -76)),
    ((-11, -23, 674), (891, -1211, -251)),
    ((-15, -23, 158), (99, -191, -79)),
    ((-23, -17, 385), (-16228, -5953, -4159)),
    ((-11, -23, 199), (-221, -94, -61)),
    ((-13, -19, 527), (-127, 473, -92)),
    ((-17, -29, 301), (-4549, 1346, -1159)),
    ((3, 7, -202), (-29, -19, 5)),
    ((7, 15, -247), (-116, 277, 71)),
    ((13, 21, -1081), (827, 1602, 241)),
    ((-19, -23, 1303), (884, 279, -113)),
    ((-13, -19, 629), (91, 53, 16)),
]


@pytest.mark.parametrize("coeffs, start", STALLED)
def test_reduce_reaches_the_bound_from_stalled_starts(coeffs, start):
    eq = _eq(Q, *coeffs)
    red = reduce_solution(eq, SolutionTriple(*map(Q.element, start)))
    assert verify(eq, red) and is_reduced(eq, red)
    assert red.z.norm() ** 2 <= abs(coeffs[0] * coeffs[1])


def _squarefree(n):
    n = abs(n)
    return n > 0 and all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def _line_start(eq, point, dirn):
    """The second point of the conic on the line through point along dirn,
    or None when that line is tangent or meets the conic again at z = 0."""
    a, b, c = eq.a, eq.b, eq.c
    q = eq.evaluate(*dirn)
    bil = a * point[0] * dirn[0] + b * point[1] * dirn[1] + c * point[2] * dirn[2]
    if q.is_zero:
        return None
    start = SolutionTriple(*(q * p - 2 * bil * t for p, t in zip(point, dirn)))
    return None if start.z.is_zero else start


def test_reduce_sweep_rational_holzer_hypotheses():
    # a, b, c squarefree and pairwise coprime, starts on lines of height up
    # to 10^4 through a small point: each reduces to z^2 <= |ab|.
    rng = random.Random(2003)
    done = 0
    while done < 2000:
        a = rng.choice((-1, 1)) * rng.randint(1, 30)
        b = rng.choice((-1, 1)) * rng.randint(1, 30)
        x0, y0 = rng.randint(-6, 6), rng.randint(-6, 6)
        c = -(a * x0 * x0 + b * y0 * y0)
        if c == 0 or not all(map(_squarefree, (a, b, c))):
            continue
        if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
            continue
        eq = _eq(Q, a, b, c)
        height = int(10 ** rng.uniform(0, 4))
        dirn = [Q.element(rng.randint(-height, height)) for _ in range(3)]
        start = _line_start(eq, tuple(map(Q.element, (x0, y0, 1))), dirn)
        if start is None:
            continue
        red = reduce_solution(eq, start)
        assert verify(eq, red) and is_reduced(eq, red), (a, b, c, start)
        done += 1


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11])
def test_reduce_sweep_euclidean_fields(d):
    # The coefficients and small points of acceptance test 6, each start
    # blown up along a line of height up to 10^2 and by a random factor.
    field = make_field(d)
    rng = random.Random(6000 - d)
    el = lambda ru, rv: field.element(rng.randint(*ru), rng.randint(*rv))
    done = 0
    while done < 300:
        a, b = el((1, 8), (-2, 2)), el((1, 8), (-2, 2))
        if a.is_zero or b.is_zero or abs(a.norm() * b.norm()) > 200:
            continue
        x, y, z = el((-6, 6), (-3, 3)), el((-6, 6), (-3, 3)), el((1, 4), (-2, 2))
        if x.is_zero or y.is_zero or z.is_zero:
            continue
        c = -(a * x * x + b * y * y) / (z * z)
        if not c.is_integral or c.is_zero:
            continue
        eq = ConicEquation(a, b, c)
        height = int(10 ** rng.uniform(0, 2))
        hv = (-height, height)
        start = _line_start(eq, (x, y, z), [el(hv, hv) for _ in range(3)])
        k = el((-9, 9), (-9, 9))
        if start is None or k.is_zero:
            continue
        red = reduce_solution(eq, SolutionTriple(*(t * k for t in (start.x, start.y, start.z))))
        assert verify(eq, red) and is_reduced(eq, red), (d, eq, start)
        done += 1


def test_lattice_step_pre_reduces_over_o_k_and_leaves_an_lll_reduced_basis(monkeypatch):
    # Seeded imaginary starts over the five Euclidean fields.  The pair that
    # the Hermitian Lagrange-Gauss loop returns spans the same O_K-lattice as
    # the step's basis (e1, e2), its first vector is no longer than e1 or e2
    # under h, and it is Hermitian-reduced; the rows that reduce_pairs makes
    # of it are LLL-reduced, so lll_reduce on their Gram matrix returns U = I.
    from conic_nf.lattice import lll_reduce, pair_weights
    from conic_nf.fields import integer_ring

    pairs, steps = [], []
    hermitian_reduce, reduce_pairs = holzer._hermitian_reduce, holzer.reduce_pairs

    def recorded_pair(ring, basis, weights):
        pairs.append((ring, basis, weights, hermitian_reduce(ring, basis, weights)))
        return pairs[-1][-1]

    def recorded_rows(ring, gens, coeffs):
        steps.append((ring, coeffs, reduce_pairs(ring, gens, coeffs)))
        return steps[-1][-1]

    monkeypatch.setattr(holzer, "_hermitian_reduce", recorded_pair)
    monkeypatch.setattr(holzer, "reduce_pairs", recorded_rows)
    rng = random.Random("pre-reduction")
    for d in (-1, -2, -3, -7, -11):
        field = make_field(d)
        el = lambda r: field.element(rng.randint(-r, r), rng.randint(-r, r))
        done = 0
        while done < 40:
            a, b, x, y = el(6), el(6), el(6), el(6)
            c = -(a * x * x + b * y * y)
            if a.is_zero or b.is_zero or c.is_zero:
                continue
            eq = ConicEquation(a, b, c)
            start = _line_start(eq, (x, y, field.one()), [el(100) for _ in range(3)])
            if start is None:
                continue
            red = reduce_solution(eq, start)
            assert verify(eq, red) and is_reduced(eq, red)
            done += 1
    assert len(pairs) == len(steps) >= 200

    for ring, ((x1, y1), (x2, y2)), (wx, wy), r in pairs:
        mul, sub, conj, norm = ring.mul, ring.sub, ring.conj, ring.norm
        h = lambda p, q: ring.add(mul((wx, 0), mul(p[0], conj(q[0]))), mul((wy, 0), mul(p[1], conj(q[1]))))
        det = sub(mul(x1, y2), mul(x2, y1))
        (u1, v1), (u2, v2) = r
        assert any(sub(mul(u1, v2), mul(u2, v1)) == mul(e, det) for e in ring.units)
        n1, n2 = h(r[0], r[0])[0], h(r[1], r[1])[0]
        assert n1 <= min(h(e, e)[0] for e in ((x1, y1), (x2, y2))) and n1 <= n2
        # |h(r2, r1)| < h(r1, r1): the covering radius of O_K is below 1.
        assert norm(h(r[1], r[0])) < n1 * n1
    for ring, (a, b, _), rows in steps:
        wx, wy = pair_weights(ring, a, b)
        gram = [[wx * ring.dot(p, u) + wy * ring.dot(q, v) for u, v in rows] for p, q in rows]
        assert lll_reduce(gram)[1] == [[int(i == j) for j in range(4)] for i in range(4)]


# FieldElement arithmetic: each method that computes with elements.
_ELEMENT_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "coerce", "conj", "norm", "trace",
)


def test_rational_steps_call_no_pair_kernel_and_no_element_arithmetic(monkeypatch):
    # Over Q the step runs on plain ints: inside reduce_solution no
    # IntegerRing method is called and no FieldElement is computed with,
    # is_reduced's check of each point included.
    from conic_nf.fields import FieldElement, IntegerRing

    counts, inside = {}, [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside[0] > 0:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def entered(fn):
        def wrapper(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1

        return wrapper

    for name, fn in vars(IntegerRing).items():
        if callable(fn):
            monkeypatch.setattr(IntegerRing, name, counted("IntegerRing." + name, fn))
    for name in _ELEMENT_ARITHMETIC:
        monkeypatch.setattr(FieldElement, name, counted("FieldElement." + name, getattr(FieldElement, name)))
    monkeypatch.setattr(holzer, "_lattice_step", counted("steps", holzer._lattice_step))
    reduce = entered(holzer.reduce_solution)

    def points(rows):
        for d, coeffs, start, _ in rows:
            field = make_field(d)
            yield ConicEquation(*(field.element(*t) for t in coeffs)), SolutionTriple(
                *(field.element(*t) for t in start)
            )

    for eq, start in points(GOLDEN_Q + [r for r in GOLDEN if r[0] is None]):
        reduce(eq, start)
    steps = counts.pop("steps", 0)
    assert steps > len(GOLDEN_Q) and counts == {}
    # The wrappers are live: an imaginary reduction takes steps on IntegerRing.
    for eq, start in points([r for r in GOLDEN if r[0] == -7][:1]):
        reduce(eq, start)
    assert counts.pop("steps") > 0
    assert any(k.startswith("IntegerRing.") for k in counts)
