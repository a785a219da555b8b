import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

import conic_nf.fields
from conic_nf import descent, ideals, residues
from conic_nf.errors import BaseDegenerate, NotSolvable, PellSearchExhausted
from conic_nf.fields import (
    FieldElement,
    Surd,
    format_element,
    integer_ring,
    make_field,
    parse_element,
)
from conic_nf.ideals import Ideal, factor_ideal, principal_ideal
from conic_nf.descent import (
    DescentTrace,
    _enumerate_small,
    SolutionTriple,
    compose_solution,
    legendre_descent,
    solve_conic,
    solve_pell,
    to_norm_form,
    verify,
)
from conic_nf.solvability import ConicEquation
from timelimit import within

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)
Q14 = make_field(14)


def eq_of(field, a, b, c):
    return ConicEquation(field.element(a), field.element(b), field.element(c))


def _back_map_oracle(K, point, divisors):
    """(x/a, y/A2, z/B2) as elements, scaled by the lcm of the denominators
    and divided by the content of the integer coordinates."""
    ring = integer_ring(K)
    q = [ring.element(t) / ring.element(d) for t, d in zip(point, divisors)]
    m = math.lcm(*(t.den for t in q))
    scaled = [t * m for t in q]
    g = math.gcd(*(c for t in scaled for c in t.num))
    return [(t / g).num for t in scaled]


def test_back_map_matches_the_element_oracle():
    # Real and imaginary fields, d = 1 (mod 4) among them; random divisors
    # (of negative norm on the real fields), units and points with zeros.
    rng = random.Random(29)
    units = {2: (1, 1), 3: (2, 1), 5: (0, 1), 13: (1, 1), 17: (3, 2), 10: (3, 1),
             -1: (0, 1), -3: (0, 1)}
    fields = [None, -1, -3, -5, -7, -15, 2, 3, 5, 10, 13, 17]
    negative = 0
    for n in range(3600):
        d = fields[n % len(fields)]
        K = make_field(d)
        ring = integer_ring(K)
        v = (lambda: 0) if d is None else (lambda: rng.randint(-99, 99))  # omega coordinate

        def divisor():
            if d in units and rng.random() < 0.2:
                return units[d]
            while True:
                t = (rng.randint(-99, 99), v())
                if t != (0, 0):
                    return t

        divisors = [divisor() for _ in range(3)]
        negative += any(ring.norm(t) < 0 for t in divisors)
        point = [(0, 0) if rng.random() < 0.15 else (rng.randint(-999, 999), v()) for _ in range(3)]
        if point == [(0, 0)] * 3:
            point[0] = (1, 0)
        assert descent._primitive_point(ring, point, divisors) == _back_map_oracle(K, point, divisors)
    assert negative > 500


def test_solve_pell_examples():
    x, y = solve_pell(Q.element(-1), Q.element(13))
    assert x * x + y * y == Q.element(13)
    x, y = solve_pell(Q6.element(-2), Q6.element(2))
    assert x * x + Q6.element(2) * y * y == Q6.element(2)
    with pytest.raises(PellSearchExhausted):
        solve_pell(Q.element(2), Q.element(3), 50)


def test_to_norm_form():
    nf, back = to_norm_form(eq_of(Q7, 3, 2, 13))
    assert nf.A == Q7.element(-6)
    assert nf.B == Q7.element(-39)
    # A solution of the norm form maps back to a solution of the conic.
    # x^2 + 6 y^2 = -39 z^2 has no real content over Q7?  Use the identity
    # check instead with the known conic solution (sqrt(-7), 2, 1):
    s7 = Q7.sqrt_gen()
    X, Y, Z = Q7.element(3) * s7, Q7.element(2), Q7.one()
    assert X * X - nf.A * Y * Y == nf.B * Z * Z
    x, y, z = back(X, Y, Z)
    e = eq_of(Q7, 3, 2, 13)
    assert e.evaluate(x, y, z).is_zero


def test_to_norm_form_strips_squares():
    nf, _ = to_norm_form(eq_of(Q, 2, 2, -1))
    assert nf.A == Q.element(-1)  # -4 = -1 * 2^2 absorbed
    assert nf.B == Q.element(2)


def test_compose_solution_identity():
    rng = random.Random(3)
    for _ in range(30):
        A = Q6.element(rng.randint(-9, 9), rng.randint(-3, 3))
        a0 = Q6.element(rng.randint(-9, 9), rng.randint(-3, 3))
        b0 = Q6.element(rng.randint(-9, 9), rng.randint(-3, 3))
        a1 = Q6.element(rng.randint(-9, 9), rng.randint(-3, 3))
        b1 = Q6.element(rng.randint(-9, 9), rng.randint(-3, 3))
        t1 = Q6.element(rng.randint(-5, 5), rng.randint(-2, 2))
        t2 = Q6.element(rng.randint(-5, 5), rng.randint(-2, 2))
        sol = compose_solution(A, (a0, b0), SolutionTriple(a1, b1, Q6.one()), t1, t2)
        lhs = sol.x * sol.x - A * sol.y * sol.y
        rhs = (a0 * a0 - A * b0 * b0) * (a1 * a1 - A * b1 * b1)
        assert lhs == rhs


def test_descent_norm_form_example():
    # x^2 - 823 y^2 = -1929 z^2 over Q(sqrt(-6)), class number 2.
    trace = DescentTrace()
    x, y, z = legendre_descent(Q6.element(823), Q6.element(-1929), trace=trace)
    assert x * x - Q6.element(823) * y * y == Q6.element(-1929) * z * z
    assert not (x.is_zero and y.is_zero and z.is_zero)
    steps = [s["step"] for s in trace.to_list()]
    assert "reduce" in steps


def test_descent_rejects_unsolvable():
    with pytest.raises(NotSolvable):
        legendre_descent(Q.element(823), Q.element(-1929))
    with pytest.raises(NotSolvable):
        legendre_descent(Q.element(-1), Q.element(-1))


def test_descent_rational_subfield_shortcut():
    # A = 2, B = 7 is solvable already over Q: (3, 1, 1).
    trace = DescentTrace()
    x, y, z = legendre_descent(Q6.element(2), Q6.element(7), trace=trace)
    assert x * x - Q6.element(2) * y * y == Q6.element(7) * z * z
    assert x.v == 0 and y.v == 0 and z.v == 0
    assert trace.to_list()[0]["step"] == "rational_subfield"


def test_solve_conic_over_q():
    cases = [(1, 1, -2), (2, 3, -5), (1, -5, -11), (3, 4, -7), (1, 1, -13)]
    for a, b, c in cases:
        e = eq_of(Q, a, b, c)
        sol = solve_conic(e)
        assert verify(e, sol)
        assert sol.x.is_integral and sol.y.is_integral and sol.z.is_integral


def test_solve_conic_known_field_equation():
    e = eq_of(Q7, 3, 2, 13)
    sol = solve_conic(e)
    assert verify(e, sol)


def test_solve_conic_norm_form_instance():
    e = ConicEquation(Q6.one(), Q6.element(-823), Q6.element(1929))
    sol = solve_conic(e)
    assert verify(e, sol)


def test_solve_conic_unsolvable_raises():
    with pytest.raises(NotSolvable):
        solve_conic(eq_of(Q, 1, 1, 1))
    with pytest.raises(NotSolvable):
        solve_conic(eq_of(Q, 1, 1, -3))


def test_solve_conic_random_over_imaginary_fields():
    rng = random.Random(29)
    solved = 0
    for field in (Q6, Q7, make_field(-1)):
        for _ in range(12):
            # Build guaranteed-solvable equations from a chosen solution.
            a = field.element(rng.randint(1, 6), rng.randint(-2, 2))
            b = field.element(rng.randint(1, 6), rng.randint(-2, 2))
            x = field.element(rng.randint(-4, 4), rng.randint(-2, 2))
            y = field.element(rng.randint(-4, 4), rng.randint(-2, 2))
            if a.is_zero or b.is_zero or (x.is_zero and y.is_zero):
                continue
            c = -(a * x * x + b * y * y)
            if c.is_zero:
                continue
            e = ConicEquation(a, b, c)  # (x, y, 1) is a solution
            sol = solve_conic(e)
            assert verify(e, sol)
            solved += 1
    assert solved >= 20


def test_verify_agrees_with_element_evaluation_on_fractional_points():
    # verify checks on kernel integers over a common denominator; the element
    # evaluation a*x^2 + b*y^2 + c*z^2 = 0 is the reference.  Points on the
    # conic are an integral point times a fractional factor, and points off
    # it are those with one coordinate moved.
    rng = random.Random("verify")
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    on = off = 0
    for d in (None, -1, -3, -7, -5, 2, 5, 13):
        K = make_field(d)
        el = (lambda: K.element(rng.randint(-5, 5))) if K.is_rational else (
            lambda: K.element(rng.randint(-5, 5), rng.randint(-3, 3)))
        for _ in range(60):
            a, b, x, y = el(), el(), el(), el()
            c = -(a * x * x + b * y * y)
            k = K.element(frac(), 0 if K.is_rational else frac())
            if a.is_zero or b.is_zero or c.is_zero or k.is_zero:
                continue
            eq = ConicEquation(a, b, c)
            point = [x * k, y * k, k]
            if rng.random() < 0.5:
                i = rng.randrange(3)
                point[i] = point[i] + K.element(frac(), 0 if K.is_rational else frac())
            sol = SolutionTriple(*point)
            expected = not sol.is_trivial and eq.evaluate(*point).is_zero
            assert verify(eq, sol) == expected, (d, eq, sol)
            on, off = on + expected, off + (not expected)
        zero = K.zero()
        assert not verify(ConicEquation(K.one(), K.one(), -K.one()), SolutionTriple(zero, zero, zero))
    assert on > 200 and off > 200
    other = make_field(-2)
    with pytest.raises(ValueError):
        verify(ConicEquation(Q7.one(), Q7.one(), Q7.element(-2)), SolutionTriple(other.one(), other.one(), other.one()))


def test_enumerate_small_shell_order():
    bound = 6
    box = range(-bound, bound + 1)
    coords = [(u, v) for u in box for v in box]
    coords.sort(key=lambda t: (abs(t[0]) + abs(t[1]), t))
    assert list(_enumerate_small(Q7, bound)) == [Q7.element(u, v) for u, v in coords]


def _up_to_sign(k):
    return k if next(c for c in k if c) > 0 else tuple(-c for c in k)


@pytest.mark.parametrize(
    "d, a, b", [(None, (-3, 0), (7, 0)), (-5, (3, -1), (5, 2)), (2, (1, 1), (3, 0))]
)
def test_enumerate_pairs_reaches_every_small_pair_once(d, a, b):
    # The base search draws pairs (y, z) of O_K^2 from the reduced rows of
    # its weighted lattice, up to sign: every pair whose coordinates lie in
    # [-2, 2] is drawn, and none twice, over Q, an imaginary field and a real
    # field with the unit A = 1+s.
    ring = integer_ring(make_field(d))
    box = itertools.product(range(-2, 3), repeat=2 if d is None else 4)
    wanted = {_up_to_sign(k) for k in box if any(k)}
    seen, repeated = set(), []
    for y, z in itertools.islice(descent._enumerate_pairs(ring, a, b), 20_000):
        k = _up_to_sign((y[0], z[0]) if d is None else (*y, *z))
        if k in seen:
            repeated.append(k)
        seen.add(k)
        if wanted <= seen:
            break
    assert wanted <= seen
    assert repeated == []


def test_solve_conic_checks_once(check_calls):
    for field, coeffs in ((Q, (1, 1, -2)), (Q14, (1, -2, -3))):
        check_calls.clear()
        e = eq_of(field, *coeffs)
        assert verify(e, solve_conic(e))
        assert len(check_calls) == 1


def test_solve_trial_divides_each_coefficient_and_quotient_norm_at_most_once(monkeypatch):
    # On the benchmark's seed-1 solve inputs, a solve trial-divides (and so
    # may send to rho) only |N(a)|, |N(b)|, |N(c)| and the norm of each
    # descent quotient t, each at most once.  Over Q it trial-divides only
    # |a|, |b| and |c|: the lattice reduction has no quotient.  Every other
    # factorisation divides by the primes handed down from those.
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import workloads

    calls, quotients = [], []
    factor, trial, add = ideals.factor_int, ideals._trial_divide, DescentTrace.add

    def counted_factor(n, primes=()):
        calls.append([abs(n), False])
        return factor(n, primes)

    def counted_trial(m, out):
        calls[-1][1] = True
        return trial(m, out)

    def recorded_add(self, kind, ring, **info):
        if kind == "reduce":
            quotients.append(abs(ring.norm(info["t"])))
        add(self, kind, ring, **info)

    # Every loaded module of the package that holds factor_int, so that no
    # caller slips past the count.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conic_nf" and hasattr(module, "factor_int"):
            monkeypatch.setattr(module, "factor_int", counted_factor)
    monkeypatch.setattr(ideals, "_trial_divide", counted_trial)
    monkeypatch.setattr(DescentTrace, "add", recorded_add)
    requests = workloads.build("solve", 1, 20)
    assert len(requests) == 405
    for req in requests:
        K = make_field(req.d)
        e = ConicEquation(*(K.element(u, v) if req.d else K.element(u) for u, v in req.coeffs))
        calls.clear()
        quotients.clear()
        assert verify(e, solve_conic(e))
        divided = [n for n, ran in calls if ran]
        norms = {abs(x.num[0]) if K.is_rational else abs(x.norm()) for x in (e.a, e.b, e.c)}
        assert len(divided) == len(set(divided)), (req, divided)
        assert set(divided) <= norms | set(quotients), (req, divided)
        assert len(calls) > len(divided)
        if K.is_rational:
            assert quotients == [] and set(divided) <= norms, (req, divided)


def test_rational_subfield_checks_once(check_calls):
    K = make_field(6)
    x, y, z = legendre_descent(K.element(2), K.element(7))
    assert x * x - K.element(2) * y * y == K.element(7) * z * z
    assert len(check_calls) == 1


@pytest.mark.parametrize("d", [None, -7, 2])
def test_descent_refuses_a_zero_coefficient(d):
    # A zero A or B is refused as a degenerate conic, over Q, where the
    # descent runs on ints, and over quadratic fields with a rational or an
    # irrational other coefficient, not by a failure to factor 0.
    K = make_field(d)
    others = [K.element(3), K.element(-5)] + ([] if d is None else [K.element(1, 1)])
    for other in others:
        for A, B in ((K.zero(), other), (other, K.zero())):
            with pytest.raises(BaseDegenerate, match="^all three coefficients must be nonzero$"):
                legendre_descent(A, B)


# Points solve_conic returned on equations whose descent takes the lattice
# step, computed while that step still ran on FieldElements and Surds.
with open(os.path.join(os.path.dirname(__file__), "fixtures", "lattice_step.json")) as _f:
    LATTICE_STEP = json.load(_f)


def _golden_equation(row):
    K = make_field(row["field"])
    return ConicEquation(*(parse_element(K, t) for t in row["eq"].split(";")))


@pytest.mark.parametrize("row", LATTICE_STEP["points"], ids=lambda r: f"{r['field']}:{r['eq']}")
def test_solve_conic_golden_points(row):
    sol = solve_conic(_golden_equation(row))
    assert [format_element(t) for t in (sol.x, sol.y, sol.z)] == row["point"]


def test_lattice_step_makes_no_field_products_or_surds(monkeypatch):
    # short_congruence_pair and closest_in_coset run on the integer kernel:
    # inside them no FieldElement is multiplied and no Surd is built.  The
    # points over Q take no descent step, so only the others count in the
    # bar on the calls.
    inside, calls, counts = [0], [0], {"mul": 0, "surd": 0}
    mul, surd_init = FieldElement.__mul__, Surd.__init__

    def counting_mul(self, other):
        counts["mul"] += inside[0] > 0
        return mul(self, other)

    def counting_surd(self, *args):
        counts["surd"] += inside[0] > 0
        surd_init(self, *args)

    def counted(fn):
        def wrapper(*args):
            inside[0] += 1
            calls[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1

        return wrapper

    rows = LATTICE_STEP["points"] + LATTICE_STEP["cosets"]
    for row in rows:
        integer_ring(make_field(row["field"]))  # built once per field, outside the step
    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counting_mul)
    monkeypatch.setattr(Surd, "__init__", counting_surd)
    monkeypatch.setattr(descent, "short_congruence_pair", counted(descent.short_congruence_pair))
    monkeypatch.setattr(residues, "closest_in_coset", counted(residues.closest_in_coset))
    for row in LATTICE_STEP["points"]:
        solve_conic(_golden_equation(row))
    for row in LATTICE_STEP["cosets"]:
        K = make_field(row["field"])
        residues.closest_in_coset(parse_element(K, row["x"]), Ideal(K, *row["ideal"]))
    descended = [row for row in LATTICE_STEP["points"] if row["field"] != "Q"]
    assert calls[0] > 2 * len(descended) + len(LATTICE_STEP["cosets"])
    assert counts == {"mul": 0, "surd": 0}


def test_descent_decides_on_the_kernel(monkeypatch):
    # Every decision of the descent is a test on the kernel's integer pairs,
    # and its trace keeps elements until to_list(): on the golden points
    # legendre_descent builds no Fraction, no Surd and no ConicEquation (its
    # local check takes the norm form's kernel values), and the descent
    # formats no element until the trace is read.
    inside, counts = [0], {"fraction": 0, "surd": 0, "format": 0, "equation": 0}
    new, surd_init, fmt = Fraction.__new__, Surd.__init__, descent.format_element
    equation_init = ConicEquation.__post_init__

    def counting_new(cls, *args, **kwargs):
        counts["fraction"] += inside[0] > 0
        return new(cls, *args, **kwargs)

    def counting_surd(self, *args):
        counts["surd"] += inside[0] > 0
        surd_init(self, *args)

    def counting_format(x):
        counts["format"] += 1
        return fmt(x)

    def counting_equation(self):
        counts["equation"] += inside[0] > 0
        equation_init(self)

    def counted(fn):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    equations = [_golden_equation(row) for row in LATTICE_STEP["points"]]
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(Surd, "__init__", counting_surd)
    monkeypatch.setattr(descent, "format_element", counting_format)
    monkeypatch.setattr(ConicEquation, "__post_init__", counting_equation)
    monkeypatch.setattr(descent, "legendre_descent", counted(descent.legendre_descent))
    traces = []
    for equation in equations:
        traces.append(DescentTrace())
        assert verify(equation, solve_conic(equation, trace=traces[-1]))
    assert counts == {"fraction": 0, "surd": 0, "format": 0, "equation": 0}
    steps = [step for trace in traces for step in trace.to_list()]
    assert counts["format"] > 0
    assert {step["step"] for step in steps} >= {"norm_form", "reduce"}
    for step in steps:
        for value in step.values():
            assert value is None or isinstance(value, (str, list))


# Solvable conics on which a search once ran for seconds: solve_pell's
# bounded search at a unit coefficient, the base search after the real-field
# unit balancing, or the base search by coordinate size.  Each must be solved
# within a second and from fewer than PELL_CANDIDATES candidates of the base
# search (no solve input of the benchmark's seeds 1-3 draws more than 26);
# faster arithmetic alone would not pass this.  Over Q(sqrt(-7)) the norm
# form has A = -1, and the search drew about 160,000 candidates; the
# congruence lattice now reduces B first.  Over the real fields the lattice
# is weighted per embedding and the descent tests norms, so |N(t)| is
# bounded whatever the units in A and B.  The last seven end in the base
# search with a lopsided A (Q(sqrt(22))), a unit A or B (Q(sqrt(31)), whose
# fundamental unit is 1520+273s), or b = -eps^11 with N(eps) = -1
# (Q(sqrt(29))).  Searched by coordinate size, the first six drew
# 59,000-223,000 candidates and the last ran out of a 400,000-pair budget.
# The base search runs over the reduced rows of the weighted lattice, whose
# length does not change under units, and draws at most 18 on them.
PELL_RUNAWAYS = [
    pytest.param(-7, "1;1;9-6s", id="1;1;9-6s"),
    pytest.param(2, "-2-s;-1-2s;10+15s", id="-2-s;-1-2s;10+15s"),
    pytest.param(17, "-1-w;-1;13+5w", id="-1-w;-1;13+5w"),
    pytest.param(14, "6+4s;6-3s;102+131s", id="6+4s;6-3s;102+131s"),
    pytest.param(14, "8-s;1+s;-1188+213s", id="8-s;1+s;-1188+213s"),
    pytest.param(22, "-4-s;7+s;-106+116s", id="-4-s;7+s;-106+116s"),
    pytest.param(31, "7-s;5-3s;-1937+1743s", id="7-s;5-3s;-1937+1743s"),
    pytest.param(22, "6+2s;8-3s;-116+151s", id="6+2s;8-3s;-116+151s"),
    pytest.param(31, "-6-4s;-3-2s;4572+978s", id="-6-4s;-3-2s;4572+978s"),
    pytest.param(31, "-4+2s;5+3s;-601-1889s", id="-4+2s;5+3s;-601-1889s"),
    pytest.param(31, "6-3s;-3+3s;1104-666s", id="6-3s;-3+3s;1104-666s"),
    pytest.param(31, "1+3s;-1+3s;-2515-1023s", id="1+3s;-1+3s;-2515-1023s"),
    pytest.param(31, "-5+3s;4+s;3317-1179s", id="-5+3s;4+s;3317-1179s"),
    pytest.param(
        29,
        "1;-73997555/2-13741001/2s;754226159/2+140056285/2s",
        id="1;-73997555/2-13741001/2s;754226159/2+140056285/2s",
    ),
]
PELL_CANDIDATES = 1000


@pytest.mark.parametrize("d, eq", PELL_RUNAWAYS)
def test_pell_runaway_solves_within_a_second(d, eq, monkeypatch):
    drawn = [0]

    def counted(enumerate_candidates):
        def wrapper(*args, **kwargs):
            for candidate in enumerate_candidates(*args, **kwargs):
                drawn[0] += 1
                yield candidate

        return wrapper

    monkeypatch.setattr(descent, "_enumerate_small", counted(descent._enumerate_small))
    monkeypatch.setattr(descent, "_enumerate_pairs", counted(descent._enumerate_pairs))
    equation = _golden_equation({"field": d, "eq": eq})
    sol = within(1.0, solve_conic, equation)
    assert drawn[0] < PELL_CANDIDATES, f"drew {drawn[0]} search candidates"
    assert verify(equation, sol)


# Conics that the Pell searches took seconds on: every step reduces the
# congruence lattice of B now.
@pytest.mark.parametrize(
    "d, eq",
    [(-2, "-2s;3-4s;-106+160s"), (-5, "-1;8-s;-207-45s"), (-23, "3/2-3/2s;-9/2+1/2s;811/2-23/2s")],
)
def test_former_pell_stalls_solve_within_a_second(d, eq):
    equation = _golden_equation({"field": d, "eq": eq})
    assert verify(equation, within(1.0, solve_conic, equation))


def test_solve_sweep_through_random_points():
    # 50 conics a*x^2 + b*y^2 + c*z^2 = 0 through a random point (x0, y0, 1)
    # per field: a, b, x0, y0 = u + v*omega with |u| <= 9, |v| <= 4 (v = 0
    # over Q).  Each must be solved within 2 s.
    failures = []
    definite = (None, -1, -2, -3, -7, -11, -5, -6, -15, -23)
    real = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31, 33)
    for d in definite + real:
        rng = random.Random(f"sweep:{d}")
        K = make_field(d)

        def draw():
            return K.element(rng.randint(-9, 9), 0 if d is None else rng.randint(-4, 4))

        drawn = 0
        while drawn < 50:
            a, b, x0, y0 = draw(), draw(), draw(), draw()
            c = -(a * x0 * x0 + b * y0 * y0)
            if a.is_zero or b.is_zero or c.is_zero:
                continue
            equation = ConicEquation(a, b, c)
            try:
                if not verify(equation, within(2.0, solve_conic, equation)):
                    failures.append((d, equation, "not a solution"))
            except (TimeoutError, PellSearchExhausted) as exc:
                failures.append((d, equation, type(exc).__name__))
            drawn += 1
    assert failures == []


def test_descent_reduces_a_modulus_with_a_square_factor():
    # Over Q(sqrt(-5)) the norm form of 1+2s;2-2s;-53-100s has A = 3-s and
    # B = -947+206s, (B) = P3^2*P7*P29*P607 with P3 not principal, and A has
    # no root mod (B).  The lattice of B uses a root mod P7*P29*P607, and
    # every reduce step's pair gives a multiple of B.
    equation = _golden_equation({"field": -5, "eq": "1+2s;2-2s;-53-100s"})
    trace = DescentTrace()
    assert verify(equation, solve_conic(equation, trace=trace))
    steps = trace.steps
    assert [step["step"] for step in steps[:2]] == ["norm_form", "reduce"]
    first = steps[1]
    assert residues.sqrt_mod_ideal(first["A"], principal_ideal(first["B"])) is None
    assert any(e > 1 for _, e in factor_ideal(principal_ideal(first["B"])))
    for step in steps:
        if step["step"] == "reduce":
            a0, b0 = step["pair"]
            assert ((a0 * a0 - step["A"] * b0 * b0) / step["B"]).is_integral


def test_descent_helpers_build_no_field_elements(monkeypatch):
    # The norm form, each step and the helpers they call (sqrt_mod_ideal,
    # short_congruence_pair, square_decompose, principal_ideal and the root
    # listers) run on kernel values, and so does the lattice reduction over
    # Q: on a warm pass of solves over Q, Q(sqrt(-7)) and Q(sqrt(-5)) none of
    # them builds a FieldElement.  Only is_principal, whose generator is an
    # element, and the check, whose witnesses are elements, do; neither is
    # counted.
    rng = random.Random("kernel helpers")
    equations = []
    for K in (Q, Q7, make_field(-5)):
        draw = lambda: K.element(rng.randint(-6, 6), 0 if K.is_rational else rng.randint(-3, 3))
        while len(equations) % 40 or not equations or equations[-1].field is not K:
            a, b, x0, y0 = (draw() for _ in range(4))
            c = -(a * x0 * x0 + b * y0 * y0)
            if not (a.is_zero or b.is_zero or c.is_zero):
                equations.append(ConicEquation(a, b, c))
    for equation in equations:  # splitting_type builds each prime's data once
        solve_conic(equation)
    inside, built, entered = [0], {False: 0, True: 0}, {"norm_form": 0, "step": 0, "rational": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            entered[name] += 1
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    def uncounted(fn):
        def wrapper(*args, **kwargs):
            outer, inside[0] = inside[0], 0
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = outer

        return wrapper

    def counting(fn):
        def wrapper(*args, **kwargs):
            built[inside[0] > 0] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(descent, "_norm_form", counted("norm_form", descent._norm_form))
    monkeypatch.setattr(descent, "_step", counted("step", descent._step))
    monkeypatch.setattr(descent, "_rational_point", counted("rational", descent._rational_point))
    monkeypatch.setattr(descent, "check_solvable", uncounted(descent.check_solvable))
    monkeypatch.setattr(conic_nf.ideals, "is_principal", uncounted(conic_nf.ideals.is_principal))
    monkeypatch.setattr(conic_nf.fields, "_element", counting(conic_nf.fields._element))
    monkeypatch.setattr(FieldElement, "__init__", counting(FieldElement.__init__))
    for equation in equations:
        assert verify(equation, solve_conic(equation))
    # The wrappers are live: every solve took steps, and elements were built
    # outside the counted calls.
    # Q's 40 equations and the rational norm forms over the fields go to the
    # lattice reduction over Q; the 80 over the fields take the norm form.
    assert entered["norm_form"] == 80 and entered["rational"] >= 40 and entered["step"] > 80
    assert built[False] > 0 and built[True] == 0


def test_rational_solves_take_no_descent_step(monkeypatch):
    # Over Q a solve is one lattice reduction: on the golden points over Q
    # and 50 conics through random points, neither solve_conic nor
    # legendre_descent runs the norm form, a step or the base search of the
    # descent, and the trace holds the normal form alone.
    def refused(*args):
        raise AssertionError("descent reached over Q")

    for name in ("_norm_form", "_step", "_norm_search"):
        monkeypatch.setattr(descent, name, refused)
    rng = random.Random("lattice:Q")
    equations = [_golden_equation(row) for row in LATTICE_STEP["points"] if row["field"] == "Q"]
    while len(equations) < 73:
        a, b, x0, y0 = (rng.randint(-99, 99) for _ in range(4))
        if a and b and a * x0 * x0 + b * y0 * y0:
            equations.append(eq_of(Q, a, b, -(a * x0 * x0 + b * y0 * y0)))
    for equation in equations:
        trace = DescentTrace()
        assert verify(equation, solve_conic(equation, trace))
        assert [step["step"] for step in trace.to_list()] == ["norm_form"]
    x, y, z = legendre_descent(Q.element(2), Q.element(7))
    assert x * x - 2 * y * y == 7 * z * z and not z.is_zero


def _prime(rng, bits, accept):
    """A random prime of the given bit length that accept takes."""
    small = math.prod(range(3, 5000, 2))
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if math.gcd(n, small) == 1 and pow(2, n - 1, n) == 1 and accept(n) and ideals.is_probable_prime(n):
            return n


@pytest.mark.parametrize("bits, count", [(256, 30), (1024, 4)])
def test_large_prime_coefficients_solve_within_a_second(bits, count, monkeypatch):
    # p*x^2 + q*y^2 - z^2 = 0 for primes p = 1 (mod 4) and q, each a square
    # modulo the other, is solvable.  The descent over Q factored quotients
    # as large as p*q, past Brent's rho; one lattice reduction factors
    # nothing but p and q, which are prime, and takes no descent step.
    def refused(*args):
        raise AssertionError("descent step over Q")

    monkeypatch.setattr(descent, "_step", refused)
    rng = random.Random(f"primes:{bits}")
    for _ in range(count):
        p = _prime(rng, bits, lambda n: n % 4 == 1)
        q = _prime(rng, bits, lambda n: pow(n, (p - 1) // 2, p) == 1)
        equation = eq_of(Q, p, q, -1)
        assert verify(equation, within(1.0, solve_conic, equation))
