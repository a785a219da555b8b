"""Tests of the benchmark's own checks and input generation.

    python3 -m pytest perfbench/test_oracles.py -q

The local verdicts are compared with a brute-force search for rational
points; the Z[w] verifier with the stated solutions of the fixture corpus
and with triples made wrong on purpose; the second reduction with the
program's reduce_solution.
"""

import itertools
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import refreduce  # noqa: E402
import workloads  # noqa: E402

E = oracle.elem


def _rational_point_exists(a, b, c):
    """Legendre/Holzer: a solvable ax^2+by^2+cz^2 with squarefree, pairwise
    coprime coefficients has a point with |x| <= sqrt|bc|, |y| <= sqrt|ac|,
    |z| <= sqrt|ab|; search that box."""
    bx, by, bz = (math.isqrt(abs(m)) for m in (b * c, a * c, a * b))
    for z in range(0, bz + 1):
        for x in range(0, bx + 1):
            for y in range(0, by + 1):
                if (x, y, z) != (0, 0, 0) and a * x * x + b * y * y + c * z * z == 0:
                    return True
    return False


def _failing_places(a, b, c):
    """The places where the oracles say the conic has no local point: the
    real place by signs, each odd p by a Legendre symbol, 2 by the 2-adic
    Hilbert symbol (coefficients squarefree and pairwise coprime)."""
    coeffs = (E(a), E(b), E(c))
    places = []
    if not oracle.real_signs_mixed(None, coeffs):
        places.append("inf")
    odd = {p for m in (a, b, c) for p in range(3, abs(m) + 1, 2) if m % p == 0 and _is_prime(p)}
    places += [p for p in sorted(odd) if oracle.odd_split_fails(None, coeffs, p)]
    if oracle.dyadic_split_fails(None, coeffs):
        places.append(2)
    return places


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_local_verdicts_match_rational_search():
    """A point exists iff no place fails (Legendre's theorem), and the
    failing places come in even number (Hilbert reciprocity), so a wrong
    Legendre or 2-adic symbol shows up as an odd count or a wrong verdict."""
    seen = with_two = 0
    for a, b, c in itertools.product(range(-13, 14), repeat=3):
        if 0 in (a, b, c) or not all(map(workloads.squarefree, (a, b, c))):
            continue
        if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
            continue
        places = _failing_places(a, b, c)
        assert len(places) % 2 == 0, (a, b, c, places)
        assert _rational_point_exists(a, b, c) == (not places), (a, b, c, places)
        seen += 1
        with_two += 2 in places
    assert seen > 1000 and with_two > 100


def test_odd_split_fails_in_quadratic_fields():
    """p*x^2 + b*y^2 - c*z^2 with p split in K and b, c prime to p fails at
    the primes over p exactly when b*c is not a square mod p."""
    for d in (-7, 17):
        for p in workloads.split_primes(d, 40):
            for b, c in itertools.product(range(1, 12), repeat=2):
                if b % p == 0 or c % p == 0:
                    continue
                coeffs = (E(p), E(b), E(-c))
                want = oracle.legendre(b * c, p) == -1
                assert oracle.odd_split_fails(d, coeffs, p) == want


def test_dyadic_split_fails_sum_of_three_squares():
    assert oracle.dyadic_split_fails(-7, (E(1), E(1), E(1)))
    assert oracle.dyadic_split_fails(None, (E(1), E(1), E(1)))
    assert not oracle.dyadic_split_fails(-7, (E(1), E(1), E(-2)))


def test_verifier_on_fixture_corpus():
    path = os.path.join(ROOT, "tests", "fixtures", "table1.corpus")
    if not os.path.exists(path):
        pytest.skip("fixture corpus not present")
    checked = 0
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = [p.strip() for p in raw.split(";")]
            if len(parts) != 8:
                continue
            d = None if parts[0] == "Q" else int(parts[0])
            coeffs = tuple(oracle.parse(d, t) for t in parts[1:4])
            point = tuple(oracle.parse(d, t) for t in parts[5:8])
            assert oracle.is_solution(d, coeffs, point), raw
            for i in range(3):
                wrong = list(point)
                wrong[i] = oracle.add(wrong[i], E(1))
                assert not oracle.is_solution(d, coeffs, tuple(wrong)), raw
            assert not oracle.is_solution(d, coeffs, (E(0), E(0), E(0)))
            checked += 1
    assert checked >= 5


def test_parse_grammar():
    from fractions import Fraction

    assert oracle.parse(-6, "-108508+13308s") == E(-108508, 13308)
    assert oracle.parse(-7, "s") == E(-1, 2)
    assert oracle.parse(-7, "1/2+1/2s") == E(0, 1)
    assert oracle.parse(14, "1/2s") == E(0, Fraction(1, 2))
    assert oracle.parse(-7, "3-2w") == E(3, -2)
    assert oracle.parse(None, "-5/3") == E(Fraction(-5, 3))
    for bad in ("", "1+", "s s", "x"):
        with pytest.raises(ValueError):
            oracle.parse(-7, bad)


def test_holzer_constants_and_bound():
    assert oracle.meets_holzer_bound(None, (E(1), E(3), E(-7)), E(1))
    assert not oracle.meets_holzer_bound(None, (E(1), E(3), E(-7)), E(2))


def _program():
    import conic_nf
    from conic_nf.errors import UndecidedError

    return conic_nf, UndecidedError


def test_reference_reduction_matches_program():
    conic_nf, UndecidedError = _program()
    gen = workloads.Gen("test", 7)
    for d in (None, -1, -2, -3, -7, -11):
        K = conic_nf.make_field(d)
        el = (lambda x: K.element(x[0])) if d is None else (lambda x: K.element(*x))
        for _ in range(6 if d is None else 3):
            if d is None:
                coeffs, point = ((2, 0), (3, 0), (-5, 0)), ((1, 0), (1, 0), (1, 0))
            else:
                coeffs, point = gen.from_point(d, 3, 2)
            start = gen.start_on(d, coeffs, point, 30)
            eq = conic_nf.ConicEquation(*map(el, coeffs))
            sol = conic_nf.SolutionTriple(*map(el, start))
            try:
                want = refreduce.reduce(d, coeffs, start)
            except refreduce.Stalled:
                with pytest.raises(UndecidedError):
                    conic_nf.reduce_solution(eq, sol)
                continue
            got = conic_nf.reduce_solution(eq, sol)
            assert tuple((int(t.u), int(t.v)) for t in (got.x, got.y, got.z)) == want


def test_stalled_pool_stalls_in_both():
    conic_nf, UndecidedError = _program()
    Q = conic_nf.make_field()
    for coeffs, start in workloads.STALLED:
        pairs = lambda t: tuple((x, 0) for x in t)
        with pytest.raises(refreduce.Stalled):
            refreduce.reduce(None, pairs(coeffs), pairs(start))
        eq = conic_nf.ConicEquation(*map(Q.element, coeffs))
        with pytest.raises(UndecidedError):
            conic_nf.reduce_solution(eq, conic_nf.SolutionTriple(*map(Q.element, start)))
    assert len({c for c, _ in workloads.STALLED}) == len(workloads.STALLED)


@pytest.mark.parametrize("workload", ["certify", "solve", "minimise", "corpus"])
def test_inputs_depend_on_seed_only_and_do_not_repeat(workload):
    first = workloads.build(workload, 3, 1)
    assert first == workloads.build(workload, 3, 1)
    assert first != workloads.build(workload, 4, 1)
    keys = [(r.d, r.coeffs, r.start, r.lines) for r in first]
    assert len(set(keys)) == len(keys)
    assert len(first) >= workloads.MIN_REQUESTS


def test_certify_expectations_are_constructed():
    for req in workloads.build("certify", 5, 1):
        f = workloads.fracs(req.coeffs)
        if req.cell == "odd":
            assert any(oracle.odd_split_fails(req.d, f, p) for p in workloads.split_primes(req.d))
        elif req.cell == "dyadic":
            assert oracle.dyadic_split_fails(req.d, f)
        else:
            assert req.expect is True
