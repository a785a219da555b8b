"""End-to-end acceptance checks, one per criterion, each printing a verdict line."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conic_nf.descent import (
    DescentTrace,
    SolutionTriple,
    legendre_descent,
    solve_conic,
    verify,
)
from conic_nf.fields import (
    make_field,
    nearest_integer,
    parse_element,
    size_sq,
)
from conic_nf.holzer import bound_constant_sq, is_reduced, reduce_solution
from conic_nf.lattice import lll_reduce
from conic_nf.parametrize import enumerate_solutions, param_solution
from conic_nf.solvability import ConicEquation, check_solvable

Q = make_field()
Q6 = make_field(-6)
Q7 = make_field(-7)
Q14 = make_field(14)


def _report(num, label, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status} ({elapsed:.2f}s, limit {limit}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_acceptance_1_field_example_end_to_end():
    t0 = time.monotonic()
    eq = ConicEquation(Q7.element(3), Q7.element(2), Q7.element(13))
    cert = check_solvable(eq)
    ok = cert.solvable
    odd = [c for c in cert.conditions if c["type"] == "odd_prime"]
    dyadic = [c for c in cert.conditions if c["type"] == "dyadic"]
    # Congruence witnesses at the odd primes dividing 3 and 13; 2 splits, the
    # first prime over it is decided by the 2-adic Hilbert symbol and the
    # second by reciprocity.
    ok = ok and len(odd) == 2 and all(c["ok"] and c["witness"] for c in odd)
    ok = ok and [(c["ok"], c["by"]) for c in dyadic] == [
        (True, "hilbert_symbol"),
        (True, "reciprocity"),
    ]
    known = SolutionTriple(Q7.sqrt_gen(), Q7.element(2), Q7.element(1))
    ok = ok and verify(eq, known)
    sol = solve_conic(eq)
    ok = ok and verify(eq, sol)
    _report(1, "example field certificate and solve", ok, time.monotonic() - t0, 1.0)


def test_acceptance_2_reference_descent_instance():
    t0 = time.monotonic()
    A = Q6.element(823)
    B = Q6.element(-1929)
    trace = DescentTrace()
    x, y, z = legendre_descent(A, B, trace=trace)
    ok = (x * x - A * y * y == B * z * z) and not (y.is_zero and z.is_zero)

    reduces = [s for s in trace.to_list() if s["step"] == "reduce"]
    ok = ok and 1 <= len(reduces) <= 6
    sizes = [size_sq(parse_element(Q6, s["B"])) for s in reduces]
    sizes.append(size_sq(parse_element(Q6, reduces[-1]["t"])))
    ratios = [float(b) / float(a) for a, b in zip(sizes, sizes[1:])]
    ok = ok and all(b < a for a, b in zip(sizes, sizes[1:]))
    print(f"  size(B) ratios per iteration: {[round(r, 4) for r in ratios]}")

    known = SolutionTriple(
        Q6.element(-108508, 13308), Q6.element(3092, -1644), Q6.element(1120, -1268)
    )
    eq = ConicEquation(Q6.element(1), -A, -B)
    ok = ok and verify(eq, known)

    first = reduces[0]
    p0 = parse_element(Q6, first["pair"][0])
    p1 = parse_element(Q6, first["pair"][1])
    ref0, ref1 = Q6.element(-163, 83), Q6.element(-7, -1)
    if (p0 == ref0 or p0 == -ref0) and (p1 == ref1 or p1 == -ref1):
        t_val = parse_element(Q6, first["t"])
        ok = ok and t_val == Q6.element(26, 20)
    _report(2, "reference descent trace", ok, time.monotonic() - t0, 5.0)


def test_acceptance_3_rational_unsolvability_of_descent_instance():
    t0 = time.monotonic()
    eq = ConicEquation(Q.element(1), Q.element(-823), Q.element(1929))
    cert = check_solvable(eq)
    ok = (not cert.solvable) and cert.reason == "congruence"
    failing = [c for c in cert.conditions if c["type"] == "odd_prime" and not c["ok"]]
    ok = ok and len(failing) >= 1
    _report(3, "rational congruence obstruction", ok, time.monotonic() - t0, 1.0)


def test_acceptance_4_real_field_pell_fallback():
    t0 = time.monotonic()
    A = Q14.element(2)
    B = Q14.element(3)
    trace = DescentTrace()
    x, y, z = legendre_descent(A, B, trace=trace)
    ok = (x * x - A * y * y == B * z * z) and not (y.is_zero and z.is_zero)
    steps = {s["step"] for s in trace.to_list()}
    ok = ok and ("pell_fallback" in steps or "rational_subfield" in steps)
    # The half-integral point (sqrt(14)/2, 1/2, 1) lies on the conic.
    half = Q14.element(Fraction(1, 2))
    known = (Q14.sqrt_gen() * half, half, Q14.one())
    ok = ok and (
        known[0] * known[0] - A * known[1] * known[1] == B * known[2] * known[2]
    )
    _report(4, "real-field Pell fallback", ok, time.monotonic() - t0, 10.0)


def _squarefree_upto(n):
    out = []
    for k in range(1, n + 1):
        if all(k % (p * p) for p in range(2, int(math.isqrt(k)) + 1)):
            out.append(k)
    return out


def _brute_solvable_oracle(a, b, c, limit=200):
    sq = np.arange(limit + 1, dtype=np.int64) ** 2
    S = a * sq[:, None] + b * sq[None, :]
    flat = np.unique(S)
    if np.isin(-c * sq[1:], flat).any():
        return True
    # z = 0: need (x, y) != (0, 0) with a x^2 + b y^2 = 0.
    S_flat = S.ravel().copy()
    S_flat[0] = 1  # mask the trivial (0, 0) cell
    return bool((S_flat == 0).any())


def test_acceptance_5_rational_oracle_equivalence():
    t0 = time.monotonic()
    sf = _squarefree_upto(20)
    signed = [s * k for k in sf for s in (1, -1)]
    checked = 0
    disagreements = []
    for a in sf:
        for b in signed:
            if math.gcd(a, abs(b)) != 1:
                continue
            for c in signed:
                if math.gcd(a, abs(c)) != 1 or math.gcd(abs(b), abs(c)) != 1:
                    continue
                if abs(c) < abs(b) or (abs(c) == abs(b) and c < b):
                    continue  # symmetric in (b, c); skip duplicates
                eq = ConicEquation(Q.element(a), Q.element(b), Q.element(c))
                got = check_solvable(eq).solvable
                want = _brute_solvable_oracle(a, b, c)
                checked += 1
                if got != want:
                    disagreements.append((a, b, c, got, want))
    ok = checked > 2000 and not disagreements
    print(f"  checked {checked} triples, {len(disagreements)} disagreements")
    _report(5, "rational oracle equivalence", ok, time.monotonic() - t0, 300.0)


def test_acceptance_6_size_reduction_suite():
    t0 = time.monotonic()
    rng = random.Random(97)
    fields = [Q, make_field(-1), make_field(-2), make_field(-3), Q7, make_field(-11)]
    violations = 0
    for field in fields:
        done = 0
        while done < 50:
            a = field.element(
                rng.randint(1, 8), 0 if field.is_rational else rng.randint(-2, 2)
            )
            b = field.element(
                rng.randint(1, 8), 0 if field.is_rational else rng.randint(-2, 2)
            )
            if a.is_zero or b.is_zero or abs(a.norm() * b.norm()) > 200:
                continue
            x = field.element(
                rng.randint(-6, 6), 0 if field.is_rational else rng.randint(-3, 3)
            )
            y = field.element(
                rng.randint(-6, 6), 0 if field.is_rational else rng.randint(-3, 3)
            )
            z = field.element(
                rng.randint(1, 4), 0 if field.is_rational else rng.randint(-2, 2)
            )
            if x.is_zero or y.is_zero or z.is_zero:
                continue
            c = -(a * x * x + b * y * y) / (z * z)
            if not c.is_integral or c.is_zero:
                continue
            eq = ConicEquation(a, b, c)
            sol = SolutionTriple(x, y, z)
            red = reduce_solution(eq, sol)
            csq = bound_constant_sq(field)
            good = (
                verify(eq, red)
                and all(t.is_integral for t in (red.x, red.y, red.z))
                and red.z.norm() ** 2 <= csq * abs(a.norm() * b.norm())
            )
            if not good:
                violations += 1
            done += 1
    ok = violations == 0
    print(f"  300 reductions, {violations} bound violations")
    _report(6, "size-reduction bound suite", ok, time.monotonic() - t0, 120.0)


def test_acceptance_7_pythagorean_completeness():
    t0 = time.monotonic()
    eq = ConicEquation(Q.element(1), Q.element(1), Q.element(-1))
    base = SolutionTriple(Q.element(1), Q.element(0), Q.element(1))
    got = set()
    for sol in enumerate_solutions(eq, base, 12, z_norm_bound=100 * 100):
        x, y, z = abs(int(sol.x.u)), abs(int(sol.y.u)), abs(int(sol.z.u))
        if x == 0 or y == 0:
            continue
        got.add(tuple(sorted((x, y))) + (z,))
    brute = set()
    for x in range(1, 101):
        for y in range(x, 101):
            zz = x * x + y * y
            z = math.isqrt(zz)
            if z * z == zz and z <= 100 and math.gcd(math.gcd(x, y), z) == 1:
                brute.add((x, y, z))
    ok = got == brute
    print(f"  {len(got)} parameterised vs {len(brute)} brute-force classes")
    _report(7, "primitive Pythagorean completeness", ok, time.monotonic() - t0, 10.0)


def _gso(G):
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    # Gram-space Gram-Schmidt: coefficients of b_i* in terms of b_j.
    coeffs = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        coeffs[i][i] = Fraction(1)
        for j in range(i):
            num = sum(coeffs[j][k] * Fraction(G[i][k]) for k in range(n))
            mu[i][j] = num / norms[j]
            for k in range(n):
                coeffs[i][k] -= mu[i][j] * coeffs[j][k]
        norms[i] = sum(
            coeffs[i][k] * coeffs[i][l] * Fraction(G[k][l])
            for k in range(n)
            for l in range(n)
        )
    return mu, norms


def _det_int(M):
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for k in range(col, n):
                A[r][k] -= f * A[col][k]
    return det


def test_acceptance_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True

    # Composition identity, exact, 1000 cases.
    for _ in range(1000):
        field = rng.choice([Q, Q6, Q7, Q14])
        rand = lambda: field.element(
            rng.randint(-20, 20), 0 if field.is_rational else rng.randint(-20, 20)
        )
        A, a0, b0, a1, b1 = rand(), rand(), rand(), rand(), rand()
        lhs = (a0 * a0 - A * b0 * b0) * (a1 * a1 - A * b1 * b1)
        X = a0 * a1 + A * b0 * b1
        Y = a1 * b0 + a0 * b1
        ok = ok and lhs == X * X - A * Y * Y

    # LLL output properties on 500 random Gram matrices of rank 2 and 4.
    delta = Fraction(99, 100)
    lll_cases = 0
    while lll_cases < 500:
        n = 2 if lll_cases % 2 == 0 else 4
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if _det_int(M) == 0:
            continue
        G = [
            [sum(M[i][k] * M[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        G2, U = lll_reduce([[Fraction(x) for x in row] for row in G])
        ok = ok and abs(_det_int(U)) == 1
        mu, norms = _gso(G2)
        for i in range(n - 1):
            lovasz = norms[i + 1] >= (delta - mu[i + 1][i] ** 2) * norms[i]
            ok = ok and lovasz
        for i in range(n):
            for j in range(i):
                ok = ok and abs(mu[i][j]) <= Fraction(1, 2)
        lll_cases += 1

    # Slope-parameterisation polynomial identity, 500 cases.
    count = 0
    while count < 500:
        field = rng.choice([Q, Q6, Q7])
        rand = lambda lo, hi: field.element(
            rng.randint(lo, hi), 0 if field.is_rational else rng.randint(lo, hi)
        )
        a, b = rand(1, 9), rand(1, 9)
        x, y, z = rand(-6, 6), rand(-6, 6), rand(1, 4)
        if a.is_zero or b.is_zero or z.is_zero:
            continue
        c = -(a * x * x + b * y * y) / (z * z)
        if not c.is_integral or c.is_zero:
            continue
        eq = ConicEquation(a, b, c)
        base = SolutionTriple(x, y, z)
        m, n = rand(-7, 7), rand(-7, 7)
        if m.is_zero and n.is_zero:
            continue
        sol = param_solution(eq, base, m, n)
        ok = ok and eq.evaluate(sol.x, sol.y, sol.z).is_zero
        count += 1

    # Certified rounding, 1000 cases.
    for _ in range(1000):
        field = rng.choice([Q6, Q7, Q14])
        x = field.element(
            Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
            Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
        )
        near = nearest_integer(x)
        best = size_sq(x - near)
        cu, cv = round(x.u), round(x.v)
        for du in range(-3, 4):
            for dv in range(-3, 4):
                cand = field.element(cu + du, cv + dv)
                ok = ok and best <= size_sq(x - cand)

    _report(8, "exact property suites", ok, time.monotonic() - t0, 60.0)
