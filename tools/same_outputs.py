"""Compare the outputs of this checkout with those of another one.

    python3 tools/same_outputs.py PARENT_DIR

Run from the root of a checkout.  The inputs are drawn once, here:

- the certify, solve, minimise and corpus inputs of benchmark seeds 1-3,
  from perfbench/workloads.py (imported, not changed);
- the rows of tests/fixtures/;
- a seeded sweep over Q and 18 quadratic fields, real ones included: conics
  through random points, the same conics with rational coefficients, and
  direct legendre_descent calls;
- parametrize: the README's parametrize command, and the first conics of
  the sweep over every sweep field, real and non-PID ones included, each
  from its random point and the first of them also from that point over
  an integer q, a rational base, with --max-param 8 over Q and 2 over the
  others;
- random row sets for ideals.hnf_rows, rank-deficient ones included;
- a seeded sweep of elements over the same 19 fields for the exact sizes,
  the element API of ideals and holzer, and the local data at primes;
- seeded Gram matrices of ranks 2-6 for lattice.lll_reduce: random ones,
  some with a Fraction weight, dependent or indefinite, and the program's
  shapes (the Holzer step's lattice of lines and the congruence lattice over
  Q at rank 2 with 64- to 1,024-bit moduli, an imaginary field's module
  basis weighted as reduce_pairs does at rank 4); ranks 5 and 6 are random,
  Fraction-weighted or dependent;
- d for make_field: every |d| <= 3,000, seeded p^2*m and seeded d up to
  10^15, where a trial division up to the cube root of |d| still takes
  seconds for all of them;
- seeded integers for ideals.factor_int: signed random ones up to 64 bits,
  products of primes drawn on both sides of 4096, 10^6 and 10^12 + 39,
  perfect powers of primes between 4096 and 10^7, and numbers whose
  cofactor after trial division lies on either side of 4096^2;
- the kernel's conventions over the 19 fields: sqrt(d) and the roots of
  unity;
- the kernel's rank-2 and residuosity questions: ideals.splitting_type for
  every prime below 2,000 over the 19 fields, and at p = 2 over more fields
  with d = 1 and d = 5 (mod 8); ideals.is_principal, factor_ideal and
  valuation on seeded products of prime powers over the 18 quadratic fields
  and the real fields of class number 2 in PRINCIPAL_FIELDS;
  residues.closest_in_coset over the imaginary fields on seeded cosets of
  principal and non-principal ideals; and fields.surd_sign on seeded
  (r, s, rad) with zero parts.

For each checkout a fresh interpreter imports conic_nf from that checkout's
src/ and dumps, for every input, check_solvable(...).to_dict(), the
solve_conic point with DescentTrace.to_list(), the reduce_solution point,
the corpus or parametrize --json output with its exit code, make_field's
descriptor (d, disc, omega_kind), or the error's type and text.
For every sweep field it dumps format_element of sqrt_gen (the error's
type over Q) and of each root of unity of FieldDescriptor.units, in order.
For splitting_type it dumps the kind and each prime's (e, f, second
generator, r); for is_principal the generator or None; for each product
of prime powers, its factor_ideal and its valuation at every prime over
p < 60, principal or not, so that the HNF route is covered too.
On the element sweep it dumps the repr of each size_sq and the pairwise
order and equality of the size_sq values, and of pair_measure values over
Q and the imaginary fields; nearest_integer and closest_in_coset over the
real fields; element_valuation at the primes over p < 60, Ideal.reduce and
residues modulo principal ideals of the elements, factor_ideal of those
ideals, and holzer.xgcd over the Euclidean fields; and omega_root(P, k) for
k <= 3 with crt_coefficients for the primes over p < 60.  For each Gram
matrix it dumps lll_reduce's reduced matrix, entries by repr so that ints
and Fractions differ, and U; for each integer, factor_int's pairs.
The script prints the count of each kind of output and the first
difference, and exits 1 on any difference, 0 when every output is the same.
A reduce point that differs is counted as moved to a unit multiple of the
other checkout's point (the same projective point) or to another point.

A change that should move no output (a refactor, a design change) runs it
against its parent; a change that moves outputs on purpose will show them.
Both dumps take about 40 s together on a 2-core x86-64 Xeon.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction

from reach import readme_commands

ROOT = os.getcwd()
SEEDS = (1, 2, 3)
SECONDS = 20  # the benchmark's default run length sets the number of inputs
SWEEP_FIELDS = (None, -1, -2, -3, -5, -6, -7, -11, -15, -19, -23, 2, 3, 5, 6, 7, 13, 17, 21)
SWEEP_PER_FIELD = 40
PARAM_PER_FIELD = 8
RATIONAL_BASES_PER_FIELD = 4
MAKE_FIELD_ALL_BELOW = 3_000
MAKE_FIELD_SEEDED = 300
HNF_SETS = 20_000
SURFACE_ELEMENTS = 30
LOCAL_PRIMES_BELOW = 60
GRAM_SETS = 3_000
HIGH_RANK_GRAM_SETS = 600
FACTOR_INTS = 2_000
SPLIT_PRIMES_BELOW = 2_000
DYADIC_FIELDS = (-31, -35, -39, -43, -47, -51, 29, 33, 37, 41, 53, 57, 61, 65, 69, 73)
PRINCIPAL_FIELDS = (10, 15, 26, 65)  # real, of class number 2
PRINCIPAL_IDEALS = 60
SURD_SIGNS = 3_000
DUMP_TIMEOUT_S = 1200


# -- inputs, drawn once --------------------------------------------------------


def _fixture(name):
    with open(os.path.join(ROOT, "tests", "fixtures", name)) as fh:
        return fh.read() if name.endswith(".corpus") else json.load(fh)


def _fmt(x):
    u, v = x
    return str(u) if v == 0 else (f"{u}{v:+d}w" if u else f"{v}w")


def _fmt_over(x, q):
    """The element x/q, for x = (u, v) over {1, omega}."""
    u, v = x
    return f"{u}/{q}" if v == 0 else f"{u}/{q}{v:+d}/{q}w"


def _benchmark_inputs(folder):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    inputs = []
    for workload in ("certify", "solve", "minimise", "corpus"):
        for seed in SEEDS:
            for i, req in enumerate(workloads.build(workload, seed, SECONDS)):
                if workload == "corpus":
                    path = os.path.join(folder, f"{seed}-{i:05d}.corpus")
                    with open(path, "w") as fh:
                        fh.write("".join(text + "\n" for text, *_ in req.lines))
                    inputs.append(["corpus", path])
                elif workload == "minimise":
                    inputs.append(["reduce", req.d, req.coeffs, req.start])
                else:
                    # Every certify input is solved too: the descent's local
                    # check and its NotSolvable text are outputs as well.
                    inputs.append(["check", req.d, req.coeffs])
                    inputs.append(["solve", req.d, req.coeffs])
    return inputs, workloads


def _sweep_inputs(workloads):
    gen = workloads.Gen("same-outputs", 0)
    rng = random.Random("same-outputs")
    inputs = []
    for d in SWEEP_FIELDS:
        spec = "Q" if d is None else str(d)
        for i in range(SWEEP_PER_FIELD):
            coeffs, point = gen.from_point(d, 3, 3)
            inputs.append(["check", d, coeffs])
            inputs.append(["solve", d, coeffs])
            if i < PARAM_PER_FIELD:
                texts = [";".join(map(_fmt, t)) for t in (coeffs, point)]
                bound = "8" if d is None else "2"
                bases = [texts[1]]
                if i < RATIONAL_BASES_PER_FIELD:  # the point over q = 2, 3, 4, 5
                    bases.append(";".join(_fmt_over(t, i + 2) for t in point))
                for base in bases:
                    argv = ["--field", spec, "--eq", texts[0], "--base", base, "--max-param", bound]
                    inputs.append(["parametrize", argv])
            # The same conic with rational coefficients, scaled to an
            # integral one by ConicEquation.from_coefficients.
            q = rng.randint(2, 6)
            texts = [f"{c[0]}/{q}" if c[1] == 0 else f"{c[0]}/{q}{c[1]:+d}/{q}w" for c in coeffs]
            inputs.append(["solve_text", spec, ";".join(texts), True])
        for _ in range(5):
            A, B = gen.elem(d, 9), gen.elem(d, 9)
            inputs.append(["descent", spec, _fmt(A), _fmt(B)])
    return inputs


def _fixture_inputs(folder):
    inputs = [["check_text", r["field"], r["eq"]] for r in _fixture("certificates.json")]
    lattice = _fixture("lattice_step.json")
    inputs += [["solve_text", r["field"], r["eq"], False] for r in lattice["points"]]
    inputs += [["coset", r["field"], r["ideal"], r["x"]] for r in lattice["cosets"]]
    inputs += [["root", r["field"], r["a"], r["B"]] for r in _fixture("sqrt_mod_ideal.json")]
    path = os.path.join(folder, "table1.corpus")
    with open(path, "w") as fh:
        fh.write(_fixture("table1.corpus"))
    inputs.append(["corpus", path])
    inputs += [["parametrize", argv[1:]] for argv in readme_commands() if argv[0] == "parametrize"]
    return inputs


def _hnf_inputs():
    rng = random.Random("hnf_rows")
    inputs = []
    for _ in range(HNF_SETS):
        n, big = rng.randint(1, 8), 10 ** rng.randint(1, 12)
        kind = rng.randrange(6)
        if kind == 0:  # a zero v-column
            rows = [(rng.randint(-big, big), 0) for _ in range(n)]
        elif kind == 1:  # multiples of one row: rank 1
            u, v = rng.randint(-big, big), rng.randint(-big, big)
            rows = [(k * u, k * v) for k in (rng.randint(-9, 9) for _ in range(n))]
        else:
            rows = [(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(n)]
        inputs.append(["hnf", rows])
    return inputs


def _surface_inputs():
    """Elements (u, v, den) = (u + v*omega)/den of each sweep field for the
    exact sizes and the roundings, and one seeded local-data input a field."""
    rng = random.Random("same-outputs surfaces")

    def elems(d, n, r=60):
        return [
            (rng.randint(-r, r), 0 if d is None else rng.randint(-r, r), rng.randint(1, 7))
            for _ in range(n)
        ]

    inputs = []
    for d in SWEEP_FIELDS:
        xs = elems(d, SURFACE_ELEMENTS)
        inputs.append(["sizes", d, xs])
        inputs.append(["element_api", d, [x[:2] for x in xs]])
        if d is None or d < 0:
            xs, ys = elems(d, SURFACE_ELEMENTS), elems(d, SURFACE_ELEMENTS)
            pairs = [(x, y) for x, y in zip(xs, ys) if y[:2] != (0, 0)]
            norms = [rng.choice([1, 2, 3, 4, 7, 9, 823]) for _ in pairs]
            inputs.append(["measures", d, pairs, norms])
        else:
            gens = [g for g in elems(d, 5, 30) if g[:2] != (0, 0)]
            xs = elems(d, SURFACE_ELEMENTS, 10**6)
            inputs.append(["roundings", d, xs, [g[:2] for g in gens]])
        inputs.append(["local", d, f"local:{d}"])
    return inputs


def _gram_inputs():
    """Gram matrices for lll_reduce, each entry [numerator, denominator]."""
    rng = random.Random("lll_reduce")

    def gram(rows, weights):
        return [
            [sum(w * x * y for w, x, y in zip(weights, r, q)) for q in rows] for r in rows
        ]

    # Boundaries: mu = +-1/2 and 3/2 (ties round to even), Lovasz's condition
    # with equality (99 = 99/100*100, 296 = (99/100 - 1/4)*400), dependent
    # and indefinite matrices.
    edges = [[[2, 1], [1, 5]], [[2, -1], [-1, 5]], [[2, 3], [3, 10]], [[100, 0], [0, 99]]]
    edges += [[[400, 200], [200, 396]], [[400, -200], [-200, 396]], [[4, 6], [6, 9]], [[1, 2], [2, 1]]]
    inputs = [["lll", [[[g, 1] for g in row] for row in G]] for G in edges]
    for i in range(GRAM_SETS):
        kind = i % 5
        if kind == 0:  # the Holzer step over Q: (x0/g, y0/g), z0*(t, -s)
            bits = rng.choice((8, 64, 256, 1024))
            x0, y0, z0 = (rng.getrandbits(bits) - rng.getrandbits(bits) or 1 for _ in range(3))
            g, s, t = _xgcd(x0, y0)
            G = gram([(x0 // g, y0 // g), (z0 * t, -z0 * s)], [rng.randint(1, 30), rng.randint(1, 30)])
        elif kind == 1:  # the congruence lattice over Q: (w*m, m), (B, 0)
            B = rng.getrandbits(rng.choice((8, 64, 256, 1024))) | 1
            m = rng.randint(1, 100)
            G = gram([(rng.randrange(B) * m, m), (B, 0)], [1, rng.randint(1, 10**6)])
        elif kind == 2:  # e, sqrt(d)*e over Q(sqrt(d)), d = -1 or -2, weighted per coordinate
            d, big = rng.choice((-1, -2)), 10 ** rng.randint(1, 12)
            e1, e2 = ([rng.randint(-big, big) for _ in range(4)] for _ in range(2))
            if rng.random() < 0.1:
                e2 = [3 * t for t in e1]
            rows = [r for e in (e1, e2) for r in (e, [d * e[1], e[0], d * e[3], e[2]])]
            wx, wy = (rng.randint(1, 10**3) << 16 for _ in range(2))
            G = gram(rows, [2 * wx, -2 * d * wx, 2 * wy, -2 * d * wy])
        else:  # random, with a weight over 2^16, dependent rows or indefinite
            n = rng.randint(2, 4)
            rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
            if kind == 3 and rng.random() < 0.2:
                rows[-1] = [2 * t for t in rows[0]]
            weights = [rng.choice((1, rng.randint(1, 1 << 20))) for _ in range(n)]
            if kind == 4 and rng.random() < 0.2:
                weights[-1] = -weights[-1]
            G = gram(rows, weights)
            den = 1 << 16 if rng.random() < 0.3 else 1
            inputs.append(["lll", [[[g, den] for g in row] for row in G]])
            continue
        inputs.append(["lll", [[[g, 1] for g in row] for row in G]])
    # Ranks 5 and 6, from a generator of their own so the sets above stay as
    # they were: random, weighted over 2^16, and with dependent rows.
    rng = random.Random("lll_reduce ranks 5-6")
    for i in range(HIGH_RANK_GRAM_SETS):
        kind, n = i % 3, rng.randint(5, 6)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        if kind == 2:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        G = gram(rows, [rng.choice((1, rng.randint(1, 1 << 20))) for _ in range(n)])
        den = 1 << 16 if kind == 1 else 1
        inputs.append(["lll", [[[g, den] for g in row] for row in G]])
    return inputs


def _factor_inputs():
    """Integers for factor_int: signed random ones up to 64 bits, products
    of primes drawn across 4096, 10^6 and 10^12 + 39, perfect powers, and
    cofactors on both sides of 4096^2."""
    rng = random.Random("factor_int")

    def prime(lo, hi):
        while True:
            p = rng.randrange(lo, hi)
            if p > 1 and all(p % k for k in range(2, math.isqrt(p) + 1)):
                return p

    ranges = ((2, 4096), (4096, 5000), (5000, 10**6), (999_000, 10**6),
              (10**6, 1_001_000), (10**6, 10**7))
    pool = [prime(lo, hi) for lo, hi in ranges for _ in range(30)] + [10**12 + 39]
    mids = [p for p in pool if 4096 < p < 10**7]
    inputs = []
    for i in range(FACTOR_INTS):
        kind = i % 5
        if kind < 2:
            n = rng.getrandbits(rng.randint(1, 64)) or 1
        elif kind < 4:
            n = math.prod(p ** rng.randint(1, 3) for p in rng.sample(pool, rng.randint(1, 4)))
        else:
            n = rng.choice(mids) ** rng.randint(2, 7) * rng.choice((1, 2, 3, 4093))
        inputs.append(["factor_int", rng.choice((-1, 1)) * n])
    # Cofactors that trial division leaves on both sides of 4096^2, below
    # which they are taken as prime: 4093*4099, the primes next to 4096^2,
    # and 4099^2 and 4099*4111 above it, alone and times small primes.
    edges = (4093 * 4099, 16_777_213, 16_777_259, 4099**2, 4099 * 4111)
    inputs += [["factor_int", k * n] for n in edges for k in (1, -6, 4093)]
    return inputs


def _field_inputs():
    """d for make_field: every |d| <= MAKE_FIELD_ALL_BELOW, p^2*m for primes
    p < 10^4, and signed d up to 10^k for k from 4 to 15."""
    rng = random.Random("make_field")
    primes = [p for p in range(2, 10**4) if all(p % k for k in range(2, math.isqrt(p) + 1))]
    ds = list(range(-MAKE_FIELD_ALL_BELOW, MAKE_FIELD_ALL_BELOW + 1))
    for _ in range(MAKE_FIELD_SEEDED):
        ds.append(rng.choice((-1, 1)) * rng.choice(primes) ** 2 * rng.randint(1, 10**7))
        ds.append(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(4, 15)))
    return [["make_field", d] for d in ds]


def _kernel_inputs():
    """Inputs for the sweep fields' sqrt_gen and units, splitting_type,
    is_principal, closest_in_coset over the imaginary fields and surd_sign."""
    rng = random.Random("same-outputs kernel")
    inputs = [["conventions", d] for d in SWEEP_FIELDS]
    inputs += [["splitting", d, SPLIT_PRIMES_BELOW] for d in SWEEP_FIELDS]
    inputs += [["splitting", d, 3] for d in DYADIC_FIELDS]
    for d in SWEEP_FIELDS[1:] + PRINCIPAL_FIELDS:
        # Each ideal: 1-3 primes over p < 60, picked by index, with exponents 1-3.
        picks = [[(rng.randrange(10**6), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
                 for _ in range(PRINCIPAL_IDEALS)]
        inputs.append(["principal", d, picks])
        inputs.append(["ideal_factors", d, picks])
        if d < 0:
            xs = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(SURFACE_ELEMENTS)]
            gens = [(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(4)]
            inputs.append(["imaginary_cosets", d, xs, gens, picks[:4]])
    signs = []
    for i in range(SURD_SIGNS):
        rad = rng.choice((0, 1, 4, 9, 2, 3, 5, 7, 10, 13))
        r, s = rng.randint(-50, 50), 0 if rad == 0 else rng.randint(-50, 50)
        kind = i % 4
        if kind == 0:
            r = 0
        elif kind == 1:
            s = 0
        elif kind == 2:
            r = s = 0
        elif s:  # r^2 near or at s^2*rad
            r = rng.choice((1, -1)) * (math.isqrt(s * s * rad) + rng.randint(-1, 1))
        signs.append((r, s, rad))
    inputs.append(["surd_sign", signs])
    return inputs


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = +-gcd(a, b)."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    return r0, s0, t0


# -- outputs, dumped by each checkout -------------------------------------------


def _dump(checkout, inputs_path):
    """Print one JSON line of output per input, from the conic_nf of checkout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    import io

    import conic_nf
    import conic_nf.cli
    from conic_nf import descent, holzer, ideals, lattice, residues, solvability
    from conic_nf.fields import format_element, make_field, nearest_integer, parse_element, size_sq, surd_sign

    if not os.path.abspath(conic_nf.__file__).startswith(src + os.sep):
        raise RuntimeError(f"conic_nf imported from {conic_nf.__file__}, not from {src}")

    def element(d, x):
        K = make_field(d)
        return K.element(x[0]) if d is None else K.element(x[0], x[1])

    def equation(d, coeffs):
        return solvability.ConicEquation(*(element(d, c) for c in coeffs))

    def parsed(spec, text, scale=False):
        K = make_field(spec)
        terms = [parse_element(K, t) for t in text.split(";")]
        if scale:
            return solvability.ConicEquation.from_coefficients(*terms)
        return solvability.ConicEquation(*terms)

    def rational(d, x):
        u, v, den = x
        return make_field(d).element(Fraction(u, den), Fraction(v, den))

    def orders(values):
        """Per pair i < j: 4*(x < y) + 2*(x == y) + (x > y), or x when < raises."""
        out = []
        for i, x in enumerate(values):
            for y in values[i + 1:]:
                try:
                    out.append(str(4 * (x < y) + 2 * (x == y) + (x > y)))
                except ValueError:
                    out.append("x")
        return "".join(out)

    def primes_below(K):
        return [
            P for p in range(2, LOCAL_PRIMES_BELOW) if ideals.is_probable_prime(p)
            for P in ideals.splitting_type(K, p)[1]
        ]

    def local(d, seed):
        K, rng = make_field(d), random.Random(seed)
        primes = primes_below(K)
        out = []
        for P in primes:
            conjugates = [Q for Q in primes if Q.p == P.p and Q != P]
            others = [Q for Q in primes if Q.p != P.p]
            if not K.is_rational and P.f == 1:
                for k in range(4):
                    try:
                        out.append(ideals.omega_root(P, k))
                    except AssertionError as exc:  # P^k for k > 1 at a ramified P
                        out.append(str(exc))
            for e in range(1, 4):
                factors = [(P, e)] + [(Q, rng.randint(1, 3)) for Q in conjugates]
                factors.append((rng.choice(others), rng.randint(1, 3)))
                out.append(residues.crt_coefficients(K, factors))
        return out

    def ideal_of(K, picks):
        """The product of the prime powers picks over the primes below
        LOCAL_PRIMES_BELOW, each pick (index, exponent)."""
        primes = primes_below(K)
        I = ideals.unit_ideal(K)
        for i, k in picks:
            I = I * ideals.prime_power(primes[i % len(primes)], k)
        return I

    def point(sol):
        return [format_element(t) for t in (sol.x, sol.y, sol.z)]

    def solved(eq):
        trace = descent.DescentTrace()
        return [point(descent.solve_conic(eq, trace)), trace.to_list()]

    def output(kind, *args):
        if kind == "check":
            return solvability.check_solvable(equation(*args)).to_dict()
        if kind == "check_text":
            return solvability.check_solvable(parsed(*args)).to_dict()
        if kind == "solve":
            return solved(equation(*args))
        if kind == "solve_text":
            return solved(parsed(*args))
        if kind == "descent":
            spec, A, B = args
            K, trace = make_field(spec), descent.DescentTrace()
            x, y, z = descent.legendre_descent(parse_element(K, A), parse_element(K, B), trace)
            return [[format_element(t) for t in (x, y, z)], trace.to_list()]
        if kind == "reduce":
            d, coeffs, start = args
            sol = descent.SolutionTriple(*(element(d, t) for t in start))
            return point(holzer.reduce_solution(equation(d, coeffs), sol))
        if kind == "corpus":
            buf = io.StringIO()
            code = conic_nf.cli.run(["corpus", args[0], "--jobs", "2", "--json"], out=buf)
            return [code, buf.getvalue()]
        if kind == "parametrize":
            buf = io.StringIO()
            code = conic_nf.cli.run(["parametrize", *args[0], "--json"], out=buf)
            return [code, buf.getvalue()]
        if kind == "coset":
            spec, (a, b, c), x = args
            K = make_field(spec)
            return format_element(residues.closest_in_coset(parse_element(K, x), ideals.Ideal(K, a, b, c)))
        if kind == "root":
            spec, a, B = args
            K = make_field(spec)
            w = residues.sqrt_mod_ideal(parse_element(K, a), ideals.principal_ideal(parse_element(K, B)))
            return None if w is None else format_element(w)
        if kind == "hnf":
            return list(ideals.hnf_rows(args[0]))
        if kind == "sizes":
            d, xs = args
            sizes = [size_sq(rational(d, x)) for x in xs]
            return [list(map(repr, sizes)), orders(sizes)]
        if kind == "measures":
            d, pairs, norms = args
            measures = [
                lattice.pair_measure(rational(d, x), rational(d, y), n)
                for (x, y), n in zip(pairs, norms)
            ]
            return [list(map(repr, measures)), orders(measures)]
        if kind == "roundings":
            d, xs, gens = args
            K = make_field(d)
            moduli = [ideals.principal_ideal(K.element(*g)) for g in gens]
            cosets = [residues.closest_in_coset(K.element(*x[:2]), M) for x in xs for M in moduli]
            return [
                [format_element(nearest_integer(rational(d, x))) for x in xs],
                list(map(format_element, cosets)),
            ]
        if kind == "local":
            return local(*args)
        if kind == "conventions":
            K = make_field(args[0])
            try:
                sqrt_d = format_element(K.sqrt_gen())
            except Exception as exc:  # InvalidD over Q
                sqrt_d = type(exc).__name__
            return [sqrt_d, list(map(format_element, K.units()))]
        if kind == "splitting":
            d, bound = args
            K = make_field(d)
            out = []
            for p in filter(ideals.is_probable_prime, range(2, bound)):
                name, primes = ideals.splitting_type(K, p)
                out.append([name, [[P.e, P.f, format_element(P.second_gen), P.r] for P in primes]])
            return out
        if kind == "principal":
            d, picks = args
            K = make_field(d)
            gens = [ideals.is_principal(ideal_of(K, ks)) for ks in picks]
            return [None if g is None else format_element(g) for g in gens]
        if kind == "ideal_factors":
            d, picks = args
            K = make_field(d)
            primes, moduli = primes_below(K), [ideal_of(K, ks) for ks in picks]
            return [[repr(ideals.factor_ideal(I)), [ideals.valuation(I, P) for P in primes]] for I in moduli]
        if kind == "imaginary_cosets":
            d, xs, gens, picks = args
            K = make_field(d)
            moduli = [ideals.principal_ideal(K.element(*g)) for g in gens] + [ideal_of(K, ks) for ks in picks]
            return [format_element(residues.closest_in_coset(K.element(*x), M)) for x in xs for M in moduli]
        if kind == "surd_sign":
            return [surd_sign(*t) for t in args[0]]
        if kind == "element_api":
            d, xs = args
            K = make_field(d)
            xs, primes = [element(d, x) for x in xs if x != [0, 0]], primes_below(K)
            moduli = [ideals.principal_ideal(g) for g in xs[:6]]
            return [
                [[ideals.element_valuation(x, P) for P in primes] for x in xs],
                [[format_element(M.reduce(x)) for x in xs] for M in moduli],
                [list(map(format_element, M.residues())) for M in moduli if M.norm <= 400],
                [repr(ideals.factor_ideal(M)) for M in moduli],
                [list(map(format_element, holzer.xgcd(x, y))) for x, y in zip(xs, xs[1:])]
                if K.euclidean else None,
            ]
        if kind == "factor_int":
            return ideals.factor_int(args[0])
        if kind == "make_field":
            K = make_field(args[0])
            return [K.d, K.disc, K.omega_kind]
        if kind == "lll":
            gram = [[Fraction(*g) if g[1] > 1 else g[0] for g in row] for row in args[0]]
            reduced, U = lattice.lll_reduce(gram)
            return [[list(map(repr, row)) for row in reduced], U]
        raise ValueError(f"unknown input kind {kind!r}")

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    for kind, *args in inputs:
        try:
            out = output(kind, *args)
        except Exception as exc:  # an error is an output too
            out = {"error": type(exc).__name__, "text": str(exc)}
        print(json.dumps(out, sort_keys=True))


def _outputs(checkout, inputs_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", checkout, inputs_path],
        env=env, capture_output=True, text=True, timeout=DUMP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"the dump of {checkout} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def _moved_point(d, theirs, mine):
    """"a unit multiple" when two differing reduce outputs are projectively
    equal points over the field d (every 2x2 minor vanishes), else "another
    point"; an error on either side is another point."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from conic_nf.fields import make_field, parse_element

    points = json.loads(theirs), json.loads(mine)
    if not all(isinstance(p, list) for p in points):
        return "another point"
    K = make_field(d)
    p, q = ([parse_element(K, t) for t in point] for point in points)
    equal = all(p[i] * q[j] == p[j] * q[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return "a unit multiple" if equal else "another point"


def main(argv):
    if len(argv) == 3 and argv[0] == "--dump":
        _dump(argv[1], argv[2])
        return 0
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src", "conic_nf")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "conic_nf")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as folder:
        inputs, workloads = _benchmark_inputs(folder)
        inputs += _fixture_inputs(folder) + _sweep_inputs(workloads) + _hnf_inputs()
        inputs += _surface_inputs() + _gram_inputs() + _factor_inputs() + _field_inputs()
        inputs += _kernel_inputs()
        inputs_path = os.path.join(folder, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        here, there = _outputs(ROOT, inputs_path), _outputs(argv[0], inputs_path)
    counts, first = Counter(), None
    for inp, mine, theirs in zip(inputs, here, there):
        counts[inp[0]] += 1
        if mine != theirs:
            counts["differing " + inp[0]] += 1
            if inp[0] == "reduce":
                counts["reduce moved to " + _moved_point(inp[1], theirs, mine)] += 1
            first = first or (inp, theirs, mine)
    print(", ".join(f"{kind}: {n}" for kind, n in counts.items()))
    if len(here) != len(there) or len(here) != len(inputs):
        print(f"{len(inputs)} inputs, {len(here)} outputs here, {len(there)} in {argv[0]}")
        return 1
    if first:
        inp, theirs, mine = first
        print(f"first difference, on {json.dumps(inp)}:\n  {argv[0]}: {theirs}\n  here: {mine}")
        return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
