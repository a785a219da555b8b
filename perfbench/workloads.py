"""Seeded inputs for the four workloads, built without the program.

A run is a whole number of rounds.  Every round holds the same cells (a
cell is a field and a kind of input) in the same order; only the numbers
drawn inside each cell depend on the seed.  So every run has the same mix,
and the share of requests that fail on purpose is the same in every run.

Elements are (u, v) integer pairs over {1, w} as in oracle.py; d is None
for Q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import oracle
import refreduce

# At least this many requests per run, so that ten or more lie above the
# 90th percentile.
MIN_REQUESTS = 100

# Coefficients with a larger 2-adic valuation of the norm make the exhaustive
# dyadic search in check_solvable run for seconds; they are left out.  The
# certify cells that build a conic through a point over a quadratic field use
# 0: their dyadic checks then take tens of ms instead of up to a second, which
# keeps the run-to-run spread of the totals small.
V2_CAP = 1

# Rounds per second of --seconds, from this workload's round time on a 2-core
# x86-64 machine, so that a run measures for about --seconds.
ROUNDS_PER_SECOND = {"certify": 0.92, "solve": 1.35, "minimise": 1.1, "corpus": 15.0}


@dataclass(frozen=True)
class Request:
    cell: str
    d: Optional[int]
    coeffs: tuple
    expect: Optional[bool] = None  # certify / corpus line: solvable or not
    start: Optional[tuple] = None  # minimise: the starting solution
    lines: Optional[tuple] = None  # corpus: the file's lines


def frac(x):
    return oracle.elem(*x)


def fracs(xs):
    return tuple(frac(x) for x in xs)


class Gen:
    """Draws inputs for one run; no input repeats within the run."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()

    # -- elements and fields ------------------------------------------------

    def elem(self, d, r, nonzero=True):
        for _ in self.tries():
            x = (self.rng.randint(-r, r), 0 if d is None else self.rng.randint(-r, r))
            if x != (0, 0) or not nonzero:
                return x

    def tries(self, limit=100_000):
        """Draws for one input; a cell whose filters reject everything fails
        loudly instead of looping."""
        for i in range(limit):
            yield i
        raise RuntimeError("no input passed a cell's filters; widen its ranges")

    def fresh(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def ok_local(self, d, coeffs, cap=V2_CAP) -> bool:
        """v2(N(c)) <= cap, and v_p(N(c)) <= 1 at each odd p dividing d: a
        higher valuation at a ramified odd prime makes check_solvable's root
        search there exceed its enumeration guard and raise UndecidedError
        (seen at (17, s)^5 over Q(sqrt(17)))."""
        ramified = [p for p in range(3, abs(d or 1) + 1, 2) if d % p == 0]
        for c in coeffs:
            n = oracle.norm(d, frac(c))
            if oracle.v2(n) > cap or any(n % (p * p) == 0 for p in ramified):
                return False
        return True

    def from_point(self, d, r, rx):
        """(a, b, c, point): a, b and a point (x0, y0, 1) drawn with
        coordinates up to r and rx, and c = -(a x0^2 + b y0^2)."""
        ring = refreduce.Ring(d)
        for _ in self.tries():
            a, b = self.elem(d, r), self.elem(d, r)
            x0, y0 = self.elem(d, rx, False), self.elem(d, rx, False)
            c = ring.scale(ring.add(ring.mul(a, ring.mul(x0, x0)), ring.mul(b, ring.mul(y0, y0))), -1)
            if c != (0, 0):
                return (a, b, c), (x0, y0, (1, 0))

    # -- certify ----------------------------------------------------------------

    def solvable(self, d, r=3, rx=None, no_square_pairs=False, cap=V2_CAP):
        """A conic built through a known point (x0, y0, 1); returns the
        request and the point."""
        for _ in self.tries():
            coeffs, point = self.from_point(d, r, rx or r)
            if not self.ok_local(d, coeffs, cap):
                continue
            if no_square_pairs and any(square_pair(d, x, y) for x, y in pairs(coeffs)):
                continue
            if self.fresh((d, coeffs)):
                return Request("solvable", d, coeffs, True), point

    def odd(self, d, r=3):
        """Unsolvable at a prime over an odd p that splits in K."""
        primes = split_primes(d)
        for _ in self.tries():
            p = self.rng.choice(primes)
            coeffs = [self.elem(d, r) for _ in range(3)]
            ring = refreduce.Ring(d)
            if any(ring.norm(c) % p == 0 for c in coeffs):
                continue
            coeffs[0] = ring.scale(coeffs[0], p)
            self.rng.shuffle(coeffs)
            coeffs = tuple(coeffs)
            f = fracs(coeffs)
            if not (oracle.odd_split_fails(d, f, p) and oracle.real_signs_mixed(d, f)):
                continue
            if self.ok_local(d, coeffs) and self.fresh((d, coeffs)):
                return Request("odd", d, coeffs, False)

    def dyadic(self, d):
        """Unsolvable only at the primes over 2, where 2 splits in K: every
        coefficient is a unit times 1, pi or conj(pi) (N(pi) = +-2) times
        the square of an element of odd norm, so every odd place is fine."""
        ring = refreduce.Ring(d)
        pi = PRIME_OVER_2[d]
        parts = [(1, 0), pi, ring.conj(pi)]
        units = [(1, 0), (-1, 0)] + [ring.scale(u, s) for u in UNITS.get(d, []) for s in (1, -1)]
        for _ in self.tries():
            coeffs = []
            for _ in range(3):
                s = self.elem(d, 2)
                if ring.norm(s) % 2 == 0:
                    break
                x = ring.mul(ring.mul(self.rng.choice(units), self.rng.choice(parts)), ring.mul(s, s))
                coeffs.append(x)
            if len(coeffs) < 3:
                continue
            coeffs = tuple(coeffs)
            f = fracs(coeffs)
            if not (oracle.dyadic_split_fails(d, f) and oracle.real_signs_mixed(d, f)):
                continue
            if self.fresh((d, coeffs)):
                return Request("dyadic", d, coeffs, False)

    # -- minimise -----------------------------------------------------------

    def start_on(self, d, coeffs, point, height):
        """A second point of the conic on the line through `point` with a
        random direction of coordinates up to `height`."""
        ring = refreduce.Ring(d)
        for _ in self.tries():
            dirn = [self.elem(d, height, False) for _ in range(3)]
            qd = (0, 0)
            bil = (0, 0)
            for co, p, q in zip(coeffs, point, dirn):
                qd = ring.add(qd, ring.mul(co, ring.mul(q, q)))
                bil = ring.add(bil, ring.mul(co, ring.mul(p, q)))
            if qd == (0, 0):
                continue
            start = tuple(ring.sub(ring.mul(qd, p), ring.scale(ring.mul(bil, q), 2)) for p, q in zip(point, dirn))
            if start[2] != (0, 0):
                return start

    def holzer_rational(self):
        """Q with squarefree, pairwise coprime a, b, c; the start is kept
        only if the tangent descent does not stall from it."""
        for _ in self.tries():
            a = self.rng.choice((-1, 1)) * self.rng.randint(1, 30)
            b = self.rng.choice((-1, 1)) * self.rng.randint(1, 30)
            x0, y0 = self.rng.randint(-6, 6), self.rng.randint(-6, 6)
            c = -(a * x0 * x0 + b * y0 * y0)
            if c == 0 or not all(map(squarefree, (a, b, c))):
                continue
            if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
                continue
            coeffs = ((a, 0), (b, 0), (c, 0))
            height = int(10 ** self.rng.uniform(0, 4))
            start = self.start_on(None, coeffs, ((x0, 0), (y0, 0), (1, 0)), height)
            if self.keep_start(None, coeffs, start):
                return Request("rational", None, coeffs, start=start)

    def holzer_imaginary(self, d):
        for _ in self.tries():
            coeffs, point = self.from_point(d, 4, 3)
            height = int(10 ** self.rng.uniform(0, 2))
            start = self.start_on(d, coeffs, point, height)
            if self.keep_start(d, coeffs, start):
                return Request("imaginary", d, coeffs, start=start)

    def keep_start(self, d, coeffs, start) -> bool:
        try:
            refreduce.reduce(d, coeffs, start)
        except refreduce.Stalled:
            return False
        return self.fresh((d, coeffs, start))


# -- fixed data ----------------------------------------------------------------

# Elements of norm +-2 over the fields where 2 splits.
PRIME_OVER_2 = {-7: (0, 1), 17: (1, 1)}
# Fundamental units of infinite order, w-coordinates.
UNITS = {17: [(3, 2)]}  # 4 + sqrt(17)

# Rational starts ((a, b, c), (x, y, z)) from which the program's tangent
# descent stalls with UndecidedError, although Holzer's theorem gives a
# solution with z^2 <= |ab|: for 1;3;-7 from 5;-1;2 it is (2, 1, 1).  All have
# squarefree, pairwise coprime coefficients.  They do not depend on the seed;
# round i attempts STALLED[i], so none repeats within a run of up to 31 rounds.
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
]


def pairs(coeffs):
    a, b, c = coeffs
    return ((a, b), (a, c), (b, c))


def square_pair(d, x, y) -> bool:
    """|N(x) N(y)| is a perfect square (|xy| over Q).  Only then can -xy be a
    unit times a square, which gives the norm form of the descent a unit
    coefficient and sends solve_conic into its bounded Pell search for tens
    of seconds; solve and corpus leave such equations out."""
    n = abs(x[0] * y[0]) if d is None else abs(refreduce.Ring(d).norm(x) * refreduce.Ring(d).norm(y))
    return math.isqrt(n) ** 2 == n


def squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return n > 0


def split_primes(d, limit=60):
    """Odd primes below `limit` that split in K (all of them for Q)."""
    out = []
    for p in range(3, limit):
        if any(p % q == 0 for q in range(2, p)):
            continue
        if d is None:
            out.append(p)
        elif d % p and len(oracle.w_roots_mod(d, p)) == 2:
            out.append(p)
    return out


# -- rounds ----------------------------------------------------------------------

CERTIFY_SPLIT = (-7, 17)  # 2 splits
CERTIFY_RAMIFIED = (-1, 2)
CERTIFY_INERT = (-3, 5)
# Q (~13 ms a request, tightly spread) and imaginary fields where 2 splits
# (-7, 75-350 ms) or ramifies (-1, -2, 80-650 ms).  With twelve Q equations
# to three field equations, the median falls inside the Q cluster and the
# 90th percentile near the middle of the field ones, where they are densest,
# instead of in the tail of a wide cluster; the field equations still take
# three quarters of the time.  Real fields are left out: with coefficients
# this small, 5-10% of the equations over Q(sqrt(2)), Q(sqrt(3)) and
# Q(sqrt(17)) send the descent into its bounded Pell search for 2-20 s, and
# Q(sqrt(14)) past 5 s.
SOLVE_RAMIFIED = (-1, -2)
MINIMISE_FIELDS = (-1, -2, -3, -7, -11)
CORPUS_FIELDS = (-7, 17, -1, 2)  # for the unsolvable field lines


def certify_round(gen, index):
    # Per round, 23 requests: Q and the seven odd-prime cells (a few ms
    # each); four solvable conics over each field where 2 splits (35-60 ms,
    # the tightest cluster); two over each field where 2 ramifies (30-190 ms);
    # two dyadic refusals (50-280 ms) and one solvable conic over Q(sqrt(-3)),
    # where 2 is inert (75-350 ms).  Eight requests lie below the split
    # cluster and seven above it, so the median falls in its middle.  Solvable
    # conics over Q(sqrt(5)), the other inert field, spread to 700 ms and
    # more; that field is in the odd-prime cell only.
    fields = (None,) + CERTIFY_SPLIT * 4 + CERTIFY_RAMIFIED * 2 + CERTIFY_INERT[:1]
    out = [gen.solvable(d, cap=0 if d else V2_CAP)[0] for d in fields]
    out += [gen.odd(d) for d in (None,) + CERTIFY_SPLIT + CERTIFY_RAMIFIED + CERTIFY_INERT]
    out += [gen.dyadic(d) for d in PRIME_OVER_2]
    return out


def solve_round(gen, index):
    fields = (None,) * 12 + (-7, -7, SOLVE_RAMIFIED[index % len(SOLVE_RAMIFIED)])
    return [gen.solvable(d, 12 if d is None else 1, 12 if d is None else 2, no_square_pairs=True)[0] for d in fields]


def minimise_round(gen, index):
    out = [gen.holzer_rational() for _ in range(20)]
    out += [gen.holzer_imaginary(d) for d in MINIMISE_FIELDS for _ in range(2)]
    coeffs, start = STALLED[index % len(STALLED)]
    as_pairs = lambda t: tuple((x, 0) for x in t)
    out.append(Request("stalled", None, as_pairs(coeffs), start=as_pairs(start)))
    return out


def corpus_round(gen, index):
    """One corpus file: a rational line with its stated solution, a rational
    and two field lines that fail at an odd split prime (one `unsolvable`,
    one `any`; the fields rotate over CORPUS_FIELDS) and a rational `any`
    line that is solvable.  Every solvable line is rational: one solvable
    line over Q(sqrt(-7)), the cheapest field to solve in, made a file's time
    hang on one descent whose cost spreads from 75 to 350 ms, and the
    workload's throughput by a tenth from seed to seed; field solving is on
    the solve workload."""
    d = CORPUS_FIELDS[index % len(CORPUS_FIELDS)]
    d2 = CORPUS_FIELDS[(index + 1) % len(CORPUS_FIELDS)]
    req, point = gen.solvable(None, 12, no_square_pairs=True)
    lines = [line(req, "solvable", point)]
    lines.append(line(gen.odd(None), "unsolvable"))
    lines.append(line(gen.odd(d), "unsolvable"))
    lines.append(line(gen.solvable(None, 12, no_square_pairs=True)[0], "any"))
    lines.append(line(gen.odd(d2), "any"))
    return [Request("file", None, (), lines=tuple(lines))]


def line(req, expectation, point=None):
    """(corpus text, d, coeffs, solvable?)."""
    fields = ["Q" if req.d is None else str(req.d)]
    fields += [fmt(c) for c in req.coeffs] + [expectation]
    if point is not None:
        fields += [fmt(t) for t in point]
    return (" ; ".join(fields), req.d, req.coeffs, req.expect)


def fmt(x):
    """u + v*w in the element grammar."""
    u, v = x
    if v == 0:
        return str(u)
    return f"{u}{v:+d}w" if u else f"{v}w"


ROUNDS = {
    "certify": certify_round,
    "solve": solve_round,
    "minimise": minimise_round,
    "corpus": corpus_round,
}

# The untimed warm-up request of each workload (d, coefficients, start);
# never drawn for a run.
WARMUP = {
    "certify": (-7, ((3, 0), (2, 0), (13, 0))),
    "solve": (-7, ((3, 0), (2, 0), (13, 0))),
    "minimise": (None, ((1, 0), (1, 0), (-5, 0)), ((41, 0), (38, 0), (25, 0))),
    "corpus": (None, ((1, 0), (1, 0), (-2, 0))),
}
WARMUP_CORPUS = "Q ; 1 ; 1 ; -2 ; solvable ; 1 ; 1 ; 1\n-7 ; 3 ; 2 ; 13 ; any\n"


def build(workload: str, seed: int, seconds: int) -> list:
    """The run's requests: whole rounds, as many as --seconds asks for."""
    gen = Gen(workload, seed)
    gen.seen.add(WARMUP[workload])
    make = ROUNDS[workload]
    out = make(gen, 0)
    rounds = max(math.ceil(seconds * ROUNDS_PER_SECOND[workload]), math.ceil(MIN_REQUESTS / len(out)))
    for index in range(1, rounds):
        out += make(gen, index)
    return out
