"""A second implementation of the tangent-descent size reduction.

It follows the same steps as the program's reduction over Q and the five
Euclidean imaginary quadratic fields (Bezout point from a nearest-integer
extended gcd, nine or three shifts, the rounded tangent parameter, the
primitive representative) in plain integer arithmetic, so it reaches the
same points.  The benchmark uses it only to sort generated starting
solutions: a start from which this descent stalls above Holzer's bound is
a seed-dependent failure and is left out of the `minimise` workload.

Elements are (u, v) integer pairs over {1, w}, as in oracle.py; d is None
for Q.
"""

from __future__ import annotations

from fractions import Fraction

from oracle import HOLZER_C_SQ

MAX_STEPS = 10_000


class Stalled(Exception):
    """The program's descent fails from this start: no shift gives a point
    with smaller |z| (its UndecidedError), or the Bezout step finds that
    gcd(x, y) does not divide c (its BezoutFailed).  Carries the point."""


class Ring:
    """Integer arithmetic in O_K for Q or a Euclidean imaginary field."""

    def __init__(self, d):
        self.d = d
        if d is None:
            self.k, self.t = 0, 0
        elif d % 4 == 1:
            self.k, self.t = (d - 1) // 4, 1
        else:
            self.k, self.t = d, 0
        one, w = (1, 0), (0, 1)
        if d is None:
            self.units = [one, (-1, 0)]
        elif d == -1:
            self.units = [one, (-1, 0), w, (0, -1)]
        elif d == -3:
            w2 = self.mul(w, w)
            self.units = [one, (-1, 0), w, (0, -1), w2, (-w2[0], -w2[1])]
        else:
            self.units = [one, (-1, 0)]
        if d is None:
            self.shifts = [(0, 0), (-1, 0), (1, 0)]
        else:
            self.shifts = [(0, 0)] + [
                (u, v) for u in (-1, 0, 1) for v in (-1, 0, 1) if (u, v) != (0, 0)
            ]

    def mul(self, x, y):
        u1, v1 = x
        u2, v2 = y
        return (u1 * u2 + self.k * v1 * v2, u1 * v2 + u2 * v1 + self.t * v1 * v2)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def scale(self, x, n):
        return (x[0] * n, x[1] * n)

    def conj(self, x):
        if self.t:
            return (x[0] + x[1], -x[1])
        return (x[0], -x[1])

    def norm(self, x):
        u, v = x
        if self.d is None:
            return u * u
        return u * u + self.t * u * v - self.k * v * v

    def split_quotient(self, x, y):
        """(num, den) with x / y = num / den and den > 0."""
        return self.mul(x, self.conj(y)), self.norm(y)

    def exact_div(self, x, y):
        """x / y when it is integral, else None."""
        num, den = self.split_quotient(x, y)
        if num[0] % den or num[1] % den:
            return None
        return (num[0] // den, num[1] // den)

    def nearest(self, num, den):
        """The nearest integral element to num/den; ties go to the smaller
        (u, v) coordinate pair."""
        if self.d is None:
            n = num[0] // den
            return (n + 1, 0) if 2 * (num[0] - n * den) > den else (n, 0)
        u0, v0 = num[0] // den, num[1] // den
        best = None
        for n in range(v0 - 3, v0 + 4):
            for m in range(u0 - 3, u0 + 4):
                diff = (num[0] - m * den, num[1] - n * den)
                key = (self.norm(diff), m, n)
                if best is None or key < best:
                    best = key
        return (best[1], best[2])

    def divmod(self, a, b):
        num, den = self.split_quotient(a, b)
        q = self.nearest(num, den)
        return q, self.sub(a, self.mul(q, b))

    def xgcd(self, a, b):
        r0, r1 = a, b
        s0, s1 = (1, 0), (0, 0)
        t0, t1 = (0, 0), (1, 0)
        while r1 != (0, 0):
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        return r0, s0, t0

    def normalize(self, x):
        """The program's canonical associate: positive over Q, otherwise the
        unit multiple with the smallest (sign u, sign v, u, v)."""
        if self.d is None:
            return x if x[0] > 0 else (-x[0], 0)
        sgn = lambda t: (t > 0) - (t < 0)
        return min(
            (self.mul(x, e) for e in self.units),
            key=lambda y: (sgn(y[0]), sgn(y[1]), y[0], y[1]),
        )

    def gcd(self, xs):
        g = (0, 0)
        for h in xs:
            while h != (0, 0):
                if g == (0, 0):
                    g, h = h, (0, 0)
                else:
                    _, r = self.divmod(g, h)
                    g, h = h, r
        return self.normalize(g)


def _primitive(ring, p):
    g = ring.gcd(p)
    return tuple(ring.exact_div(t, g) for t in p)


def _descend_once(ring, coeffs, p):
    a, b, c = coeffs
    a0, b0, g0 = p
    g, s, t = ring.xgcd(b0, a0)
    q, r = ring.divmod(c, g)
    if r != (0, 0):
        raise Stalled(p)
    alpha0, beta0 = ring.mul(s, q), ring.scale(ring.mul(t, q), -1)
    mul, add = ring.mul, ring.add
    best = None
    for shift in ring.shifts:
        alpha = add(alpha0, mul(shift, a0))
        beta = add(beta0, mul(shift, b0))
        lin = add(mul(mul(a, a0), alpha), mul(mul(b, b0), beta))
        num, den = ring.split_quotient(ring.scale(lin, -1), mul(c, g0))
        gamma = ring.nearest(num, den)
        qq = add(add(mul(a, mul(alpha, alpha)), mul(b, mul(beta, beta))), mul(c, mul(gamma, gamma)))
        rr = add(lin, mul(mul(c, g0), gamma))
        cand = tuple(
            ring.exact_div(ring.sub(mul(t0, qq), ring.scale(mul(t1, rr), 2)), c)
            for t0, t1 in ((a0, alpha), (b0, beta), (g0, gamma))
        )
        if None in cand or all(t == (0, 0) for t in cand):
            continue
        if best is None or ring.norm(cand[2]) < ring.norm(best[2]):
            best = cand
    if best is None or ring.norm(best[2]) >= ring.norm(g0):
        raise Stalled(p)
    return best


def reduce(d, coeffs, start):
    """The reduced point, or raise Stalled.  coeffs and start are integral
    (u, v) pairs and start lies on the conic."""
    ring = Ring(d)
    csq = HOLZER_C_SQ[d]
    bound = csq * abs(ring.norm(coeffs[0]) * ring.norm(coeffs[1]))
    cur = _primitive(ring, start)
    for _ in range(MAX_STEPS):
        nz = ring.norm(cur[2])
        if Fraction(nz * nz) <= bound:
            return cur
        cur = _primitive(ring, _descend_once(ring, coeffs, cur))
    raise Stalled(cur)
