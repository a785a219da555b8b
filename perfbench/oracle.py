"""Checks on the program's outputs that use none of the program's code.

Elements of Q(sqrt(d)) are pairs (u, v) of Fractions meaning u + v*w over
the integral basis {1, w}: w = (1+sqrt(d))/2 when d = 1 (mod 4) and
w = sqrt(d) otherwise.  d is None for Q, where v is always 0.  Everything
here is plain integer and Fraction arithmetic, so a fault in the program's
own field, ideal or residue code cannot hide behind the same fault here.
"""

from __future__ import annotations

import re
from fractions import Fraction

# C^2 in Holzer's bound |z|^2 <= C*|ab|, written as N(z)^2 <= C^2 |N(a)N(b)|,
# for Q and the five Euclidean imaginary quadratic fields.
HOLZER_C_SQ = {
    None: Fraction(1),
    -1: Fraction(2),
    -2: Fraction(4),
    -3: Fraction(3, 2),
    -7: Fraction(7, 3),
    -11: Fraction(11, 2),
}


def _w_square(d):
    """(k, t) with w^2 = k + t*w."""
    if d % 4 == 1:
        return (d - 1) // 4, 1
    return d, 0


def elem(u, v=0):
    return (Fraction(u), Fraction(v))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def mul(d, x, y):
    if d is None:
        return (x[0] * y[0], Fraction(0))
    k, t = _w_square(d)
    u1, v1 = x
    u2, v2 = y
    return (u1 * u2 + k * v1 * v2, u1 * v2 + u2 * v1 + t * v1 * v2)


def norm(d, x):
    u, v = x
    if d is None:
        return u * u
    if d % 4 == 1:
        return u * u + u * v + v * v * Fraction(1 - d, 4)
    return u * u - d * v * v


def is_zero(x):
    return x[0] == 0 and x[1] == 0


def is_integral(x):
    return x[0].denominator == 1 and x[1].denominator == 1


def from_s(d, p, q):
    """The element p + q*sqrt(d) in w-coordinates."""
    p, q = Fraction(p), Fraction(q)
    if d is None or d % 4 != 1:
        return (p, q)
    return (p - q, 2 * q)  # sqrt(d) = 2w - 1


def evaluate(d, coeffs, point):
    """a*x^2 + b*y^2 + c*z^2 for coeffs (a, b, c) and point (x, y, z)."""
    total = elem(0)
    for c, x in zip(coeffs, point):
        total = add(total, mul(d, c, mul(d, x, x)))
    return total


def is_solution(d, coeffs, point):
    """Nontrivial and on the conic."""
    return not all(is_zero(t) for t in point) and is_zero(evaluate(d, coeffs, point))


def meets_holzer_bound(d, coeffs, z):
    nz = norm(d, z)
    return nz * nz <= HOLZER_C_SQ[d] * abs(norm(d, coeffs[0]) * norm(d, coeffs[1]))


# -- the element grammar -----------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?([sw]?)")


def parse(d, text):
    """Read INT, p/q, s = sqrt(d) and w = omega terms joined by + or -."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty element")
    rat = s_part = w_part = Fraction(0)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, coef, sym = m.groups()
        if m.end() == pos or not (coef or sym) or (pos and not sign):
            raise ValueError(f"bad element {text!r}")
        value = Fraction(coef or 1) * (-1 if sign == "-" else 1)
        if sym == "s":
            s_part += value
        elif sym == "w":
            w_part += value
        else:
            rat += value
        pos = m.end()
    if d is None and (s_part or w_part):
        raise ValueError(f"{text!r} is not rational")
    return add(from_s(d, rat, s_part), elem(0, w_part))


# -- local verdicts ----------------------------------------------------------


def v2(n):
    n = abs(int(n))
    if n == 0:
        raise ValueError("v2 of 0")
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def v2_norm(d, x):
    """The 2-adic valuation of the norm of an integral element."""
    return v2(norm(d, x))


def legendre(a, p):
    """Euler's criterion for an odd prime p: 1, -1 or 0."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def w_roots_mod(d, p, k=1):
    """Roots mod p^k of w's minimal polynomial at a prime p unramified in K
    and split, lifted by Newton's method (the derivative is a unit)."""
    kk, t = _w_square(d)
    f = lambda r: r * r - t * r - kk
    df = lambda r: 2 * r - t
    roots = [r for r in range(p) if f(r) % p == 0]
    out = []
    m = p**k
    for r in roots:
        for _ in range(k.bit_length() + 1):
            r = (r - f(r) * pow(df(r), -1, m)) % m
        assert f(r) % m == 0
        out.append(r)
    return out


def image(x, r, m):
    """The image of an integral element under w -> r, in Z/m."""
    return (int(x[0]) + int(x[1]) * r) % m


def hilbert2(a, b):
    """The 2-adic Hilbert symbol (a, b)_2 of nonzero rational integers."""
    alpha, beta = v2(a), v2(b)
    u, v = a >> alpha, b >> beta
    eps = lambda t: ((t - 1) // 2) % 2
    om = lambda t: ((t * t - 1) // 8) % 2
    e = eps(u) * eps(v) + alpha * om(v) + beta * om(u)
    return -1 if e % 2 else 1


def dyadic_split_fails(d, coeffs, bits=64):
    """True when a prime P over 2 splits off with K_P = Q_2 and the conic
    has no point over Q_2 there: (-ac, -bc)_2 = -1.  d is None or 1 mod 8."""
    roots = [0] if d is None else w_roots_mod(d, 2, bits)
    m = 1 << bits
    a, b, c = coeffs
    for r in roots:
        # Residues mod 2^bits keep the valuation and the unit part mod 8
        # of the 2-adic images, which is all the symbol reads.
        ia, ib, ic = (image(t, r, m) for t in (a, b, c))
        if hilbert2(-ia * ic % m, -ib * ic % m) == -1:
            return True
    return False


def odd_split_fails(d, coeffs, p):
    """True when, at a prime P over the odd prime p split in K (K_P = Q_p),
    one coefficient has valuation 1, the other two are units and minus
    their product is a non-residue: the conic has no point over Q_p."""
    roots = [0] if d is None else w_roots_mod(d, p, 2)
    a, b, c = coeffs
    for r in roots:
        if d is None:
            ia, ib, ic = (int(t[0]) for t in (a, b, c))
        else:
            ia, ib, ic = (image(t, r, p * p) for t in (a, b, c))
        vals = [(t % p == 0) + (t % (p * p) == 0) for t in (ia, ib, ic)]
        if sorted(vals) != [0, 0, 1]:
            continue
        units = [t for t, v in zip((ia, ib, ic), vals) if v == 0]
        if legendre(-units[0] * units[1], p) == -1:
            return True
    return False


def real_signs_mixed(d, coeffs):
    """At every real embedding the three coefficients do not share a sign."""
    if d is not None and d < 0:
        return True
    embeds = [1] if d is None else [1, -1]
    for e in embeds:
        signs = {_sign_real(d, c, e) for c in coeffs}
        if len(signs) == 1:
            return False
    return True


def _sign_real(d, x, e):
    """Sign of p + e*q*sqrt(d) for x = p + q*sqrt(d), exactly."""
    u, v = x
    if d is None:
        return (u > 0) - (u < 0)
    p, q = (u + v / 2, v / 2) if d % 4 == 1 else (u, v)
    q = e * q
    sign = lambda t: (t > 0) - (t < 0)
    if p == 0 or sign(p) == sign(q) or p * p < q * q * d:
        return sign(q) or sign(p)
    return sign(p)
