"""Solutions of a*x^2 + b*y^2 + c*z^2 = 0: one lattice reduction over Q, and
a Legendre-style descent on x^2 - A*y^2 = B*z^2 over the quadratic fields.

Over Q (_rational_point) one LLL reduction of a rank-3 lattice gives a zero,
from the factorisations of a, b and c alone, with no recursion; a rational
norm form over a quadratic field is solved there first.

Over a quadratic field each step puts the coefficient of larger |N| first,
factors (B) = M^2*S once, with S squarefree, takes a small root w of A mod S
and reduces the congruence lattice of B (lattice), weighted per embedding,
whose short pair (a0, b0) gives t = (a0^2 - A*b0^2)/B.  While
|N(t)| < |N(B)| the descent recurses on (A, t1), t1 the part of t free of
principal squares, and composes by the multiplicativity of x^2 - A*y^2
(Cremona and Rusin, 2003; Simon, 2005), with no unit balancing.  A unit B,
or a t that does not shrink, ends in one search over pairs (y, z) in the
reduced basis of the same weighted lattice, which Hasse-Minkowski ends.
Only the norms of a, b, c and of each quotient t are factored, once each.

solve_conic runs on kernel values, ints over Q and pairs otherwise, from
one local check on the normal or norm form to the primitive point, which is
checked on the conic in integers and made elements once.  A DescentTrace
stores the kernel values of each step and makes elements only when read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NotSolvable, PellSearchExhausted
from .fields import (
    INTS,
    RATIONAL,
    FieldDescriptor,
    FieldElement,
    elem_sqrt,
    elements_of,
    format_element,
    integer_ring,
    require_integral,
    round_quotient,
)
from .ideals import factor_ideal, factor_int, prime_power, principal_ideal
from .ideals import square_decompose, unit_ideal
from .lattice import combine, lll_reduce, module_basis, reduce_pairs
from .lattice import short_congruence_pair
from .residues import sqrt_mod_ideal
from .solvability import ConicEquation, check_solvable

DEFAULT_PELL_BOUND = 200
MAX_DEPTH = 80


@dataclass(frozen=True)
class NormFormEquation:
    """x^2 - A*y^2 = B*z^2 with integral A, B."""

    A: FieldElement
    B: FieldElement


@dataclass(frozen=True)
class SolutionTriple:
    x: FieldElement
    y: FieldElement
    z: FieldElement

    @property
    def is_trivial(self) -> bool:
        return self.x.is_zero and self.y.is_zero and self.z.is_zero

    def __repr__(self):
        return (
            f"({format_element(self.x)}, {format_element(self.y)}, "
            f"{format_element(self.z)})"
        )


def _formatted(value):
    if isinstance(value, FieldElement):
        return format_element(value)
    if isinstance(value, list):
        return [_formatted(v) for v in value]
    return value


class DescentTrace:
    """Recorded steps of a descent run, for inspection and JSON output.

    A step keeps the kernel values it was given and their ring; steps makes
    elements of them, and to_list() formats them."""

    def __init__(self):
        self._steps: list[tuple[object, dict]] = []

    def add(self, kind: str, ring, **info):
        self._steps.append((ring, {"step": kind, **info}))

    @property
    def steps(self) -> list[dict]:
        return [{k: elements_of(ring, v) for k, v in step.items()} for ring, step in self._steps]

    def to_list(self) -> list[dict]:
        return [{k: _formatted(v) for k, v in step.items()} for step in self.steps]


def _norm_form(eq: ConicEquation):
    """(ring, a, A1, A2, B1, B2, primes) with -a*b = A1*A2^2 and
    -a*c = B1*B2^2 as pairs of the kernel ring, and primes those of |N(a)|,
    |N(b)| and |N(c)|, each factored once.

    Every prime of -a*b, -a*c, their square-free parts and their norms (and
    of a rational A1 or B1 over a quadratic field) is one of primes, which
    square_decompose and the descent get, so none of those is trial-divided."""
    ring = integer_ring(eq.field)
    a, b, c = (ring.pair(x) for x in (eq.a, eq.b, eq.c))
    primes = set()
    for x in (a, b, c):
        primes.update(p for p, _ in factor_int(ring.norm(x), primes))
    A0, B0 = (ring.sub(ring.zero, ring.mul(a, x)) for x in (b, c))
    (A1, A2), (B1, B2) = (square_decompose(ring, x, primes) for x in (A0, B0))
    return ring, a, A1, A2, B1, B2, primes


def to_norm_form(
    eq: ConicEquation,
) -> tuple[NormFormEquation, Callable[[FieldElement, FieldElement, FieldElement], tuple]]:
    """Rewrite a*x^2 + b*y^2 + c*z^2 = 0 as X^2 - A*Y^2 = B*Z^2.

    Multiplying by a gives (a*x)^2 = (-a*b)*y^2 + (-a*c)*z^2; principal
    square parts of the new coefficients are absorbed into Y and Z.  The
    returned map sends a solution of the norm form back to a (rational)
    solution of the original equation.
    """
    ring, *values, _ = _norm_form(eq)
    a, A1, A2, B1, B2 = elements_of(ring, values)

    def back(x: FieldElement, y: FieldElement, z: FieldElement):
        return (x / a, y / A2, z / B2)

    return NormFormEquation(A1, B1), back


def _enumerate_small(field: FieldDescriptor, bound: int):
    """Nonzero-first enumeration of integral elements by weight, then size."""
    if field.is_rational:
        for n in range(0, bound + 1):
            yield field.element(n)
        return
    # Shell by shell (|u| + |v| = W), each shell in (u, v) order.
    for W in range(2 * bound + 1):
        for u in range(-min(W, bound), min(W, bound) + 1):
            r = W - abs(u)
            if r > bound:
                continue
            yield field.element(u, -r)
            if r:
                yield field.element(u, r)


def _enumerate_pairs(ring, a, b):
    """Pairs (y, z) of O_K^2, up to sign, as sum k_i*r_i over the rows r_i
    that reduce_pairs gives the length sum_i |sigma_i(a)|*sigma_i(y)^2 +
    |sigma_i(b)|*sigma_i(z)^2, by shells max|k_i| = W = 1, 2, ...  The rows
    are a Z-basis of O_K^2, so every nonzero pair comes once; y -> y/eta and
    a -> a*eta^2 leave the length alone, so the order does not see units."""
    one, zero = ring.one, ring.zero
    rows = reduce_pairs(ring, module_basis(ring, [(one, zero), (zero, one)]), (a, b, one))
    for W in itertools.count(1):
        for k in itertools.product(range(-W, W + 1), repeat=len(rows)):
            if max(map(abs, k)) == W and next(c for c in k if c) > 0:
                yield combine(k, rows)


def _norm_search(ring, A, B, trace: DescentTrace):
    """The base of the descent, for a unit B or a quotient t that does not
    shrink: the first pair (y, z) of _enumerate_pairs with A*y^2 + B*z^2 a
    square x^2, as kernel values of ring.

    The search ends.  At depth 0 the descent checks x^2 = A*y^2 + B*z^2
    locally solvable, and each step keeps it so: t*B = a0^2 - A*b0^2 is a
    norm from K(sqrt(A)), so (A, t)_v = (A, B)_v at every place v, and
    removing square factors or swapping A and B changes no symbol.  By
    Hasse-Minkowski the conic has a point, which scales to one with y, z in
    O_K, not both 0, and then x in O_K.  The rows of _enumerate_pairs are a
    Z-basis of O_K^2, so it reaches that pair or its negative.
    """
    trace.add("pell_fallback", ring, A=A, B=B)
    mul = ring.mul
    for y, z in _enumerate_pairs(ring, A, B):
        x = ring.sqrt(ring.add(mul(A, mul(y, y)), mul(B, mul(z, z))))
        if x is not None:
            return x, y, z


def solve_pell(
    A: FieldElement, B: FieldElement, bound: Optional[int] = None
) -> tuple[FieldElement, FieldElement]:
    """A solution (x, y) of x^2 - A*y^2 = B by bounded exact search."""
    if bound is None:
        bound = DEFAULT_PELL_BOUND
    field = A.field
    require_integral(A)
    require_integral(B)
    for y in _enumerate_small(field, bound):
        rhs = B + A * y * y
        x = elem_sqrt(rhs)
        if x is not None:
            return x, y
    raise PellSearchExhausted(
        f"no solution of x^2 - ({format_element(A)})*y^2 = {format_element(B)} "
        f"with coordinate bound {bound}"
    )


def _compose(ring, A, pair, inner, t12):
    """(a0*a1 + A*b0*b1, a1*b0 + a0*b1, t12*g1) for pair = (a0, b0) and
    inner = (a1, b1, g1), in ring's arithmetic."""
    mul, add = ring.mul, ring.add
    (a0, b0), (a1, b1, g1) = pair, inner
    return add(mul(a0, a1), mul(A, mul(b0, b1))), add(mul(a1, b0), mul(a0, b1)), mul(t12, g1)


def compose_solution(
    A: FieldElement,
    pair: tuple[FieldElement, FieldElement],
    inner: SolutionTriple,
    t1: FieldElement,
    t2: FieldElement,
) -> SolutionTriple:
    """Combine (a0, b0) with a solution of x^2 - A*y^2 = t1*z^2.

    Uses the norm identity
    (a0^2 - A b0^2)(a1^2 - A b1^2) = (a0 a1 + A b0 b1)^2 - A (a0 b1 + a1 b0)^2.
    The descent composes kernel values the same way; the operators of INTS
    serve FieldElements too.
    """
    return SolutionTriple(*_compose(INTS, A, pair, (inner.x, inner.y, inner.z), t1 * t2))


def _rational_point(coeffs, primes=(), trace: Optional[DescentTrace] = None):
    """A primitive point of a*x^2 + b*y^2 + c*z^2 = 0 over Q, as ints, for
    the nonzero ints coeffs, by one lattice reduction that factors only
    them (Cremona and Rusin, 2003; Simon, 2005), or NotSolvable.

    Legendre's normal form: with a = s_a*q_a^2, s_a square-free, the s's
    over their gcd g and g_ab = gcd(s_a, s_b), A = s_a*g_bc/(g_ab*g_ac), and
    B and C alike, are square-free and pairwise coprime, and
    X = g_ab*g_ac*q_a*x makes g*A*X^2 = g_ab*g_ac*g_bc*a*x^2, Y and Z alike.
    The check's root r of -BC mod an odd p | A puts (X, (r/B)*Z, Z) on
    Q = A*X^2 + B*Y^2 + C*Z^2 mod p, as X = (r/A)*Z at p | B, X = (r/A)*Y at
    p | C and Y = Z at 2 | A do.  By CRT these give the lattice
    L = <(x1, l, 1), (x2, A, 0), (|BC|, 0, 0)> of index |ABC|, where Q and
    its bilinear form (2*u_Z*v_Z at 2 | A) are 0 mod ABC: Q = ABC*H on L, H
    integral of determinant 1 and of signature (1, 2), Q being indefinite.
    LLL on L under F = |A|X^2 + |B|Y^2 + |C|Z^2, of determinant |ABC|^3,
    gives b1 with |Q(b1)| <= F(b1) <= alpha*|ABC|, alpha = 1/(DELTA - 1/4)
    < 2, so H(b1) is 0 or +-1.  A row with Q = 0 is a zero.  If H(b1) = 1,
    -H is positive definite of determinant 1 on the other rows b minus
    H(b, b1)*b1, whose LLL row w has 0 < -H(w) <= sqrt(alpha) < 2.
    Q(w) = -ABC, w = (x, y, z), makes (xz + By, yz - Ax, z^2 + AB) a zero,
    as Q of it is (z^2 + AB)*(Q(w) + ABC); that is (0, 0, 0) only if
    z^2 = -AB, so A = -B = +-1, and then (1, 1, 0) is a zero.
    """
    ring, primes, free, sq = integer_ring(RATIONAL), set(primes), [], []
    for x in coeffs:
        pairs = factor_int(x, primes)
        primes.update(p for p, _ in pairs)
        free.append(math.prod(p for p, e in pairs if e % 2) * (1 if x > 0 else -1))
        sq.append(math.prod(p ** (e // 2) for p, e in pairs))
    g = math.gcd(*free)
    a, b, c = (t // g for t in free)
    gab, gac, gbc = math.gcd(a, b), math.gcd(a, c), math.gcd(b, c)
    A, B, C = a // (gab * gac) * gbc, b // (gab * gbc) * gac, c // (gac * gbc) * gab
    dx, dy, dz = gab * gac * sq[0], gab * gbc * sq[1], gac * gbc * sq[2]
    if trace is not None:
        trace.add("norm_form", ring, a=(A, 0), b=(B, 0), c=(C, 0))
    cert = check_solvable(ring, (A, 0), (B, 0), (C, 0), primes)
    if not cert.solvable:
        raise NotSolvable(f"({A})x^2 + ({B})y^2 + ({C})z^2 = 0 fails the local conditions ({cert.reason})")
    roots = {2: 1} | {w["prime"].p: w["witness"].num[0] for w in cert.places if w["type"] == "odd_prime"}

    def crt(n, f):
        # The least sum over p | n of f(p)*e_p, e_p = 1 mod p and 0 mod n/p.
        t = sum(f(p) * (n // p) * pow(n // p, -1, p) for p in primes if n % p == 0)
        return t - round_quotient(t, n) * n

    bc = abs(B * C)
    l = crt(abs(A), lambda p: roots[p] * pow(B, -1, p))
    x1 = crt(bc, lambda p: roots[p] * pow(A, -1, p) * (1 if B % p == 0 else l))
    x2 = crt(bc, lambda p: 0 if B % p == 0 else roots[p])
    gens = [(x1, l, 1), (x2, A, 0), (bc, 0, 0)]
    form = lambda u, v, a=A, b=B, c=C: a * u[0] * v[0] + b * u[1] * v[1] + c * u[2] * v[2]
    gram = [[form(u, v, abs(A), abs(B), abs(C)) for v in gens] for u in gens]
    rows = [combine(ks, gens) for ks in lll_reduce(gram)[1]]
    point = next((v for v in rows if form(v, v) == 0), None)
    if point is None:
        w, *rest = rows
        if form(w, w) == A * B * C:
            cs = [combine((1, -form(b, w) // (A * B * C)), (b, w)) for b in rest]
            w = combine(lll_reduce([[-form(u, v) // (A * B * C) for v in cs] for u in cs])[1][0], cs)
        x, y, z = w
        point = (x * z + B * y, y * z - A * x, z * z + A * B) if z * z != -A * B else (1, 1, 0)
    point = (point[0] * dy * dz, point[1] * dx * dz, point[2] * dx * dy)
    g = math.gcd(*point)
    point = [t // g for t in point]
    assert _on_conic(INTS, coeffs, point), "lattice produced a non-solution"
    return point


def _try_rational_subfield(ring, A, B, primes):
    """The solution over Q, as pairs, for rational nonzero A and B, or None."""
    if A[1] or B[1] or not A[0] * B[0]:
        return None
    try:
        return tuple((t, 0) for t in _rational_point((1, -A[0], -B[0]), primes))
    except NotSolvable:
        return None


def legendre_descent(
    A: FieldElement,
    B: FieldElement,
    trace: Optional[DescentTrace] = None,
    _depth: int = 0,
    _ring=None,
    _primes=frozenset(),
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """A nonzero solution (x, y, z) of x^2 - A*y^2 = B*z^2: by descent over
    a quadratic field, each call one step, and by solve_conic over Q.

    The top-level call decides the local conditions once and raises
    NotSolvable when they fail (BaseDegenerate for a zero A or B); the
    recursive calls do not check again.  With _ring, A, B and the solution
    are its kernel values, and _primes the primes known so far.
    """
    if trace is None:
        trace = DescentTrace()
    if _depth > MAX_DEPTH:
        raise PellSearchExhausted("descent recursion exceeded its depth limit")
    if _ring is None and A.field.is_rational:
        sol = solve_conic(ConicEquation(A.field.one(), -A, -B), trace)
        return sol.x, sol.y, sol.z
    ring = _ring or integer_ring(A.field)
    if _ring is None:
        A, B = ring.pair(A), ring.pair(B)
    sol = _try_rational_subfield(ring, A, B, _primes) if _depth == 0 else None
    if sol is not None:
        trace.add("rational_subfield", ring)
    else:
        if _depth == 0:
            cert = check_solvable(ring, ring.one, ring.sub(ring.zero, A), ring.sub(ring.zero, B), _primes)
            if not cert.solvable:
                eA, eB = elements_of(ring, (A, B))
                raise NotSolvable(
                    f"x^2 - ({format_element(eA)})y^2 = ({format_element(eB)})z^2 "
                    f"fails the local conditions ({cert.reason})"
                )
        sol = _step(ring, A, B, trace, _depth, _primes)
    return sol if _ring is not None else elements_of(ring, sol)


def _step(ring, A, B, trace: DescentTrace, depth: int, primes):
    """One step of the descent on the kernel values A and B of ring.  primes
    hold every prime of |N(A)| and |N(B)|; the quotient t is factored once,
    and its primes join them for the next step."""
    # A perfect square A short-circuits everything: x = sqrt(A)*y.
    sq = ring.sqrt(A)
    if sq is not None:
        trace.add("square_discriminant", ring, sqrt=sq)
        return (sq, ring.one, ring.zero)

    norm_b = abs(ring.norm(B))
    if abs(ring.norm(A)) > norm_b:
        trace.add("swap", ring, A=A, B=B)
        x, y, z = legendre_descent(B, A, trace, depth + 1, ring, primes)
        return (x, z, y)

    if norm_b == 1:
        return _norm_search(ring, A, B, trace)

    # (B) = M^2 * S with S squarefree, from one factorization.  A root of A
    # mod S exists when the conditions hold: at an odd P | S not dividing A
    # the Hilbert symbol (A, B)_P = 1 says A is a square mod P; w = 0 at
    # P | A; over 2 every residue is a square.
    S, M = principal_ideal(ring, B), None
    factors = factor_ideal(S, primes)
    if any(e > 1 for _, e in factors):
        S = M = unit_ideal(ring.field)
        for P, e in factors:
            S, M = S * prime_power(P, e % 2), M * prime_power(P, e // 2)
    w = sqrt_mod_ideal(ring, A, S, [(P, 1) for P, e in factors if e % 2])
    assert w is not None, "no root of A modulo the squarefree part of (B)"

    a0, b0 = short_congruence_pair(ring, A, B, w, M)
    mul = ring.mul
    t = ring.exact_div(ring.sub(mul(a0, a0), mul(A, mul(b0, b0))), B)
    assert t is not None, "congruence pair must give an integral quotient"
    trace.add("reduce", ring, A=A, B=B, w=w, pair=[a0, b0], t=t)
    if not abs(ring.norm(t)) < norm_b:
        return _norm_search(ring, A, B, trace)
    primes = primes.union(p for p, _ in factor_int(ring.norm(t), primes))
    t1, t2 = square_decompose(ring, t, primes)
    inner = legendre_descent(A, t1, trace, depth + 1, ring, primes)
    x, y, z = _compose(ring, A, (a0, b0), inner, mul(t1, t2))
    assert ring.sub(mul(x, x), mul(A, mul(y, y))) == mul(B, mul(z, z)), "descent composition failed"
    return (x, y, z)


def verify(eq: ConicEquation, sol: SolutionTriple) -> bool:
    """True when sol is a nontrivial solution of eq, checked by _on_conic on
    the kernel pairs of its point over a common denominator."""
    if sol.is_trivial:
        return False
    _, point = _cleared(eq, sol)
    return _on_conic(integer_ring(eq.field), [t.num for t in (eq.a, eq.b, eq.c)], point)


def _cleared(eq: ConicEquation, sol: SolutionTriple):
    """(den, [den*x, den*y, den*z] as kernel pairs) for the least common
    denominator den of sol's coordinates, which must lie in eq's field."""
    point = (sol.x, sol.y, sol.z)
    if any(t.field is not eq.field for t in point):
        raise ValueError("elements of different fields")
    den = math.lcm(*(t.den for t in point))
    return den, [(t.num[0] * (den // t.den), t.num[1] * (den // t.den)) for t in point]


def _primitive_point(ring, point, divisors):
    """The primitive point on the ray through (x/a, y/A2, z/B2) for the pairs
    point = (x, y, z) and divisors = (a, A2, B2): the integral multiple by
    P = |N(a)*N(A2)*N(B2)|, P*t/d = t*conj(d)*(P/N(d)), over its content."""
    P = (abs(math.prod(ring.norm(d) for d in divisors)), 0)
    point = [ring.exact_div(ring.mul(P, t), d) for t, d in zip(point, divisors)]
    g = math.gcd(*(c for t in point for c in t))
    assert g, "descent produced a non-solution"
    return [(u // g, v // g) for u, v in point]


def _on_conic(ring, coeffs, point) -> bool:
    """a*x^2 + b*y^2 + c*z^2 == 0 on kernel values of ring (pairs or INTS)."""
    total = ring.zero
    for co, t in zip(coeffs, point):
        total = ring.add(total, ring.mul(co, ring.mul(t, t)))
    return total == ring.zero


def solve_conic(
    eq: ConicEquation,
    trace: Optional[DescentTrace] = None,
) -> SolutionTriple:
    """A nonzero integral solution of a*x^2 + b*y^2 + c*z^2 = 0.

    Raises NotSolvable when the equation fails the local conditions: its
    normal form over Q, or its norm form, has the same local conditions,
    and they are checked once.
    """
    if eq.field.is_rational:
        point = _rational_point([t.num[0] for t in (eq.a, eq.b, eq.c)], (), trace)
        return SolutionTriple(*(integer_ring(RATIONAL).element((t, 0)) for t in point))
    ring, a, A1, A2, B1, B2, primes = _norm_form(eq)
    if trace is not None:
        trace.add("norm_form", ring, A=A1, B=B1)
    sol = legendre_descent(A1, B1, trace, 0, ring, primes)
    point = _primitive_point(ring, sol, (a, A2, B2))
    coeffs = [ring.pair(t) for t in (eq.a, eq.b, eq.c)]
    assert _on_conic(ring, coeffs, point), "descent produced a non-solution"
    return SolutionTriple(*map(ring.element, point))
