"""Integral ideals of O_K in Hermite normal form.

An ideal is stored as the row lattice of [[a, 0], [b, c]] over the basis
{1, omega}: generated by the elements a and b + c*omega, with a, c > 0 and
0 <= b < a.  Over Q an ideal degenerates to (n) with n = a, c = 1, b = 0.

The local data at a prime ideal P (valuations of ideals and elements, the
powers P^k, the residue of omega modulo P^k) are computed from integers in
closed form, with no ideal product (Cohen, A Course in Computational
Algebraic Number Theory, 4.8 and 5.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .errors import FactorizationFailed, UndecidedError
from .fields import (
    FieldDescriptor,
    FieldElement,
    integer_ring,
    normalize_associate,
    require_integral,
)

# -- integer factorization backend ------------------------------------------

_TRIAL_LIMIT = 10**6
_RHO_EFFORT = 10**6

# A race between threads only computes an entry twice: a dict get or set is
# atomic under the interpreter lock.
_factor_cache: dict[int, tuple[int, ...]] = {}


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> Optional[int]:
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += m
            if count > _RHO_EFFORT:
                return None
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def factor_int(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as sorted (p, e) pairs."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    cached = _factor_cache.get(n)
    if cached is not None:
        primes = list(cached)
    else:
        primes = []
        m = n
        p = 2
        while p * p <= m and p <= _TRIAL_LIMIT:
            while m % p == 0:
                primes.append(p)
                m //= p
            p += 1 if p == 2 else 2
        stack = [m] if m > 1 else []
        rng = random.Random(0xC0FFEE ^ n)
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_probable_prime(m):
                primes.append(m)
                continue
            d = None
            for _ in range(20):
                d = _brent_rho(m, rng)
                if d is not None and d != m:
                    break
                d = None
            if d is None:
                raise FactorizationFailed(f"could not factor {m}")
            stack.extend([d, m // d])
        primes.sort()
        _factor_cache[n] = tuple(primes)
    out: list[tuple[int, int]] = []
    for p in primes:
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + 1)
        else:
            out.append((p, 1))
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- HNF helpers -------------------------------------------------------------


def hnf_rows(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the lattice spanned by rows (u, v) = u + v*omega.

    Returns the basis {a, b + c*omega} with a, c > 0, 0 <= b < a.
    Raises ValueError if the lattice is not of full rank.
    """
    rows = [(int(u), int(v)) for (u, v) in rows if (u, v) != (0, 0)]
    if not rows:
        raise ValueError("zero lattice")
    # Reduce the v-column to a single row by extended gcd.
    c = 0
    b = 0
    pure: list[int] = []  # u-values of rows with v == 0
    for u, v in rows:
        if v == 0:
            pure.append(u)
            continue
        if c == 0:
            b, c = u, v
        else:
            g, x, y = _ext_gcd(c, v)
            # x*c + y*v = g; new combined row, leftover goes to pure rows.
            nb = x * b + y * u
            pure.append((b * v - u * c) // g)
            b, c = nb, g
    if c < 0:
        b, c = -b, -c
    a = 0
    for u in pure:
        a = math.gcd(a, abs(u))
    if a == 0 or c == 0:
        raise ValueError("lattice not of full rank")
    b %= a
    return a, b, c


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def lattice_express(
    rows: list[tuple[int, int]], target: tuple[int, int]
) -> Optional[list[int]]:
    """Integer coefficients expressing target in the row lattice, or None.

    Rows and target live in Z^2 (coordinates over {1, omega}).
    """
    k = len(rows)
    work = []  # (u, v, coefficient vector over the input rows)
    for i, (u, v) in enumerate(rows):
        coeffs = [0] * k
        coeffs[i] = 1
        work.append((int(u), int(v), coeffs))

    def combine(c1, c2, x, y):
        return [x * a + y * b for a, b in zip(c1, c2)]

    # Reduce the omega column to one row via extended gcd.
    pivot = None  # (b, c, coeffs)
    pure = []  # rows with v == 0
    for u, v, cf in work:
        if v == 0:
            pure.append((u, cf))
            continue
        if pivot is None:
            pivot = (u, v, cf)
            continue
        b, c, pcf = pivot
        g, x, y = _ext_gcd(c, v)
        new_pivot = (x * b + y * u, g, combine(pcf, cf, x, y))
        leftover = ((b * v - u * c) // g, combine(pcf, cf, v // g, -(c // g)))
        pivot = new_pivot
        pure.append(leftover)
    # Reduce the rational column.
    acc = None  # (a, coeffs)
    for u, cf in pure:
        if u == 0:
            continue
        if acc is None:
            acc = (u, cf)
            continue
        a, acf = acc
        g, x, y = _ext_gcd(a, u)
        acc = (g, combine(acf, cf, x, y))
    tu, tv = int(target[0]), int(target[1])
    if pivot is None:
        if tv != 0:
            return None
        beta_part = [0] * k
    else:
        b, c, pcf = pivot
        if tv % c != 0:
            return None
        q = tv // c
        beta_part = [q * x for x in pcf]
        tu -= q * b
    if acc is None:
        if tu != 0:
            return None
        return beta_part
    a, acf = acc
    if tu % a != 0:
        return None
    q = tu // a
    return [q * x + y for x, y in zip(acf, beta_part)]


# -- Ideal / PrimeIdeal ------------------------------------------------------


class Ideal:
    """Nonzero integral ideal in HNF; over Q just (n) with n > 0."""

    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field: FieldDescriptor, a: int, b: int = 0, c: int = 1):
        if a <= 0 or c <= 0:
            raise ValueError("HNF requires a, c > 0")
        self.field = field
        self.a = a
        self.b = b % a if not field.is_rational else 0
        self.c = c if not field.is_rational else 1

    @property
    def norm(self) -> int:
        return self.a * self.c

    def basis_elements(self) -> list[FieldElement]:
        if self.field.is_rational:
            return [self.field.element(self.a)]
        return [self.field.element(self.a), self.field.element(self.b, self.c)]

    def contains(self, x: FieldElement) -> bool:
        require_integral(x)
        if self.field.is_rational:
            return int(x.u) % self.a == 0
        u, v = int(x.u), int(x.v)
        if v % self.c != 0:
            return False
        return (u - (v // self.c) * self.b) % self.a == 0

    def reduce(self, x: FieldElement) -> FieldElement:
        """Canonical representative of x modulo this ideal (HNF domain)."""
        require_integral(x)
        return self.field.element(*self.reduce_pair((int(x.u), int(x.v))))

    def reduce_pair(self, x: tuple[int, int]) -> tuple[int, int]:
        """reduce on the integer pair (u, v) of u + v*omega."""
        u, v = x
        if self.field.is_rational:
            return u % self.a, 0
        q, v2 = divmod(v, self.c)  # floor for canonicality; v2 in [0, c)
        return (u - q * self.b) % self.a, v2

    def residues(self):
        """Iterate over canonical representatives of O_K / I."""
        if self.field.is_rational:
            for u in range(self.a):
                yield self.field.element(u)
            return
        for v in range(self.c):
            for u in range(self.a):
                yield self.field.element(u, v)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.field != other.field:
            raise ValueError("ideals of different fields")
        if self.field.is_rational:
            return Ideal(self.field, self.a * other.a)
        rows = []
        for x in self.basis_elements():
            for y in other.basis_elements():
                z = x * y
                rows.append((int(z.u), int(z.v)))
                zo = z * self.field.omega()
                rows.append((int(zo.u), int(zo.v)))
        a, b, c = hnf_rows(rows)
        return Ideal(self.field, a, b, c)

    def __pow__(self, k: int) -> "Ideal":
        if k < 0:
            raise ValueError("negative ideal power")
        result = unit_ideal(self.field)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return (
            self.field == other.field
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b, self.c))

    def __repr__(self):
        if self.field.is_rational:
            return f"Ideal({self.a})"
        return f"Ideal[[{self.a},0],[{self.b},{self.c}]] of {self.field}"


def unit_ideal(field: FieldDescriptor) -> Ideal:
    return Ideal(field, 1, 0, 1)


def ideal_from_generators(field: FieldDescriptor, gens: list[FieldElement]) -> Ideal:
    gens = [require_integral(g) for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("zero ideal")
    if field.is_rational:
        n = reduce(math.gcd, (abs(int(g.u)) for g in gens))
        return Ideal(field, n)
    rows = []
    for g in gens:
        rows.append((int(g.u), int(g.v)))
        go = g * field.omega()
        rows.append((int(go.u), int(go.v)))
    a, b, c = hnf_rows(rows)
    return Ideal(field, a, b, c)


def principal_ideal(x: FieldElement) -> Ideal:
    return ideal_from_generators(x.field, [x])


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal over the rational prime p, as (p, second_gen)."""

    field: FieldDescriptor
    p: int
    e: int  # ramification index
    f: int  # residue degree
    second_gen: FieldElement

    @property
    def residue_size(self) -> int:
        return self.p**self.f

    def ideal(self) -> Ideal:
        return prime_power(self, 1)

    def __repr__(self):
        from .fields import format_element

        if self.field.is_rational or self.f == 2:
            return f"({self.p})"
        return f"({self.p}, {format_element(self.second_gen)})"


def splitting_type(field: FieldDescriptor, p: int) -> tuple[str, list[PrimeIdeal]]:
    """Split/Inert/Ramified with the primes above p."""
    if field.is_rational:
        return "Split", [PrimeIdeal(field, p, 1, 1, field.element(0))]
    disc = field.disc
    if disc % p == 0:
        # Ramified.  Pick a second generator of valuation exactly 1.
        if p == 2:
            d = field.d
            if d % 4 == 2:
                g = field.sqrt_gen()
            else:  # d % 4 == 3 (mod 4 congruence of d, negative handled by %)
                g = field.element(1) + field.sqrt_gen()
        else:
            if field.d % p == 0:
                g = field.sqrt_gen()
            else:
                # p | disc but p odd forces p | d, so this cannot happen.
                raise AssertionError("odd ramified prime must divide d")
        return "Ramified", [PrimeIdeal(field, p, 2, 1, g)]
    sym = kronecker(disc, p)
    if sym == -1:
        return "Inert", [PrimeIdeal(field, p, 1, 2, field.element(p))]
    # Split: find a root of the minimal polynomial of omega mod p.
    r = _omega_root_mod(field, p)
    g1 = field.omega() - field.element(r)
    g2 = g1.conj()
    P1 = PrimeIdeal(field, p, 1, 1, g1)
    P2 = PrimeIdeal(field, p, 1, 1, g2)
    if P1.ideal() == P2.ideal():  # pragma: no cover - sanity only
        raise AssertionError("split primes coincide")
    return "Split", [P1, P2]


def _omega_root_mod(field: FieldDescriptor, p: int) -> int:
    """Root mod p of omega's minimal polynomial (p split)."""
    if field.omega_kind == "sqrt_d":
        s = _sqrt_mod_p(field.d % p, p)
        assert s is not None
        return s
    if p == 2:
        c = ((field.d - 1) // 4) % 2
        assert c == 0  # split at 2 requires d = 1 (mod 8)
        return 0  # omega = 0 or 1 mod the two primes; pick 0
    s = _sqrt_mod_p(field.d % p, p)
    assert s is not None
    return (1 + s) * pow(2, p - 2, p) % p


def _sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """Tonelli-Shanks square root mod an odd prime (or p = 2)."""
    a %= p
    if p == 2 or a == 0:
        return a % p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def omega_root(P: PrimeIdeal, k: int = 1) -> int:
    """The integer r in [0, p^k) with omega = r (mod P^k), for a degree-1
    prime P (r in [0, p) when k <= 1).

    Mod P it is read off the second generator s0 + s1*omega of P.  For k > 1
    P must be unramified, and r is the Hensel lift of that simple root of
    omega's minimal polynomial.  The lift also works at 2: 2 splits only when
    omega = (1 + sqrt(d))/2, and the derivative 2*omega - 1 is odd.
    """
    field, p = P.field, P.p
    s0, s1 = int(P.second_gen.u), int(P.second_gen.v)
    r = -s0 * pow(s1, -1, p) % p
    if k <= 1:
        return r
    if P.e == 2:
        # omega's polynomial has a double root mod a ramified p, and the
        # integer image is only correct mod P, not mod P^k.
        raise AssertionError("no integer model for ramified prime powers")
    # omega's minimal polynomial is g(r) = N(r - omega), g'(r) = 2r - t.
    ring = integer_ring(field)
    j = 1
    while j < k:
        j = min(2 * j, k)
        pj = p**j
        r = (r - ring.norm((r, -1)) * pow(2 * r - ring.t, -1, pj)) % pj
    return r


def prime_power(P: PrimeIdeal, k: int) -> Ideal:
    """P^k in HNF, from integers.

    Over Q and at an inert P it is (p^k).  A ramified P has P^2 = (p), so
    P^(2m) = (p^m) and P^(2m+1) = p^m*P, where P = (p, omega - r) with
    omega = r (mod P).  A split P^k is (p^k, omega - r_k) with
    omega = r_k (mod P^k): its HNF is [[p^k, 0], [-r_k mod p^k, 1]].
    """
    if k < 0:
        raise ValueError("negative ideal power")
    field, p = P.field, P.p
    if field.is_rational:
        return Ideal(field, p**k)
    if P.f == 2:
        return Ideal(field, p**k, 0, p**k)
    if P.e == 2:
        m, odd = divmod(k, 2)
        q = p**m
        if odd:
            return Ideal(field, q * p, -q * omega_root(P), q)
        return Ideal(field, q, 0, q)
    return Ideal(field, p**k, -omega_root(P, k), 1)


def _vp(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _scaled_valuation(P: PrimeIdeal, g: int, n: int, u: int, v: int) -> int:
    """v_P(g*J) for a rational integer g and a primitive ideal J of norm n.

    J is divisible by no rational integer above 1, so its part over p is a
    power of one prime of degree 1: v_P(J) = v_p(n) if P contains J, else 0.
    An inert P never contains J; a ramified P contains J when p | n; a split
    P when p | n and the element u + v*omega of J lies in P.
    """
    p = P.p
    k = P.e * _vp(g, p)
    if P.f == 2 or n % p:
        return k
    if P.e == 1 and (u + v * omega_root(P)) % p:
        return k
    return k + _vp(n, p)


def valuation(I: Ideal, P: PrimeIdeal) -> int:
    """v_P(I) in closed form from the HNF [[a, 0], [b, c]] of I.

    c divides a and b, so I = c*J with J = (a/c, b/c + omega) primitive of
    norm a/c, and v_P(I) = e_P*v_p(c) + v_P(J).  Over Q it is v_p(a).
    """
    if I.field.is_rational:
        return _vp(I.a, P.p)
    c = I.c
    return _scaled_valuation(P, c, I.a // c, I.b // c, 1)


def element_valuation(x: FieldElement, P: PrimeIdeal) -> int:
    """v_P(x) in closed form for a nonzero algebraic integer x.

    With g the gcd of x's coordinates, x = g*y and (y) is primitive of norm
    |N(x)|/g^2, so v_P(x) = e_P*v_p(g) + v_P((y)).
    """
    require_integral(x)
    if x.is_zero:
        raise ValueError("valuation of zero")
    u, v = int(x.u), int(x.v)
    if x.field.is_rational:
        return _vp(u, P.p)
    g = math.gcd(u, v)
    n = abs(integer_ring(x.field).norm((u, v)))
    return _scaled_valuation(P, g, n // (g * g), u // g, v // g)


def factor_ideal(I: Ideal) -> list[tuple[PrimeIdeal, int]]:
    """Prime factorization of a nonzero integral ideal."""
    if I.norm == 1:
        return []
    out: list[tuple[PrimeIdeal, int]] = []
    for p, _ in factor_int(I.norm):
        _, primes = splitting_type(I.field, p)
        for P in primes:
            e = valuation(I, P)
            if e > 0:
                out.append((P, e))
    # Sanity: norms must multiply back.
    total = 1
    for P, e in out:
        total *= P.residue_size**e
    assert total == I.norm, "ideal factorization norm mismatch"
    return out


# -- principality ------------------------------------------------------------

REAL_PRINCIPAL_BOUND = 400


def is_principal(I: Ideal) -> Optional[FieldElement]:
    """A generator of I if principal, else None (imaginary/Q: decisive).

    For real quadratic fields the search is bounded; exhaustion raises
    UndecidedError rather than claiming non-principality.
    """
    field = I.field
    if field.is_rational:
        return field.element(I.a)
    N = I.norm
    d = field.d
    if d < 0:
        for cand in _elements_of_norm_imaginary(field, N):
            if principal_ideal(cand) == I:
                return normalize_associate(cand)
        return None
    # Real quadratic: bounded search over |N(m + n*omega)| = N.
    B = REAL_PRINCIPAL_BOUND
    for n in range(-B, B + 1):
        for target in (N, -N):
            if field.omega_kind == "sqrt_d":
                # m^2 = d n^2 + target
                m2 = d * n * n + target
                if m2 < 0:
                    continue
                m = math.isqrt(m2)
                if m * m != m2:
                    continue
                cands = [field.element(m, n), field.element(-m, n)]
            else:
                # (2m + n)^2 = d n^2 + 4*target
                t2 = d * n * n + 4 * target
                if t2 < 0:
                    continue
                t = math.isqrt(t2)
                if t * t != t2 or (t - n) % 2 != 0:
                    continue
                cands = [
                    field.element((t - n) // 2, n),
                    field.element((-t - n) // 2, n),
                ]
            for x in cands:
                if not x.is_zero and principal_ideal(x) == I:
                    return x
    raise UndecidedError(
        f"principality of {I!r} undecided within coordinate bound {B}"
    )


def _elements_of_norm_imaginary(field: FieldDescriptor, N: int):
    """All m + n*omega in O_K with norm N (d < 0), up to sign redundancy."""
    d = field.d
    if field.omega_kind == "sqrt_d":
        # m^2 + |d| n^2 = N
        nmax = math.isqrt(N // abs(d)) if N >= abs(d) else 0
        for n in range(-nmax, nmax + 1):
            m2 = N - abs(d) * n * n
            m = math.isqrt(m2)
            if m * m == m2:
                yield field.element(m, n)
                if m:
                    yield field.element(-m, n)
    else:
        # (2m + n)^2 + |d| n^2 = 4N
        nmax = math.isqrt(4 * N // abs(d)) if 4 * N >= abs(d) else 0
        for n in range(-nmax, nmax + 1):
            t2 = 4 * N - abs(d) * n * n
            t = math.isqrt(t2)
            if t * t == t2 and (t - n) % 2 == 0:
                yield field.element((t - n) // 2, n)
                if t:
                    yield field.element((-t - n) // 2, n)


def square_decompose(t: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Write t = t1 * t2^2 with (t2) the principal ideal of maximal norm
    whose square divides (t), so (t1) has no principal square divisor."""
    require_integral(t)
    if t.is_zero:
        raise ValueError("square_decompose of zero")
    field = t.field
    if field.is_rational:
        n = int(t.u)
        t2 = 1
        for p, e in factor_int(n):
            t2 *= p ** (e // 2)
        return field.element(n // (t2 * t2)), field.element(t2)
    factors = factor_ideal(principal_ideal(t))
    root = [(P, e // 2) for P, e in factors if e >= 2]
    if not root:
        return t, field.one()
    # Enumerate divisors of the square-part root, largest norm first.
    divisors = [unit_ideal(field)]
    for P, e in root:
        divisors = [
            D * prime_power(P, k) for D in divisors for k in range(e + 1)
        ]
    divisors.sort(key=lambda D: -D.norm)
    for D in divisors:
        if D.norm == 1:
            break
        try:
            g = is_principal(D)
        except UndecidedError:
            continue  # honest fallback: skip candidates we cannot certify
        if g is not None:
            t1 = t / (g * g)
            assert t1.is_integral
            return t1, g
    return t, field.one()
