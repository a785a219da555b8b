"""Integral ideals of O_K in Hermite normal form.

An ideal is stored as the row lattice of [[a, 0], [b, c]] over the basis
{1, omega}: generated by the elements a and b + c*omega, with a, c > 0 and
0 <= b < a.  Over Q an ideal degenerates to (n) with n = a, c = 1, b = 0.
Ideal owns this Z-basis (Ideal.basis), which products, principality and the
lattices of residues and lattice take.  Membership, products and ideals from
generators run on the integer kernel's (u, v) pairs.

The local data at a prime ideal P (valuations of ideals and elements, the
powers P^k, the residue of omega modulo P^k) are computed from integers in
closed form, with no ideal product (Cohen, A Course in Computational
Algebraic Number Theory, 4.8 and 5.2).

A rational prime p splits, stays inert or ramifies as omega's minimal
polynomial has two roots, none or a double root mod p; splitting_type reads
the split primes off that root, a root of d mod p moved by the kernel's
sqrt_d.

Principality is decided on every field with no search: over an imaginary
field by the shorter vector of the HNF basis after the kernel's rank-2 LLL
step, the one lattice shares, and over a real field by the cycle of reduced
binary quadratic forms of the ideal (Cohen, 5.6), which also yields the
unit that balances a generator.

principal_ideal, element_valuation and square_decompose are kernel forms
with the ring first (fields.kernel_edge): an IntegerRing with pairs; called
with a FieldElement, the edge converts it and the result.  factor_element,
on the check's path, takes the ring and a pair only.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Optional

from .errors import FactorizationFailed
from .fields import INTS, FieldDescriptor, FieldElement, IntegerRing, integer_ring, kernel_edge

# -- integer factorization backend ------------------------------------------

_RHO_EFFORT = 10**6
# Trial division runs through the primes below _SMALL_PRIMES_LIMIT.
_SMALL_PRIMES_LIMIT = 2**12


def _primes(hi: int) -> tuple[int, ...]:
    """The primes p < hi, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return tuple(itertools.compress(range(hi), sieve))


_SMALL_PRIMES = _primes(_SMALL_PRIMES_LIMIT)


def _trial_divide(m: int, out: list) -> int:
    """m with every prime p of _SMALL_PRIMES such that p*p <= m divided out,
    as (p, e) appended to out."""
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m, e = m // p, 1
            while m % p == 0:
                m, e = m // p, e + 1
            out.append((p, e))
    return m


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


def _perfect_power(m: int) -> Optional[tuple[int, int]]:
    """(r, k) with r^k = m for the least k >= 2, or None.  Each k-th root is
    Newton's method from above in integers."""
    for k in range(2, m.bit_length()):
        r = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = y
        if r**k == m:
            return r, k
    return None


def factor_int(n: int, primes=()) -> list[tuple[int, int]]:
    """Prime factorization of |n| as sorted (p, e) pairs, a function of n.

    The caller's known primes are divided out first, so a product of them is
    never trial-divided or split by rho.  Trial division by the primes below
    4096 leaves a cofactor that is prime below 4096^2; a larger one goes to
    Miller-Rabin, the perfect-power test and Brent's rho."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: list[tuple[int, int]] = []
    m = n
    for p in primes:
        if m % p == 0:
            m, e = m // p, 1
            while m % p == 0:
                m, e = m // p, e + 1
            out.append((p, e))
    if m > 1:
        m = _trial_divide(m, out)
    if m >= _SMALL_PRIMES_LIMIT**2:
        found, stack, rng = [], [m], None
        while stack:
            m = stack.pop()
            if is_probable_prime(m):
                found.append(m)
                continue
            # Rho would split a perfect power r^k only after about sqrt(r) steps.
            power = _perfect_power(m)
            if power is not None:
                stack.extend([power[0]] * power[1])
                continue
            rng = rng or random.Random(0xC0FFEE ^ n)
            d = None
            for _ in range(20):
                d = _brent_rho(m, rng)
                if d is not None and d != m:
                    break
                d = None
            if d is None:
                raise FactorizationFailed(f"could not factor {m}")
            stack.extend([d, m // d])
        out.extend((p, found.count(p)) for p in set(found))
    elif m > 1:
        out.append((m, 1))
    out.sort()
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

    One Bezout pass over the omega column gives the row (b, c) of the
    lattice with c = +-gcd of the v's.  Each row less v/c times it is
    (u - (v/c)*b, 0), and these span the rows with v = 0, so a is their gcd
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    rows = [(int(u), int(v)) for (u, v) in rows]
    if not any(u or v for u, v in rows):
        raise ValueError("zero lattice")
    b = c = 0
    for u, v in rows:
        c, x, y = INTS.xgcd(c, v)
        b = x * b + y * u
    if c < 0:
        b, c = -b, -c
    a = math.gcd(*(u - v // c * b for u, v in rows)) if c else 0
    if a == 0:
        raise ValueError("lattice not of full rank")
    return a, b % a, c


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

    @property
    def basis(self) -> list[tuple[int, int]]:
        """The Z-basis a, b + c*omega as pairs (a alone over Q)."""
        return [(self.a, 0)] if self.field.is_rational else [(self.a, 0), (self.b, self.c)]

    def contains(self, x: FieldElement) -> bool:
        return self.reduce_pair(integer_ring(self.field).pair(x)) == (0, 0)

    def reduce(self, x: FieldElement) -> FieldElement:
        """Canonical representative of x modulo this ideal (HNF domain)."""
        ring = integer_ring(self.field)
        return ring.element(self.reduce_pair(ring.pair(x)))

    def reduce_pair(self, x: tuple[int, int]) -> tuple[int, int]:
        """reduce on the integer pair (u, v) of u + v*omega."""
        u, v = x
        q, v2 = divmod(v, self.c)  # floor for canonicality; v2 in [0, c)
        return (u - q * self.b) % self.a, v2

    def residues(self):
        """Iterate over canonical representatives of O_K / I."""
        for v in range(self.c):
            for u in range(self.a):
                yield self.field.element(u, v)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.field != other.field:
            raise ValueError("ideals of different fields")
        ring = integer_ring(self.field)
        return _ideal_of_pairs(ring, [ring.mul(x, y) for x in self.basis for y in other.basis])

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


def _ideal_of_pairs(ring: IntegerRing, gens: list[tuple[int, int]]) -> Ideal:
    """The ideal generated by the pairs gens, not all zero: the lattice of
    all g, g*omega (over Q, where Ideal drops b and c, omega*g is (0, g))."""
    rows = [r for g in gens for r in (g, ring.mul(g, (0, 1)))]
    return Ideal(ring.field, *hnf_rows(rows))


def ideal_from_generators(field: FieldDescriptor, gens: list[FieldElement]) -> Ideal:
    ring = integer_ring(field)
    return _ideal_of_pairs(ring, [ring.pair(g) for g in gens])


@kernel_edge
def principal_ideal(ring: IntegerRing, x) -> Ideal:
    """The ideal (x) of the nonzero pair x."""
    return _ideal_of_pairs(ring, [x])


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal over the rational prime p, as (p, second_gen); r in [0, p)
    has omega = r (mod P) at a degree-1 prime of a quadratic field, else None."""

    field: FieldDescriptor
    p: int
    e: int  # ramification index
    f: int  # residue degree
    second_gen: FieldElement
    r: Optional[int] = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s0, s1 = self.second_gen.num
        r = None if self.field.is_rational or self.f == 2 else -s0 * pow(s1, -1, self.p) % self.p
        object.__setattr__(self, "r", r)

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


@functools.cache
def splitting_type(
    field: FieldDescriptor, p: int
) -> tuple[str, tuple[PrimeIdeal, ...]]:
    """Split/Inert/Ramified with the primes above p, computed once per
    (field, p).

    p ramifies when it divides the discriminant; an odd such p divides d.
    Otherwise p splits exactly when omega's minimal polynomial has a root r
    mod p, into (p, omega - r) and its conjugate, distinct as the other root
    t - r differs from r mod p when p does not divide the discriminant."""
    if field.is_rational:
        return "Split", (PrimeIdeal(field, p, 1, 1, field.element(0)),)
    if field.disc % p == 0:
        # A second generator of valuation exactly 1: at p = 2, where
        # omega = sqrt(d), sqrt(d) for d = 2 (mod 4), else 1 + sqrt(d).
        g = field.element(1 if field.d % 4 == 3 else 0, 1) if p == 2 else field.sqrt_gen()
        return "Ramified", (PrimeIdeal(field, p, 2, 1, g),)
    r = _omega_root_mod(field, p)
    if r is None:
        return "Inert", (PrimeIdeal(field, p, 1, 2, field.element(p)),)
    ring = integer_ring(field)
    g1 = (-r, 1)
    return "Split", tuple(PrimeIdeal(field, p, 1, 1, ring.element(g)) for g in (g1, ring.conj(g1)))


def _omega_root_mod(field: FieldDescriptor, p: int) -> Optional[int]:
    """A root mod p of omega's minimal polynomial, or None when it has none,
    for p not dividing the discriminant.  At p = 2, omega = (1 + sqrt(d))/2
    has x^2 - x - (d - 1)/4, with the roots 0 and 1 when d = 1 (mod 8) and
    none when d = 5 (mod 8)."""
    ring = integer_ring(field)
    if p == 2:
        return None if ring.k % 2 else 0
    s = _sqrt_mod_p(field.d % p, p)
    if s is None:
        return None
    g0, g1 = ring.sqrt_d  # omega = (sqrt(d) - g0)/g1
    return (s - g0) * pow(g1, -1, p) % p


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

    Mod P it is P.r.  For k > 1 P must be unramified, and r is the Hensel
    lift of that simple root of omega's minimal polynomial.  The lift also
    works at 2: 2 splits only when omega = (1 + sqrt(d))/2, and the
    derivative 2*omega - 1 is odd.
    """
    field, p, r = P.field, P.p, P.r
    if r is None:
        raise ValueError(f"{P} is not a degree-1 prime of a quadratic field")
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


@kernel_edge
def element_valuation(ring: IntegerRing, x, P: PrimeIdeal) -> int:
    """v_P(x) in closed form for a nonzero pair x."""
    return _scaled_valuation(P, *_primitive_part(ring, x))


def _primitive_part(ring: IntegerRing, x) -> tuple[int, int, int, int]:
    """(g, n, u, v) with (x) = g*J for the nonzero pair x: g is the gcd of
    x's coordinates, and J = (x/g), x/g = u + v*omega, is primitive of norm
    n = |N(x)|/g^2 (1 over Q, where N(x) = x^2)."""
    if x == (0, 0):
        raise ValueError("valuation of zero")
    u, v = x
    g = math.gcd(u, v)
    return g, abs(ring.norm(x)) // (g * g), u // g, v // g


def _factor(field, g, n, u, v, primes, I=None) -> list[tuple[PrimeIdeal, int]]:
    """The prime factorization of g*J for a rational integer g and a
    primitive ideal J of norm n that holds u + v*omega, from the
    factorization of its norm g^2*n (g*n over Q).  The valuations are
    valuation(I, P) for the ideal I = g*J when it is given, else
    _scaled_valuation; the norm's p-part p^E is the product of the
    N(P)^v_P over the primes P above p.  primes go to factor_int.
    """
    norm = g * n if field.is_rational else g * g * n
    out = []
    for p, E in factor_int(norm, primes):
        for P in splitting_type(field, p)[1]:
            k = _scaled_valuation(P, g, n, u, v) if I is None else valuation(I, P)
            if k > 0:
                out.append((P, k))
                E -= P.f * k
        assert E == 0, "ideal factorization norm mismatch"
    return out


def factor_ideal(I: Ideal, primes=()) -> list[tuple[PrimeIdeal, int]]:
    """Prime factorization of a nonzero integral ideal; over Q it is the
    factorization of the norm.  I = c*J with J = (a/c, b/c + omega) as in
    valuation.  primes go to factor_int."""
    c = I.c
    return _factor(I.field, c, I.a // c, I.b // c, 1, primes, I)


def factor_element(ring: IntegerRing, x, primes=()) -> list[tuple[PrimeIdeal, int]]:
    """factor_ideal of the ideal (x) of the nonzero pair x, from x's
    primitive part, with no HNF.  primes go to factor_int."""
    return _factor(ring.field, *_primitive_part(ring, x), primes)


# -- principality ------------------------------------------------------------


def is_principal(I: Ideal) -> Optional[FieldElement]:
    """A generator of I if I is principal, else None, normalised by
    normalize_associate; decided on every field.

    Every nonzero x in I has N(I) | N(x), and x generates I exactly when
    |N(x)| = N(I).  Over an imaginary field the norm is definite, so I is
    principal exactly when a shortest vector has norm N(I), and one of the
    basis r1, r2 that the kernel's rank-2 LLL step (IntegerRing.reduce_basis)
    makes of the HNF basis is a shortest vector.  That basis b1, b2 has
    |mu| <= 1/2 and |b2*|^2 >= (DELTA - mu^2)|b1|^2, DELTA = 99/100, and
    |x*b1 + y*b2|^2 = (x + y*mu)^2|b1|^2 + y^2|b2*|^2: with y = 0 and x != 0
    it is at least |b1|^2; with |y| = 1 at least mu^2|b1|^2 + |b2*|^2 = |b2|^2; with
    |y| >= 2 at least 4(DELTA - 1/4)|b1|^2 > |b1|^2.  All generators are
    associates, so normalize_associate picks one whichever r is taken.
    Over a real field see _reduced_cycle; the generator is balanced by
    norm_one_unit.
    """
    field = I.field
    if field.is_rational:
        return field.element(I.a)
    ring = integer_ring(field)
    if ring.real:
        g, _ = _reduced_cycle(ring, I)
        if g is not None:
            g = balance(ring, g, norm_one_unit(field))
    else:
        r1, r2, _ = ring.reduce_basis(*I.basis)
        g = next((r for r in (r1, r2) if ring.norm(r) == I.norm), None)
    return None if g is None else ring.element(ring.normalize(g))


def _reduced_cycle(ring: IntegerRing, I: Ideal):
    """(g, eta): a generator g of I over a real field, or None, and the unit
    eta of norm 1 by which a full cycle of reduced forms moves the basis
    (Cohen, A Course in Computational Algebraic Number Theory, 5.6; Buchmann
    and Vollmer, Binary Quadratic Forms, 6).

    The basis e1, e2 of I gives the integral form
    f(x, y) = N(x*e1 + y*e2)/N(I) = (a, b, c) of discriminant D = disc >= 5,
    and x*e1 + y*e2 generates I exactly when f(x, y) = +-1.  rho moves to
    the next form and basis, (e1, e2) -> (e2, s*e2 - e1), and turns any form
    into a reduced one, |sqrt(D) - 2|a|| < b < sqrt(D).  By Lagrange's
    theorem f represents +-1, as |+-1| < sqrt(D)/2, exactly when a form of
    its cycle of reduced forms has a = +-1, and e1 is then a generator.  A
    full cycle maps e1 to eta*e1.  D is not a square, so each comparison
    with sqrt(D) is an integer test against isqrt(D).
    """
    norm, n = ring.norm, I.norm
    e1, e2 = I.basis
    a, c = norm(e1) // n, norm(e2) // n
    b = norm(ring.add(e1, e2)) // n - a - c
    D = b * b - 4 * a * c
    root = math.isqrt(D)

    def rho(a, b, c, e1, e2):
        # r = -b (mod 2|c|) in (-|c|, |c|] when |c| > sqrt(D), else in
        # (sqrt(D) - 2|c|, sqrt(D)).
        top = abs(c) if abs(c) > root else root
        r = top - (top + b) % (2 * abs(c))
        s = (r + b) // (2 * c)
        return c, r, (r * r - D) // (4 * c), e2, (s * e2[0] - e1[0], s * e2[1] - e1[1])

    while not (b <= root and 2 * abs(a) - b <= root < 2 * abs(a) + b):
        a, b, c, e1, e2 = rho(a, b, c, e1, e2)
    start, first, g = (a, b, c), e1, None
    while True:
        if g is None and abs(a) == 1:
            g = e1
        a, b, c, e1, e2 = rho(a, b, c, e1, e2)
        if (a, b, c) == start:
            break
    return g, ring.exact_div(e1, first)


@functools.cache
def norm_one_unit(field: FieldDescriptor) -> tuple[int, int]:
    """The unit eta of norm 1 that generates the units of norm 1 up to sign
    over a real field, as a pair: the cycle of reduced forms of O_K moves its
    basis by eta.  It is the fundamental unit when that has norm 1, else its
    square."""
    ring = integer_ring(field)
    return _reduced_cycle(ring, unit_ideal(field))[1]


def balance(ring: IntegerRing, x, unit):
    """x*unit^k of least size, for a unit of norm 1 (conj(unit) = 1/unit)."""
    for u in (unit, ring.conj(unit)):
        h = ring.mul(x, u)
        while ring.size_sq(h) < ring.size_sq(x):
            x, h = h, ring.mul(h, u)
    return x


@kernel_edge
def square_decompose(ring, t, primes=()):
    """Write t = t1 * t2^2 with (t2) the principal ideal of maximal norm
    whose square divides (t), so (t1) has no principal square divisor.

    The candidates are the divisors above (1) of the root R = prod P^(e//2)
    of the square part of (t), largest norm first, ties in the order of their
    exponent vectors.  R, the only divisor of its norm, is tried first and is
    principal over Q and every field of class number 1; only a non-principal
    R walks the other divisors, one ideal at a time.  primes go to factor_int.
    """
    if t == ring.zero:
        raise ValueError("square_decompose of zero")
    root = [(P, e // 2) for P, e in factor_element(ring, t, primes) if e >= 2]
    if not root:
        return t, ring.one
    Ps, top = zip(*root)

    def candidates():
        yield top
        # The sort is stable; R heads the sorted list and (1) ends it.
        yield from sorted(
            itertools.product(*(range(k + 1) for k in top)),
            key=lambda ks: math.prod(P.residue_size**k for P, k in zip(Ps, ks)),
            reverse=True,
        )[1:-1]

    for ks in candidates():
        g = is_principal(reduce(Ideal.__mul__, (prime_power(P, k) for P, k in zip(Ps, ks) if k)))
        if g is not None:
            # is_principal's generator is an element: its numerator is the pair.
            t1 = ring.exact_div(t, ring.mul(g.num, g.num))
            assert t1 is not None
            return t1, g.num
    return t, ring.one
