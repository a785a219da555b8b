"""Square roots modulo prime ideals and their powers, CRT recombination,
and the 2-adic Hilbert symbol at the primes over 2 whose completion is Q_2.

At an odd prime P the roots of x^2 = a (mod P^e) come in closed form.  With
s = v_P(a): if s >= e they are P^ceil(e/2) mod P^e; if s is odd there are
none; otherwise they are the two cosets +-x0 + P^(e-s/2) mod P^e of one
root x0 = h*y.  Here v_P(h) = s/2, the unit part b = a/h^2 is taken mod a
power of p (at Q and split primes in the integer model O_K/P^e = Z/p^e),
and y is Newton's lift of a root of b mod P (Cohen, A Course in
Computational Algebraic Number Theory, 1.5 and 4.8).  Every coset is
listed from the HNFs of the two prime powers, or its least element found by
one linear congruence; at a degree-1 unramified P (Q and split primes),
where both HNFs have c = 1, the least root is +-p^(s/2)*y mod p^(s/2+1),
with no ideal built.

Roots modulo a composite M = prod P_i^e_i are recombined by the Chinese
remainder theorem in closed form: the coefficient of P^e is the integer
m*(m^-1 mod n_p), with n_p the least positive integer in the moduli over p
and m the product of the other n_q, times k*(omega - r_Q) when the
conjugate Q^f divides M too (see crt_coefficients).

Each public helper is a kernel form with the ring first (fields.kernel_edge):
an IntegerRing with pairs and Ideals.  Called with FieldElements, the edge
converts them and the result.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import EvenPrime, UndecidedError
from .fields import FieldDescriptor, FieldElement, IntegerRing, integer_ring, kernel_edge
from .ideals import (
    Ideal,
    PrimeIdeal,
    element_valuation,
    factor_ideal,
    omega_root,
    prime_power,
    _sqrt_mod_p,
)

_ENUM_GUARD = 10**5


# -- arithmetic in (Z/N)[omega] on the integer kernel ------------------------


def _mod(x, N: int):
    return x[0] % N, x[1] % N


def _inv(ring: IntegerRing, x, N: int):
    """x^-1 in (Z/N)[omega], for x of norm prime to N."""
    n = pow(ring.norm(x), -1, N)
    u, v = ring.conj(x)
    return u * n % N, v * n % N


# -- square roots modulo P and P^e, odd P ------------------------------------


def _image(P: PrimeIdeal, x, k: int) -> int:
    """The integer in [0, p^k) congruent to the pair x mod P^k, for a
    degree-1 prime P, unramified when k > 1."""
    pk = P.p**k
    if P.field.is_rational:
        return x[0] % pk
    return (x[0] + x[1] * omega_root(P, k)) % pk


def _root_mod_prime(ring: IntegerRing, b, P: PrimeIdeal) -> Optional[tuple[int, int]]:
    """A root of y^2 = b (mod P) as a pair, or None.

    At an inert P it is the closed form of IntegerRing.sqrt in
    F_p^2 = (Z/p)[omega]: b is a square exactly when N(b) is one in F_p (the
    norm F_p^2* -> F_p* is onto), and then N(y) = n = +-sqrt(N(b)),
    tr(y)^2 = tr(b) + 2n and y*tr(y) = b + n.  When tr(y) = 0, y = c*sqrt(d)
    with c^2 = b/d in F_p, as N(sqrt(d)) = -d.
    """
    p = P.p
    if P.f == 1:
        y = _sqrt_mod_p(_image(P, b, 1), p)
        return None if y is None else (y, 0)
    b = _mod(b, p)
    m = _sqrt_mod_p(ring.norm(b), p)
    if m is None:
        return None
    for n in (m, -m):
        s = _sqrt_mod_p(ring.trace(b) + 2 * n, p)
        if s:
            k = pow(s, -1, p)
            y = _mod(((b[0] + n) * k, b[1] * k), p)
            if _mod(ring.mul(y, y), p) == b:
                return y
    g = (-1, 2) if ring.t else (0, 1)  # sqrt(d)
    c = _sqrt_mod_p(b[0] * pow(-ring.norm(g), -1, p), p)
    return _mod((c * g[0], c * g[1]), p)


def _lift(ring: IntegerRing, y, b, N: int):
    """Newton's iteration y <- y - (y^2 - b)/(2y) in (Z/N)[omega], from a root
    y of b mod P, b a unit at P and N a power of p.  Each step squares the
    error, so it ends once y^2 = b (mod N)."""
    while True:
        f = _mod(ring.sub(ring.mul(y, y), b), N)
        if f == (0, 0):
            return y
        y = _mod(ring.sub(y, ring.mul(f, _inv(ring, ring.add(y, y), N))), N)


def _unit_part(ring: IntegerRing, a, P: PrimeIdeal, e: int, s: int):
    """Pairs (h, b) with v_P(h) = s/2 and b a unit at P such that h*y is a
    root of x^2 = a (mod P^e) whenever y^2 = b (mod P^(e-s)), for the pair
    a with s = v_P(a) even and below e.

    Over Q and at a split P, a is the integer A = p^s*B of the model
    O_K/P^e = Z/p^e, h = p^(s/2) and b = B.  At an inert P = (p), h = p^(s/2)
    and b = a/p^s.  At a ramified P = (p, sqrt(d)), with m = s/2,
    h = p^(m//2) * sqrt(d)^(m%2), so h^2 = p^m*g with g = 1 or d/p, and
    b = (a/p^m) / g mod p^k, where (p^k) lies in P^(e-s).
    """
    field, p, m = P.field, P.p, s // 2
    u, v = a
    if P.e == 2:
        pk = p ** ((e - s + 1) // 2)
        h = (p ** (m // 2), 0)
        ginv = 1
        if m % 2:
            h = ring.mul(h, ring.pair(P.second_gen))
            ginv = pow(field.d // p, -1, pk)
        return h, _mod((u // p**m * ginv, v // p**m * ginv), pk)
    if P.f == 2:
        return (p**m, 0), (u // p**s, v // p**s)
    return (p**m, 0), (_image(P, a, e) // p**s, 0)


def _coset(x, Ik: Ideal, Ie: Ideal) -> set:
    """The residues mod Ie of x + Ik, for Ie inside Ik, as pairs.

    Ik's HNF entries a, c divide Ie's, so x + i*a + j*(b + c*omega) for
    i < Ie.a/Ik.a and j < Ie.c/Ik.c are N(Ie)/N(Ik) distinct residues.
    """
    u, v = x
    return {
        Ie.reduce_pair((u + i * Ik.a + j * Ik.b, v + j * Ik.c))
        for j in range(Ie.c // Ik.c)
        for i in range(Ie.a // Ik.a)
    }


def _least_in_coset(x, Ik: Ideal, Ie: Ideal) -> tuple[int, int]:
    """The least (u, v) among the residues mod Ie of x + Ik, for Ie = P^e
    inside Ik = P^k.

    With (u, v) the reduction of x by Ik = [[a, 0], [b, c]], those residues
    are (u + j*b + i*a, v + j*c) for 0 <= j < Ie.c/Ik.c, reduced mod Ie.
    When Ie.c = Ik.c only j = 0 is left.  Otherwise j runs
    over a full period L = a/gcd(a, b) of j*b mod a, the least u is
    u mod gcd(a, b), and the least j reaching it is one linear congruence
    mod L.  L > 1 only at a ramified P with omega = (1 + sqrt(d))/2 and k odd.
    """
    u, v = Ik.reduce_pair(x)
    if Ie.c == Ik.c:
        return u, v
    g = math.gcd(Ik.a, Ik.b)
    L = Ik.a // g
    assert Ie.c // Ik.c >= L
    j = -(u // g) * pow(Ik.b // g, -1, L) % L
    return u % g, v + j * Ik.c


@kernel_edge
def sqrt_mod_odd_prime_power(ring: IntegerRing, a, P: PrimeIdeal, e: int) -> Optional[list]:
    """All square roots of the pair a modulo P^e for odd P, sorted by (u, v),
    or None if there are none.

    When a = 0 mod P^e the roots are the N(P)^floor(e/2) residues of
    P^ceil(e/2), otherwise 2*N(P)^(s/2) with s = v_P(a); past the
    enumeration guard they are not listed and UndecidedError is raised.
    """
    p = P.p
    s = e if a == (0, 0) else element_valuation(ring, a, P)
    Ie = prime_power(P, e)
    if s >= e:
        count = P.residue_size ** (e // 2)
        if count > _ENUM_GUARD:
            raise UndecidedError(f"{count} roots of 0 mod {Ie}, past the guard {_ENUM_GUARD}")
        roots = _coset((0, 0), prime_power(P, (e + 1) // 2), Ie)
        # In the order of Ie.residues(): v first.
        return sorted(roots, key=lambda x: x[::-1])
    if s % 2:
        return None
    h, b = _unit_part(ring, a, P, e, s)
    y = _root_mod_prime(ring, b, P)
    if y is None:
        return None
    count = 2 * P.residue_size ** (s // 2)
    if count > _ENUM_GUARD:
        raise UndecidedError(f"{count} roots mod {Ie}, past the guard {_ENUM_GUARD}")
    x0 = ring.mul(h, _lift(ring, y, b, p ** -(-(e - s) // P.e)))
    Ik = prime_power(P, e - s // 2)
    roots = _coset(x0, Ik, Ie) | _coset((-x0[0], -x0[1]), Ik, Ie)
    return sorted(roots)


def least_root(ring: IntegerRing, a, P: PrimeIdeal, s: int) -> Optional[tuple[int, int]]:
    """The first root that sqrt_mod_odd_prime_power(a, P, s + 1) lists, as a
    pair, or None, for the pair a with s = v_P(a) even, without listing the
    2*N(P)^(s/2) roots.

    With a = h^2*b as in _unit_part, the roots are the two cosets
    +-h*y + P^(s/2+1) for the closed-form root y of the unit b mod P.  As
    v_P(h) = s/2, the cosets depend only on +-y mod P, so any root y of b
    gives the same least root.  At a degree-1 unramified P (Q and split
    primes) both prime powers have c = 1 in HNF, so the least root is the
    lesser of +-p^(s/2)*y mod p^(s/2+1), y a root mod p of A/p^s for the
    image A of a in Z/p^(s+1): no ideal is built.
    """
    m = s // 2
    if P.e == P.f == 1:
        p = P.p
        y = _sqrt_mod_p(_image(P, a, s + 1) // p**s, p)
        if y is None:
            return None
        q, x0 = p ** (m + 1), p**m * y
        return min(x0 % q, -x0 % q), 0
    h, b = _unit_part(ring, a, P, s + 1, s)
    y = _root_mod_prime(ring, b, P)
    if y is None:
        return None
    x0 = ring.mul(h, y)
    Ik, Ie = prime_power(P, m + 1), prime_power(P, s + 1)
    return min(_least_in_coset(x, Ik, Ie) for x in (x0, (-x0[0], -x0[1])))


def sqrt_mod_prime(a: FieldElement, P: PrimeIdeal) -> Optional[FieldElement]:
    """The least square root of a modulo the odd prime ideal P, or None."""
    if P.p == 2:
        raise EvenPrime("use the dyadic enumeration for primes over 2")
    roots = sqrt_mod_odd_prime_power(a, P, 1)
    return roots[0] if roots else None


@kernel_edge
def sqrt_mod_dyadic_prime_power(ring: IntegerRing, a, P: PrimeIdeal, e: int) -> Optional[list]:
    """All roots of x^2 = a (mod P^e) over 2 for the pair a, by exhaustive
    enumeration, or None if there are none; UndecidedError when N(P^e)
    exceeds the enumeration guard."""
    Ie = prime_power(P, e)
    if Ie.norm > _ENUM_GUARD:
        raise UndecidedError(f"{Ie.norm} residues mod {Ie}, past the guard {_ENUM_GUARD}")
    roots = [
        (u, v)
        for v in range(Ie.c)
        for u in range(Ie.a)
        if Ie.reduce_pair(ring.sub(ring.mul((u, v), (u, v)), a)) == (0, 0)
    ]
    return roots or None


# -- CRT and size minimisation ----------------------------------------------


def crt_coefficients(
    field: FieldDescriptor, factors: list[tuple[PrimeIdeal, int]]
) -> list[tuple[int, int]]:
    """Pairs lam_i with lam_i = 1 mod P_i^e_i and lam_i = 0 mod every other
    P_j^e_j, for the factorization [(P_i, e_i)] of a modulus M, in closed
    form (Cohen, A Course in Computational Algebraic Number Theory, 1.3
    and 4.8).

    With n_p the least positive integer in every P^e over p (the largest
    p^ceil(e/e_P) among them, that of P^e) and m the product of the other
    n_q, the integer m*(m^-1 mod n_p) is 1 mod every P^e over p and 0 mod
    every other modulus.  When both primes over a split p divide M, as P^e
    and Q^f, lam_P is that integer times k*(omega - r_Q), with
    omega = r_P (mod P^e), omega = r_Q (mod Q^f) and k = (r_P - r_Q)^-1
    mod p^e: omega - r_Q lies in Q^f and k*(omega - r_Q) = 1 (mod P^e).
    r_P and r_Q differ mod p because p does not divide the discriminant.
    """
    ring = integer_ring(field)
    n: dict[int, int] = {}
    for P, e in factors:
        n[P.p] = max(n.get(P.p, 1), P.p ** -(-e // P.e))
    out = []
    for P, e in factors:
        m = math.prod(q for p, q in n.items() if p != P.p)
        lam = (m * pow(m, -1, n[P.p]), 0)
        for Q, f in factors:
            if Q.p == P.p and Q != P:
                rP, rQ = omega_root(P, e), omega_root(Q, f)
                k = pow(rP - rQ, -1, P.p**e)
                lam = ring.mul(lam, (-k * rQ, k))
        out.append(lam)
    return out


@kernel_edge
def closest_in_coset(ring, x, M):
    """Minimal-size representative of x + M; ties break to the
    lexicographically smallest (u, v).  The kernel's closest element of the
    coset of M's HNF lattice, with sizes compared exactly in integers."""
    if ring.field.is_rational:
        r = x[0] % M.a
        return min(r, r - M.a, key=lambda u: (u * u, u)), 0
    return ring.closest(M.reduce_pair(x), (M.a, 0), (M.b, M.c))


@kernel_edge
def sqrt_mod_ideal(ring, a, M, factors: Optional[list] = None):
    """A size-minimal w with w^2 = a (mod M), or None if no root exists;
    factors is M's factorization, when the caller has it.  The roots mod
    each prime power, recombined by CRT, go to closest_in_coset and the
    least (size_sq, w) wins; past 4,096 combinations, the least of the
    first 4,096."""
    factors = factor_ideal(M) if factors is None else factors
    root_sets = []
    for P, e in factors:
        lister = sqrt_mod_dyadic_prime_power if P.p == 2 else sqrt_mod_odd_prime_power
        roots = lister(ring, a, P, e)
        if roots is None:
            return None
        root_sets.append(roots)
    lams = crt_coefficients(ring.field, factors)
    best = None
    for combo in itertools.islice(itertools.product(*root_sets), 4096):
        w = ring.zero
        for lam, r in zip(lams, combo):
            w = ring.add(w, ring.mul(lam, r))
        cand = closest_in_coset(ring, w, M)
        key = (ring.size_sq(cand), cand)
        if best is None or key < best:
            best = key
    root = best[1]
    assert M.reduce_pair(ring.sub(ring.mul(root, root), a)) == (0, 0)
    return root


# -- the 2-adic Hilbert symbol -----------------------------------------------


def _two_adic_parts(ring: IntegerRing, x, P: PrimeIdeal) -> tuple[int, int]:
    """(s, u mod 8) with the pair x = 2^s * u in K_P = Q_2, u odd.

    v_P(x) <= v_2(N(x)), so the image of x mod 2^k with
    k = v_2(N(x)) + 3 holds the odd part mod 8.
    """
    n = abs(ring.norm(x))
    image = _image(P, x, (n & -n).bit_length() + 2)
    s = (image & -image).bit_length() - 1
    return s, (image >> s) % 8


@kernel_edge
def local_solvable_at_two(ring: IntegerRing, a, b, c, P: PrimeIdeal) -> bool:
    """Whether a*x^2 + b*y^2 + c*z^2 = 0, for the pairs a, b and c, has a
    nonzero point over K_P = Q_2.

    It has one exactly when the Hilbert symbol (-a*c, -b*c)_2 is 1.  With
    -a*c = 2^s*u and -b*c = 2^t*w, u and w odd,
    (-a*c, -b*c)_2 = (-1)^(eps(u)*eps(w) + s*om(w) + t*om(u)), where
    eps(u) = (u - 1)/2 and om(u) = (u^2 - 1)/8.  Defined for a prime P over
    2 with e = f = 1, the only primes over 2 whose completion is Q_2.
    """
    if P.p != 2 or P.e != 1 or P.f != 1:
        raise EvenPrime("the 2-adic Hilbert symbol needs a prime over 2 with K_P = Q_2")
    minus_c = ring.sub((0, 0), c)
    s, u = _two_adic_parts(ring, ring.mul(a, minus_c), P)
    t, w = _two_adic_parts(ring, ring.mul(b, minus_c), P)
    eps = lambda n: (n - 1) // 2
    om = lambda n: (n * n - 1) // 8
    return (eps(u) * eps(w) + s * om(w) + t * om(u)) % 2 == 0
