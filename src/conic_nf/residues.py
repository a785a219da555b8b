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
one linear congruence, and all of it runs on the integer kernel's pairs
reduced mod p^k.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import EvenPrime
from .fields import (
    FieldDescriptor,
    FieldElement,
    IntegerRing,
    integer_ring,
    require_integral,
    round_quotient,
)
from .ideals import (
    Ideal,
    PrimeIdeal,
    element_valuation,
    factor_ideal,
    lattice_express,
    omega_root,
    prime_power,
    unit_ideal,
    _sqrt_mod_p,
)

_ENUM_GUARD = 10**5


# -- arithmetic in (Z/N)[omega] on the integer kernel ------------------------


def _mod(x, N: int):
    return x[0] % N, x[1] % N


def _pow(ring: IntegerRing, x, k: int, N: int):
    result = (1, 0)
    while k:
        if k & 1:
            result = _mod(ring.mul(result, x), N)
        x = _mod(ring.mul(x, x), N)
        k >>= 1
    return result


def _inv(ring: IntegerRing, x, N: int):
    """x^-1 in (Z/N)[omega], for x of norm prime to N."""
    n = pow(ring.norm(x), -1, N)
    u, v = ring.conj(x)
    return u * n % N, v * n % N


# -- square roots modulo P and P^e, odd P ------------------------------------


def _fq2_sqrt(ring: IntegerRing, p: int, a) -> Optional[tuple[int, int]]:
    """Tonelli-Shanks in F_{p^2} = (Z/p)[omega] for inert odd p."""
    a = _mod(a, p)
    if a == (0, 0):
        return (0, 0)
    q = p * p
    one = (1, 0)
    if _pow(ring, a, (q - 1) // 2, p) != one:
        return None
    Q, S = q - 1, 0
    while Q % 2 == 0:
        Q //= 2
        S += 1
    # Deterministic nonresidue scan.
    z = next(
        x
        for x in itertools.product(range(p), repeat=2)
        if x != (0, 0) and _pow(ring, x, (q - 1) // 2, p) != one
    )
    m = S
    c = _pow(ring, z, Q, p)
    t = _pow(ring, a, Q, p)
    r = _pow(ring, a, (Q + 1) // 2, p)
    while t != one:
        t2, i = t, 0
        while t2 != one:
            t2 = _mod(ring.mul(t2, t2), p)
            i += 1
        b = _pow(ring, c, 1 << (m - i - 1), p)
        m = i
        c = _mod(ring.mul(b, b), p)
        t = _mod(ring.mul(t, c), p)
        r = _mod(ring.mul(r, b), p)
    return r


def _root_mod_prime(ring: IntegerRing, b, P: PrimeIdeal) -> Optional[tuple[int, int]]:
    """A root of y^2 = b (mod P) as a pair, or None."""
    p = P.p
    if P.f == 2:
        return _fq2_sqrt(ring, p, b)
    image = b[0] if P.field.is_rational else b[0] + b[1] * omega_root(P)
    y = _sqrt_mod_p(image % p, p)
    return None if y is None else (y, 0)


def _lift(ring: IntegerRing, y, b, N: int):
    """Newton's iteration y <- y - (y^2 - b)/(2y) in (Z/N)[omega], from a root
    y of b mod P, b a unit at P and N a power of p.  Each step squares the
    error, so it ends once y^2 = b (mod N)."""
    while True:
        f = _mod(ring.sub(ring.mul(y, y), b), N)
        if f == (0, 0):
            return y
        y = _mod(ring.sub(y, ring.mul(f, _inv(ring, ring.add(y, y), N))), N)


def _unit_part(a: FieldElement, P: PrimeIdeal, e: int, s: int):
    """Pairs (h, b) with v_P(h) = s/2 and b a unit at P such that h*y is a
    root of x^2 = a (mod P^e) whenever y^2 = b (mod P^(e-s)); s = v_P(a)
    is even and below e.

    Over Q and at a split P, a is the integer A = p^s*B of the model
    O_K/P^e = Z/p^e, h = p^(s/2) and b = B.  At an inert P = (p), h = p^(s/2)
    and b = a/p^s.  At a ramified P = (p, sqrt(d)), with m = s/2,
    h = p^(m//2) * sqrt(d)^(m%2), so h^2 = p^m*g with g = 1 or d/p, and
    b = (a/p^m) / g mod p^k, where (p^k) lies in P^(e-s).
    """
    field, p, m = P.field, P.p, s // 2
    ring = integer_ring(field)
    u, v = ring.pair(a)
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
    pe = p**e
    A = u % pe if field.is_rational else (u + v * omega_root(P, e)) % pe
    return (p**m, 0), (A // p**s, 0)


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
    When Ie.c = Ik.c (Q, split P) only j = 0 is left.  Otherwise j runs
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


def sqrt_mod_odd_prime_power(
    a: FieldElement, P: PrimeIdeal, e: int
) -> Optional[list[FieldElement]]:
    """All square roots of a modulo P^e for odd P, sorted by (u, v), or None
    if there are none.

    When a = 0 mod P^e and N(P^e) exceeds the enumeration guard, only the
    root 0 is returned.
    """
    field, p = P.field, P.p
    ring = integer_ring(field)
    s = e if a.is_zero else element_valuation(a, P)
    Ie = prime_power(P, e)
    if s >= e:
        if Ie.norm > _ENUM_GUARD:
            return [field.zero()]
        roots = _coset((0, 0), prime_power(P, (e + 1) // 2), Ie)
        # In the order of Ie.residues(): v first.
        return [ring.element(x) for x in sorted(roots, key=lambda x: x[::-1])]
    if s % 2:
        return None
    h, b = _unit_part(a, P, e, s)
    y = _root_mod_prime(ring, b, P)
    if y is None:
        return None
    x0 = ring.mul(h, _lift(ring, y, b, p ** -(-(e - s) // P.e)))
    Ik = prime_power(P, e - s // 2)
    roots = _coset(x0, Ik, Ie) | _coset((-x0[0], -x0[1]), Ik, Ie)
    return [ring.element(x) for x in sorted(roots)]


def least_root(a: FieldElement, P: PrimeIdeal, s: int) -> Optional[FieldElement]:
    """The first root that sqrt_mod_odd_prime_power(a, P, s + 1) lists, or
    None, for s = v_P(a) even, without listing the 2*N(P)^(s/2) roots.

    With a = h^2*b as in _unit_part, the roots are the two cosets
    +-h*y + P^(s/2+1) for a root y of the unit b mod P.
    """
    ring = integer_ring(P.field)
    h, b = _unit_part(a, P, s + 1, s)
    units = sqrt_mod_odd_prime_power(ring.element(b), P, 1)
    if not units:
        return None
    x0 = ring.mul(h, ring.pair(units[0]))
    Ik, Ie = prime_power(P, s // 2 + 1), prime_power(P, s + 1)
    least = min(_least_in_coset(x, Ik, Ie) for x in (x0, (-x0[0], -x0[1])))
    return ring.element(least)


def sqrt_mod_prime(a: FieldElement, P: PrimeIdeal) -> Optional[FieldElement]:
    """The least square root of a modulo the odd prime ideal P, or None."""
    if P.p == 2:
        raise EvenPrime("use the dyadic enumeration for primes over 2")
    require_integral(a)
    roots = sqrt_mod_odd_prime_power(a, P, 1)
    return roots[0] if roots else None


def sqrt_mod_dyadic_prime_power(
    a: FieldElement, P: PrimeIdeal, e: int
) -> Optional[list[FieldElement]]:
    """All roots of x^2 = a (mod P^e) over 2, by exhaustive enumeration."""
    Ie = prime_power(P, e)
    if Ie.norm > _ENUM_GUARD:
        return None
    roots = [x for x in Ie.residues() if Ie.contains(x * x - a)]
    return roots or None


# -- CRT and size minimisation ----------------------------------------------


def crt_coefficients(field: FieldDescriptor, ideals: list[Ideal]) -> list[FieldElement]:
    """Elements lam_i with lam_i = 1 mod I_i and lam_i = 0 mod all I_j."""
    out = []
    for i, I in enumerate(ideals):
        J = unit_ideal(field)
        for j, other in enumerate(ideals):
            if j != i:
                J = J * other
        irows = [(int(x.u), int(x.v)) for x in I.basis_elements()]
        jrows = [(int(x.u), int(x.v)) for x in J.basis_elements()]
        coeffs = lattice_express(irows + jrows, (1, 0))
        if coeffs is None:
            raise ValueError("ideals are not comaximal")
        jcoeffs = coeffs[len(irows):]
        w = field.zero()
        for cval, g in zip(jcoeffs, J.basis_elements()):
            w = w + g * cval
        out.append(w)
    return out


def _lagrange_reduce(ring: IntegerRing, m1, m2):
    """Gauss-Lagrange reduction of a rank-2 lattice basis of pairs, in the
    trace form."""
    dot = ring.dot
    if dot(m1, m1) > dot(m2, m2):
        m1, m2 = m2, m1
    while True:
        n1 = dot(m1, m1)
        q = round_quotient(dot(m1, m2), n1)
        if q:
            m2 = (m2[0] - q * m1[0], m2[1] - q * m1[1])
        if dot(m2, m2) >= n1:
            return m1, m2
        m1, m2 = m2, m1


def closest_in_coset(x: FieldElement, M: Ideal) -> FieldElement:
    """Minimal-size representative of x + M, certified by enumeration.

    Ties break to the lexicographically smallest (u, v).  Runs on the
    integer kernel's pairs, with sizes compared exactly in integers.
    """
    field = x.field
    ring = integer_ring(field)
    xu, xv = ring.pair(x)
    if field.is_rational:
        r = xu % M.a
        return field.element(min(r, r - M.a, key=lambda u: (u * u, u)))

    xu, xv = M.reduce_pair((xu, xv))
    a, b, c = M.a, M.b, M.c
    # Babai rounding in a Lagrange-reduced basis gives a near-optimal
    # starting radius; the window enumeration below certifies the minimum.
    (r1u, r1v), (r2u, r2v) = _lagrange_reduce(ring, (a, 0), (b, c))
    det = r1u * r2v - r2u * r1v
    k1 = round_quotient(xu * r2v - xv * r2u, det)
    k2 = round_quotient(r1u * xv - r1v * xu, det)
    base = (xu - k1 * r1u - k2 * r2u, xv - k1 * r1v - k2 * r2v)
    best = (ring.size_sq(base), *base)
    # size_sq is twice the squared size.
    R = math.sqrt(float(best[0]) / 2) * (1 + 1e-9) + 1e-9
    half = ring.t == 1
    # |v-coordinate| of a candidate is at most R / sqrt(|d|), twice that
    # when omega = (1 + sqrt(d))/2.
    vmax = R / (math.sqrt(abs(field.d)) * (0.5 if half else 1))
    t2 = xv / c
    for k2 in range(math.floor(t2 - vmax / c) - 1, math.ceil(t2 + vmax / c) + 2):
        ru, rv = xu - b * k2, xv - c * k2
        # |1-part in s-coords| <= R (+ half of the omega part if needed).
        slack = R + (abs(rv) / 2 + 1 if half else 0)
        for k1 in range(math.floor((ru - slack) / a) - 1, math.ceil((ru + slack) / a) + 2):
            cand = (ru - k1 * a, rv)
            key = (ring.size_sq(cand), *cand)
            if key < best:
                best = key
    return ring.element(best[1:])


def sqrt_mod_ideal(a: FieldElement, M: Ideal) -> Optional[FieldElement]:
    """A size-minimal w with w^2 = a (mod M), or None if no root exists."""
    require_integral(a)
    field = a.field
    if M.norm == 1:
        return field.zero()
    factors = factor_ideal(M)
    root_sets: list[list[FieldElement]] = []
    moduli: list[Ideal] = []
    for P, e in factors:
        if P.p == 2:
            roots = sqrt_mod_dyadic_prime_power(a, P, e)
        else:
            roots = sqrt_mod_odd_prime_power(a, P, e)
        if roots is None:
            return None
        root_sets.append(roots)
        moduli.append(prime_power(P, e))
    ring = integer_ring(field)
    lams = [ring.pair(lam) for lam in crt_coefficients(field, moduli)]
    best = None
    seen = set()
    combos = itertools.product(*([ring.pair(r) for r in roots] for roots in root_sets))
    for combo in itertools.islice(combos, 4096):
        w = (0, 0)
        for lam, r in zip(lams, combo):
            w = ring.add(w, ring.mul(lam, r))
        w = M.reduce_pair(w)
        if w in seen:
            continue
        seen.add(w)
        cand = ring.pair(closest_in_coset(ring.element(w), M))
        key = (ring.size_sq(cand), *cand)
        if best is None or key < best:
            best = key
    assert best is not None
    root = ring.element(best[1:])
    assert M.contains(root * root - a)
    return root


# -- the 2-adic Hilbert symbol -----------------------------------------------


def _two_adic_parts(x: FieldElement, P: PrimeIdeal) -> tuple[int, int]:
    """(s, u mod 8) with x = 2^s * u in K_P = Q_2, u odd.

    v_P(x) <= v_2(N(x)), so the image of x mod 2^k with
    k = v_2(N(x)) + 3 holds the odd part mod 8.
    """
    n = abs(int(x.norm()))
    k = (n & -n).bit_length() + 2
    if x.field.is_rational:
        image = int(x.u) % (1 << k)
    else:
        image = (int(x.u) + int(x.v) * omega_root(P, k)) % (1 << k)
    s = (image & -image).bit_length() - 1
    return s, (image >> s) % 8


def local_solvable_at_two(
    a: FieldElement, b: FieldElement, c: FieldElement, P: PrimeIdeal
) -> bool:
    """Whether a*x^2 + b*y^2 + c*z^2 = 0 has a nonzero point over K_P = Q_2.

    It has one exactly when the Hilbert symbol (-a*c, -b*c)_2 is 1.  With
    -a*c = 2^s*u and -b*c = 2^t*w, u and w odd,
    (-a*c, -b*c)_2 = (-1)^(eps(u)*eps(w) + s*om(w) + t*om(u)), where
    eps(u) = (u - 1)/2 and om(u) = (u^2 - 1)/8.  Defined for a prime P over
    2 with e = f = 1, the only primes over 2 whose completion is Q_2.
    """
    if P.p != 2 or P.e != 1 or P.f != 1:
        raise EvenPrime("the 2-adic Hilbert symbol needs a prime over 2 with K_P = Q_2")
    s, u = _two_adic_parts(-(a * c), P)
    t, w = _two_adic_parts(-(b * c), P)
    eps = lambda n: (n - 1) // 2
    om = lambda n: (n * n - 1) // 8
    return (eps(u) * eps(w) + s * om(w) + t * om(u)) % 2 == 0
