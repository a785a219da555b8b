"""Square roots modulo prime ideals and their powers, CRT recombination,
and the 2-adic Hilbert symbol at the primes over 2 whose completion is Q_2.

Residue rings with a rational integer modulus N are (Z/N)[omega] and are
handled with coordinate arithmetic mod N.  Split primes are handled through
the isomorphism O_K/P^e = Z/p^e; inert and ramified primes by Newton
lifting in (Z/p^m)[omega].
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .errors import EvenPrime, UndecidedError
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


# -- coordinate arithmetic in (Z/N)[omega] ----------------------------------


def _ring_mul(field: FieldDescriptor, N: int, x, y):
    u1, v1 = x
    u2, v2 = y
    if field.omega_kind == "sqrt_d":
        return ((u1 * u2 + field.d * v1 * v2) % N, (u1 * v2 + u2 * v1) % N)
    c = (field.d - 1) // 4
    return (
        (u1 * u2 + c * v1 * v2) % N,
        (u1 * v2 + u2 * v1 + v1 * v2) % N,
    )


def _ring_sub(N: int, x, y):
    return ((x[0] - y[0]) % N, (x[1] - y[1]) % N)


def _ring_pow(field, N, x, k):
    result = (1 % N, 0)
    while k:
        if k & 1:
            result = _ring_mul(field, N, result, x)
        x = _ring_mul(field, N, x, x)
        k >>= 1
    return result


def _ring_norm(field, N, x) -> int:
    u, v = x
    if field.omega_kind == "sqrt_d":
        return (u * u - field.d * v * v) % N
    return (u * u + u * v + v * v * ((1 - field.d) // 4)) % N


def _ring_conj(field, N, x):
    u, v = x
    if field.omega_kind == "sqrt_d":
        return (u % N, -v % N)
    return ((u + v) % N, -v % N)


def _ring_inv(field, N, x):
    n = _ring_norm(field, N, x)
    ninv = pow(n, -1, N)
    cu, cv = _ring_conj(field, N, x)
    return (cu * ninv % N, cv * ninv % N)


# -- square roots in residue fields -----------------------------------------


def _fq2_sqrt(field: FieldDescriptor, p: int, a) -> Optional[tuple[int, int]]:
    """Tonelli-Shanks in F_{p^2} = (Z/p)[omega] for inert odd p."""
    a = (a[0] % p, a[1] % p)
    if a == (0, 0):
        return (0, 0)
    q = p * p
    one = (1, 0)
    if _ring_pow(field, p, a, (q - 1) // 2) != one:
        return None
    Q, S = q - 1, 0
    while Q % 2 == 0:
        Q //= 2
        S += 1
    # Deterministic nonresidue scan.
    z = None
    for u, v in itertools.product(range(p), repeat=2):
        cand = (u, v)
        if cand == (0, 0):
            continue
        if _ring_pow(field, p, cand, (q - 1) // 2) != one:
            z = cand
            break
    assert z is not None
    m = S
    c = _ring_pow(field, p, z, Q)
    t = _ring_pow(field, p, a, Q)
    r = _ring_pow(field, p, a, (Q + 1) // 2)
    while t != one:
        t2, i = t, 0
        while t2 != one:
            t2 = _ring_mul(field, p, t2, t2)
            i += 1
        b = _ring_pow(field, p, c, 1 << (m - i - 1))
        m = i
        c = _ring_mul(field, p, b, b)
        t = _ring_mul(field, p, t, c)
        r = _ring_mul(field, p, r, b)
    return r


def sqrt_mod_prime(a: FieldElement, P: PrimeIdeal) -> Optional[FieldElement]:
    """A square root of a modulo the odd prime ideal P, or None."""
    if P.p == 2:
        raise EvenPrime("use the dyadic enumeration for primes over 2")
    require_integral(a)
    field = a.field
    p = P.p
    roots: list[FieldElement] = []
    if field.is_rational or P.f == 1:
        r = _residue_image(a, P)
        s = _sqrt_mod_p(r, p)
        if s is None:
            return None
        roots = [field.element(s), field.element(-s % p)]
    else:
        s = _fq2_sqrt(field, p, (int(a.u), int(a.v)))
        if s is None:
            return None
        roots = [field.element(*s), field.element(-s[0] % p, -s[1] % p)]
    I = P.ideal()
    reduced = sorted(
        {I.reduce(x) for x in roots}, key=lambda x: (x.u, x.v)
    )
    return reduced[0]


def _residue_image(a: FieldElement, P: PrimeIdeal) -> int:
    """Image of a in O_K/P = F_p for a degree-1 prime."""
    if a.field.is_rational:
        return int(a.u) % P.p
    return (int(a.u) + int(a.v) * omega_root(P)) % P.p


# -- prime power roots -------------------------------------------------------


def _int_sqrt_mod_odd_prime_power(A: int, p: int, e: int) -> Optional[list[int]]:
    """All roots of x^2 = A (mod p^e), odd p."""
    pe = p**e
    A %= pe
    if A == 0:
        step = p ** ((e + 1) // 2)
        return list(range(0, pe, step))
    s = 0
    m = A
    while m % p == 0:
        m //= p
        s += 1
    if s % 2 == 1:
        return None
    r = _sqrt_mod_p(m % p, p)
    if r is None:
        return None
    # Hensel to mod p^(e - s).
    k = 1
    target = e - s
    while k < target:
        k = min(2 * k, target)
        pk = p**k
        r = (r - (r * r - m) * pow(2 * r, -1, pk)) % pk
    h = p ** (s // 2)
    period = p ** (e - s // 2)
    roots = set()
    for base in (r, (-r) % p**target):
        x0 = h * base
        for t in range(p ** (s // 2)):
            roots.add((x0 + t * period) % pe)
    return sorted(roots)


def _roots_mod_subgroup(P: PrimeIdeal, e: int) -> list[FieldElement]:
    """All x mod P^e with v_P(x) >= ceil(e/2) (roots when a = 0 mod P^e)."""
    Ie = prime_power(P, e)
    if Ie.norm > _ENUM_GUARD:
        return [P.field.zero()]
    Ik = prime_power(P, (e + 1) // 2)
    return [x for x in Ie.residues() if Ik.contains(x)]


def sqrt_mod_odd_prime_power(
    a: FieldElement, P: PrimeIdeal, e: int
) -> Optional[list[FieldElement]]:
    """All square roots of a modulo P^e for odd P, or None if there are none.

    None is decisive.  Raises UndecidedError only when a ramified stratum
    enumeration would exceed the size guard.
    """
    field = P.field
    p = P.p
    if a.is_zero:
        return _roots_mod_subgroup(P, e)
    s = element_valuation(a, P)
    if s >= e:
        return _roots_mod_subgroup(P, e)

    if field.is_rational:
        roots = _int_sqrt_mod_odd_prime_power(int(a.u), p, e)
        if roots is None:
            return None
        return [field.element(r) for r in roots]

    if P.e == 1 and P.f == 1:
        # Split: work through the integer model Z/p^e.
        pe = p**e
        A = (int(a.u) + int(a.v) * omega_root(P, e)) % pe
        roots = _int_sqrt_mod_odd_prime_power(A, p, e)
        if roots is None:
            return None
        return [field.element(r) for r in roots]

    Ie = prime_power(P, e)
    if P.f == 2:
        # Inert: ring is (Z/p^e)[omega]; p^s divides a exactly.
        if s % 2 == 1:
            return None
        pe = p**e
        if s == 0:
            base = _fq2_sqrt(field, p, (int(a.u), int(a.v)))
            if base is None:
                return None
            x = base
            k = 1
            while k < e:
                k = min(2 * k, e)
                pk = p**k
                fx = _ring_sub(pk, _ring_mul(field, pk, x, x), (int(a.u) % pk, int(a.v) % pk))
                inv2x = _ring_inv(field, pk, ((2 * x[0]) % pk, (2 * x[1]) % pk))
                corr = _ring_mul(field, pk, fx, inv2x)
                x = _ring_sub(pk, x, corr)
            out = {
                Ie.reduce(field.element(*x)),
                Ie.reduce(field.element(-x[0] % pe, -x[1] % pe)),
            }
            return sorted(out, key=lambda z: (z.u, z.v))
        h = p ** (s // 2)
        inner = sqrt_mod_odd_prime_power(
            field.element(Fraction(int(a.u), h * h), Fraction(int(a.v), h * h)),
            P,
            e - s,
        )
        if inner is None:
            return None
        period = p ** (e - s // 2)
        out = set()
        for y in inner:
            for tu in range(h):
                for tv in range(h):
                    cand = field.element(
                        (h * int(y.u) + tu * period) % pe,
                        (h * int(y.v) + tv * period) % pe,
                    )
                    if Ie.contains(cand * cand - a):
                        out.add(Ie.reduce(cand))
        return sorted(out, key=lambda z: (z.u, z.v))

    # Ramified odd prime.
    if s % 2 == 1:
        return None
    if s > 0:
        # Any root has P-valuation exactly s/2; enumerate that stratum.
        if Ie.norm > _ENUM_GUARD:
            raise UndecidedError(
                f"root search mod {P}^{e} (norm {Ie.norm}) is too large "
                "for exhaustive enumeration at a ramified prime"
            )
        Ik = prime_power(P, s // 2)
        out = [
            x
            for x in Ie.residues()
            if Ik.contains(x) and Ie.contains(x * x - a)
        ]
        return sorted(out, key=lambda z: (z.u, z.v)) or None

    # Unit case: Newton in (Z/p^m)[omega] with (p^m) inside P^e.
    m = (e + 1) // 2
    r0 = _sqrt_mod_p(_residue_image(a, P), p)
    if r0 is None:
        return None
    pm = p**m
    x = (r0 % pm, 0)
    au, av = int(a.u) % pm, int(a.v) % pm
    for _ in range(2 * m + 4):
        fx = _ring_sub(pm, _ring_mul(field, pm, x, x), (au, av))
        if fx == (0, 0):
            break
        inv2x = _ring_inv(field, pm, ((2 * x[0]) % pm, (2 * x[1]) % pm))
        x = _ring_sub(pm, x, _ring_mul(field, pm, fx, inv2x))
    cand = field.element(*x)
    assert Ie.contains(cand * cand - a), "Newton lift failed to converge"
    out = {Ie.reduce(cand), Ie.reduce(-cand)}
    return sorted(out, key=lambda z: (z.u, z.v))


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
    half = field.omega_kind != "sqrt_d"
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
