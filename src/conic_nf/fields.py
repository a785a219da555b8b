"""Exact arithmetic in Q and quadratic fields Q(sqrt(d)).

The ring of integers O_K has the integral basis {1, omega}, where
omega = sqrt(d) for d = 2, 3 (mod 4) and omega = (1+sqrt(d))/2 for
d = 1 (mod 4).  Its integer kernel, IntegerRing, is the one place that
knows omega's minimal polynomial: arithmetic on (u, v) integer pairs over
every field, with exact sizes compared in integers (IntSurd over a real
field), the size test |w| < |b| - e, closed-form square roots, and the
rank-2 lattice questions of O_K: the rank-2 LLL step that lattice shares
(_lll_rank2 with DELTA) and the closest element of a coset.  A
FieldElement is a kernel pair over one positive denominator,
(U + V*omega)/den in lowest terms, and all its arithmetic, its square root
(elem_sqrt) and the size helpers go through the kernel.  IntSurd is the one
exact surd; size_sq returns the kernel's key as a Surd, the IntSurd with
Fraction parts that Surd's constructor checks.  Floats are only a
human-readable approximation.

Over Q and the imaginary quadratic fields the kernel adds closed-form
nearest-integer rounding, Euclidean division, extended gcd and normalised
gcd; nearest_integer, euclid_divmod and gcd_elems delegate to it there.
Over a real field nearest_integer is the kernel's closest element of a
coset of den*O_K.

Q's own kernel, INTS, is the part of the kernel's API that the Holzer step
uses on plain ints; its extended gcd, which the HNF of ideals calls too,
takes the pair path's nearest-integer quotients, as IntegerRing.xgcd does.
The helpers of the check and the descent take a ring and its values;
kernel_edge lets them take FieldElements, converted there and only there.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Optional, Union

from .errors import (
    AllZero,
    InvalidD,
    NotEuclidean,
    NotPositiveDefinite,
    NotSquarefree,
    ParseError,
)

EUCLIDEAN_IMAGINARY_DS = (-1, -2, -3, -7, -11)


def _squarefree(n: int) -> bool:
    """Whether no square above 1 divides n.  Trial division up to the cube
    root of what is left, dividing out each prime once (a second time means
    p^2 | n), leaves a cofactor whose primes all exceed the cube root: at
    most two of them, so it is squarefree unless it is a perfect square."""
    n, k = abs(n), 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    return n < 2 or math.isqrt(n) ** 2 != n


@dataclass(frozen=True, eq=False)
class FieldDescriptor:
    """The base field: Q, or Q(sqrt(d)) for squarefree d != 0, 1.  make_field
    keeps one per d, so it compares and hashes as an object, and copy and
    pickle give that object back."""

    kind: str  # "rational" | "quadratic"
    d: Optional[int]
    disc: Optional[int]
    omega_kind: Optional[str]  # "sqrt_d" | "half_one_plus_sqrt_d"
    euclidean: bool
    totally_imaginary: bool

    def __reduce__(self):
        return make_field, (self.d,)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def element(self, u, v=0) -> "FieldElement":
        return FieldElement(self, u, v)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def omega(self) -> "FieldElement":
        if self.is_rational:
            raise InvalidD("Q has no omega generator")
        return self.element(0, 1)

    def sqrt_gen(self) -> "FieldElement":
        """The element sqrt(d) in omega-coordinates."""
        if self.is_rational:
            raise InvalidD("Q has no sqrt(d)")
        if self.omega_kind == "sqrt_d":
            return self.element(0, 1)
        return self.element(-1, 2)  # sqrt(d) = 2*omega - 1

    def units(self) -> list["FieldElement"]:
        """Roots of unity (all units for Q and imaginary quadratic fields)."""
        one = self.one()
        if self.is_rational or (self.d is not None and self.d > 0):
            return [one, -one]
        if self.d == -1:
            i = self.omega()
            return [one, -one, i, -i]
        if self.d == -3:
            z = self.omega()  # primitive 6th root of unity
            z2 = self.element(-1, 1)  # omega^2 = omega - 1
            return [one, -one, z, -z, z2, -z2]
        return [one, -one]

    def __repr__(self) -> str:
        if self.is_rational:
            return "Q"
        return f"Q(sqrt({self.d}))"


def make_field(d: Union[int, str, None] = None) -> FieldDescriptor:
    """The one validated descriptor of Q(sqrt(d)), or of Q for d=None/'Q'."""
    return _field(None if d is None or d == "Q" else int(d))


@functools.cache
def _field(d: Optional[int]) -> FieldDescriptor:
    if d is None:
        return FieldDescriptor("rational", None, None, None, euclidean=True, totally_imaginary=False)
    if d in (0, 1):
        raise InvalidD(f"d = {d} does not define a quadratic field")
    if not _squarefree(d):
        raise NotSquarefree(f"d = {d} is not squarefree")
    if d % 4 == 1:
        omega_kind = "half_one_plus_sqrt_d"
        disc = d
    else:
        omega_kind = "sqrt_d"
        disc = 4 * d
    return FieldDescriptor(
        kind="quadratic",
        d=d,
        disc=disc,
        omega_kind=omega_kind,
        euclidean=d in EUCLIDEAN_IMAGINARY_DS,
        totally_imaginary=d < 0,
    )


RATIONAL = make_field()


def surd_sign(r, s, rad: int) -> int:
    """The sign of r + s*sqrt(rad) (rad >= 0, and s = 0 when rad = 0),
    exactly, for integer or rational r and s.  A zero r or s takes the
    comparison of r^2 with s^2*rad, which gives the sign of the other part."""
    if r > 0 and s > 0:
        return 1
    if r < 0 and s < 0:
        return -1
    # Opposite signs: compare r^2 against s^2 * rad.
    lhs, rhs = r * r, s * s * rad
    if lhs == rhs:
        return 0
    big_is_r = lhs > rhs
    return (1 if r > 0 else -1) if big_is_r else (1 if s > 0 else -1)


@functools.total_ordering
class IntSurd:
    """The exact real r + s*sqrt(rad): r and s ints or Fractions, rad >= 0,
    and s = 0 when rad = 0.

    It compares by surd_sign with another surd or with a rational; two surds
    compare when their radicals agree or one of them is rational (s = 0).
    The kernel builds its size keys as IntSurds from ints."""

    __slots__ = ("r", "s", "rad")

    def __init__(self, r, s, rad: int):
        self.r, self.s, self.rad = r, s, rad

    def _cmp(self, other) -> int:
        """The sign of self - other."""
        if not isinstance(other, IntSurd):
            return surd_sign(self.r - other, self.s, self.rad)
        if self.s and other.s and self.rad != other.rad:
            raise ValueError(f"incompatible radicals {self.rad} and {other.rad}")
        return surd_sign(self.r - other.r, self.s - other.s, self.rad if self.s else other.rad)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (ValueError, TypeError):
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __hash__(self):
        root = math.isqrt(self.rad)  # a rational's own hash when it is one
        if not self.s or root * root == self.rad:
            return hash(self.r + self.s * root)
        return hash((self.r, self.s, self.rad))

    def __float__(self):
        return float(self.r) + float(self.s) * math.sqrt(self.rad)

    def __ceil__(self):
        # m = floor(|s|*sqrt(rad)) puts self in [n, n + 2).
        m = math.isqrt(int(self.s * self.s * self.rad))
        n = math.floor(self.r) + (m if self.s >= 0 else -m - 1)
        return next(k for k in (n, n + 1, n + 2) if self._cmp(k) <= 0)

    def __repr__(self):
        if not self.s:
            return f"{type(self).__name__}({self.r})"
        return f"{type(self).__name__}({self.r} + {self.s}*sqrt({self.rad}))"


class Surd(IntSurd):
    """An IntSurd with r and s as Fractions, checked: rad >= 0, and rad = 0
    (a plain rational) requires s = 0."""

    __slots__ = ()

    def __init__(self, r, s=0, rad=0):
        rad = int(rad)
        if rad < 0:
            raise ValueError("radical must be >= 0")
        if rad == 0 and s != 0:
            raise ValueError("rad=0 requires s=0")
        super().__init__(Fraction(r), Fraction(s), rad)


def round_quotient(n: int, d: int) -> int:
    """round(Fraction(n, d)) for integers, d != 0: the nearest integer to
    n/d, a tie going to the even one."""
    if d < 0:
        n, d = -n, -d
    q, r = divmod(n, d)
    if 2 * r < d or (2 * r == d and q % 2 == 0):
        return q
    return q + 1


def _element(field: FieldDescriptor, num: tuple[int, int], den: int) -> "FieldElement":
    """The element num/den (den != 0), stored in lowest terms with den > 0."""
    g = math.gcd(num[0], num[1], den) if den > 0 else -math.gcd(num[0], num[1], den)
    if g != 1:
        num, den = (num[0] // g, num[1] // g), den // g
    x = object.__new__(FieldElement)
    x.field, x.num, x.den = field, num, den
    return x


class FieldElement:
    """(U + V*omega)/den: the kernel pair num = (U, V) of O_K over a positive
    integer den, in lowest terms (gcd(U, V, den) = 1).

    Arithmetic runs on num through the field's IntegerRing and on den in
    plain integers, so the ring is the only place that knows omega's minimal
    polynomial.  u and v are the rational coordinates over {1, omega}.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldDescriptor, u, v=0):
        u = u if isinstance(u, (int, Fraction)) else Fraction(u)
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        if field.is_rational and v != 0:
            raise ValueError("rational field elements have no omega part")
        # u and v are in lowest terms, so over their lcm the triple is too.
        den = math.lcm(u.denominator, v.denominator)
        self.field = field
        self.num = (u.numerator * (den // u.denominator), v.numerator * (den // v.denominator))
        self.den = den

    # -- basic structure -------------------------------------------------

    @property
    def u(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    @property
    def v(self) -> Fraction:
        return Fraction(self.num[1], self.den)

    def coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if self.field is not other.field:
                raise ValueError("elements of different fields")
            return other
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return _element(self.field, (other.numerator, 0), other.denominator)

    @property
    def is_zero(self) -> bool:
        return self.num == (0, 0)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        (u1, v1), d1 = self.num, self.den
        (u2, v2), d2 = other.num, other.den
        return _element(self.field, (u1 * d2 + u2 * d1, v1 * d2 + v2 * d1), d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        (u1, v1), d1 = self.num, self.den
        (u2, v2), d2 = other.num, other.den
        return _element(self.field, (u1 * d2 - u2 * d1, v1 * d2 - v2 * d1), d1 * d2)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _element(self.field, (-self.num[0], -self.num[1]), self.den)

    def __mul__(self, other):
        other = self.coerce(other)
        return _element(
            self.field, integer_ring(self.field).mul(self.num, other.num), self.den * other.den
        )

    __rmul__ = __mul__

    def conj(self) -> "FieldElement":
        # Conjugation maps O_K onto itself, so the result stays in lowest terms.
        return _element(self.field, integer_ring(self.field).conj(self.num), self.den)

    def norm(self) -> Fraction:
        return Fraction(integer_ring(self.field).norm(self.num), self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(integer_ring(self.field).trace(self.num), self.den)

    def __truediv__(self, other):
        other = self.coerce(other)
        ring = integer_ring(self.field)
        # num/den divided by onum/oden is num*conj(onum)*oden / (den*N(onum)).
        n = ring.norm(other.num)
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        u, v = ring.mul(self.num, ring.conj(other.num))
        return _element(self.field, (u * other.den, v * other.den), self.den * n)

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (self.field.one() / self) ** (-k)
        mul = integer_ring(self.field).mul
        result, base, den = (1, 0), self.num, self.den**k
        while k:
            if k & 1:
                result = mul(result, base)
            base = mul(base, base)
            k >>= 1
        return _element(self.field, result, den)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.num == other.num and self.den == other.den and self.field == other.field
        if isinstance(other, (int, Fraction)):
            return self.num == (other.numerator, 0) and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # Equal to the int or Fraction it compares equal to.
        (U, V), den = self.num, self.den
        if V:
            return hash((self.field, U, V, den))
        return hash(U if den == 1 else Fraction(U, den))

    def __repr__(self):
        return f"<{format_element(self)} in {self.field}>"


# -- the edge between FieldElements and kernel values -------------------------


def kernel_edge(fn):
    """Let the kernel form fn(ring, x, ...) also take FieldElements.

    The kernel form takes a ring first: an IntegerRing, with pairs and
    Ideals, or INTS, with ints over Q.  Called with an element x
    first, the edge runs fn on the IntegerRing of x's field with every
    FieldElement argument as its pair (integral and of that field, else
    ValueError), and turns each pair of the result, in lists and tuples,
    back into an element.  It is the one place where the helpers of the
    check and the descent convert elements."""

    @functools.wraps(fn)
    def edge(*args):  # fn(*args) passes the tuple on: the kernel calls' fast path
        if type(args[0]) is not FieldElement:
            return fn(*args)
        ring = integer_ring(args[0].field)
        return elements_of(ring, fn(ring, *(ring.pair(y) if type(y) is FieldElement else y for y in args)))

    return edge


def elements_of(ring, x):
    """The FieldElements of ring's kernel values in x (INTS's ints, an
    IntegerRing's pairs), elementwise in lists and tuples; anything else is
    returned as it is."""
    if ring is INTS:
        if type(x) is int:
            return _element(RATIONAL, (x, 0), 1)
    elif type(x) is tuple and type(x[0]) is int:
        return ring.element(x)
    if type(x) in (list, tuple):
        return type(x)(elements_of(ring, y) for y in x)
    return x


# -- size (archimedean) ------------------------------------------------------


def size_sq(x: FieldElement) -> Surd:
    """Exact square of elem_size(x): max over archimedean embeddings, the
    kernel's size key of the numerator over 2*den^2."""
    key, den2 = integer_ring(x.field).size_sq(x.num), 2 * x.den * x.den
    if not isinstance(key, IntSurd):
        return Surd(Fraction(key, den2))
    # sqrt(disc) is sqrt(d), or 2*sqrt(d) when omega = sqrt(d).
    s = 2 * key.s if x.field.omega_kind == "sqrt_d" else key.s
    return Surd(Fraction(key.r, den2), Fraction(s, den2), x.field.d)


def elem_size(x: FieldElement) -> float:
    """Max over archimedean embeddings of |sigma(x)|, as a float."""
    return math.sqrt(float(size_sq(x)))


def size_lt_size_minus_one(w: FieldElement, b: FieldElement) -> bool:
    """Exact |w| < |b| - 1, |x| the largest absolute value of x under an
    embedding, on the kernel: over the common denominator e of w and b it is
    |W| < |B| - e for the numerators W = e*w and B = e*b.  Over a real field
    2|x| = |tr x| + |v|*sqrt(disc); otherwise |x|^2 = N(x), and with
    a = N(W), c = N(B), sqrt(a) < sqrt(c) - e holds exactly when c > e^2 and
    c + e^2 - a > 2e*sqrt(c)."""
    ring, e = integer_ring(w.field), math.lcm(w.den, b.den)
    W = (w.num[0] * (e // w.den), w.num[1] * (e // w.den))
    B = (b.num[0] * (e // b.den), b.num[1] * (e // b.den))
    if ring.real:
        r = abs(ring.trace(B)) - abs(ring.trace(W)) - 2 * e
        return surd_sign(r, abs(B[1]) - abs(W[1]), w.field.disc) > 0
    a, c = ring.norm(W), ring.norm(B)
    diff = c + e * e - a
    return c > e * e and diff > 0 and diff * diff > 4 * e * e * c


# -- integrality, rounding, Euclidean division ------------------------------


def require_integral(x: FieldElement) -> FieldElement:
    if not x.is_integral:
        raise ValueError(f"{x!r} is not an algebraic integer")
    return x


def is_unit(x: FieldElement) -> bool:
    """True iff x is a unit of O_K (requires x integral)."""
    return x.is_integral and abs(integer_ring(x.field).norm(x.num)) == 1


def nearest_integer(x: FieldElement) -> FieldElement:
    """Closest element of O_K to x under elem_size.

    Ties break to the lexicographically smallest (u, v) coordinate pair.
    Over Q and the imaginary fields the size is the norm, and the integer
    kernel rounds in closed form; over a real field it is the max over both
    embeddings, and z = (num + r)/den for the least r in -num + den*O_K:
    r = den*z - num is den times z - x, and it orders like z.
    """
    ring = integer_ring(x.field)
    if not ring.real:
        return ring.element(ring.round(x.num, x.den))
    (U, V), den = x.num, x.den
    r = ring.closest((-U, -V), (den, 0), (0, den))
    return ring.element(((U + r[0]) // den, (V + r[1]) // den))


@kernel_edge
def euclid_divmod(ring: IntegerRing, a, b):
    """Nearest-integer division a = q*b + r with |N(r)| < |N(b)|."""
    if not ring.field.euclidean:
        raise NotEuclidean(f"{ring.field} is not in the Euclidean list")
    if b == (0, 0):
        raise ZeroDivisionError("euclid_divmod by zero")
    return ring.divmod(a, b)


def normalize_associate(x: FieldElement) -> FieldElement:
    """Canonical associate: the unit multiple minimizing (sgn u, sgn v, u, v)
    over a quadratic field, the positive one over Q.  The kernel picks it from
    the numerator: den > 0 orders them alike, and keeps lowest terms."""
    return _element(x.field, integer_ring(x.field).normalize(x.num), x.den)


def gcd_elems(xs: Iterable[FieldElement]) -> FieldElement:
    """gcd of algebraic integers over a Euclidean field, unit-normalised."""
    xs = list(xs)
    if not xs:
        raise AllZero("gcd of empty list")
    field = xs[0].field
    if not field.euclidean:
        raise NotEuclidean(f"{field} is not in the Euclidean list")
    ring = integer_ring(field)
    g = ring.gcd([ring.pair(x) for x in xs])
    if g == (0, 0):
        raise AllZero("gcd of all-zero list")
    return ring.element(g)


# -- the integer kernel: O_K on (u, v) pairs ----------------------------------

DELTA = Fraction(99, 100)  # Lovasz's constant of every LLL reduction


def _lll_rank2(G):
    """Integral LLL (Cohen, Alg. 2.6.7) of the 2 x 2 integral Gram matrix G,
    in scalars: (U * G * U^T, U).  It keeps D_1 = |b_0|^2, lam = lam_10 =
    b_1.b_0, the invariant D_2 = det G and U = [[u0, u1], [v0, v1]].  Each
    pass size-reduces row 1 and tests Lovasz's condition, and a swap sets
    D_1 = (D_2 + lam^2)/D_1 with lam unchanged.  The reduced Gram matrix is
    [[D_1, lam], [lam, (D_2 + lam^2)/D_1]]: |b_1|^2 = B*_1 + mu^2*B*_0 with
    B*_0 = D_1, B*_1 = D_2/D_1 and mu = lam/D_1."""
    d1, lam = G[0][0], G[1][0]
    d2 = d1 * G[1][1] - lam * lam
    if d1 <= 0 or d2 <= 0:
        raise NotPositiveDefinite("Gram matrix is not positive definite (or rows are dependent)")
    dn, dd = DELTA.numerator, DELTA.denominator
    u0, u1, v0, v1 = 1, 0, 0, 1
    while True:
        q = round_quotient(lam, d1)
        if q:
            v0, v1, lam = v0 - q * u0, v1 - q * u1, lam - q * d1
        e = d2 + lam * lam
        if dd * e >= dn * d1 * d1:
            return [[d1, lam], [lam, e // d1]], [[u0, u1], [v0, v1]]
        u0, u1, v0, v1, d1 = v0, v1, u0, u1, e // d1


class IntegerRing:
    """O_K of Q or of a quadratic field, on integer pairs.

    The pair (u, v) stands for u + v*omega, with omega^2 = t*omega + k:
    (t, k) is (0, 0) over Q, (0, d) for omega = sqrt(d) and (1, (d-1)/4) for
    omega = (1+sqrt(d))/2.  Multiplication, conjugation, norm, trace, the
    trace form and exact sizes work over every field; the lattice step of
    the descent (lattice, residues) runs on them, and so do the rank-2 LLL
    step shared with lattice (reduce_basis) and the closest element of a
    coset of a rank-2 lattice, which decide principality (ideals) and round
    over a real field.  Over Q and the imaginary fields the norm is
    positive definite, so every quotient is num/den with den > 0 and rounds
    in closed form; rounding, division with remainder and gcds exist only
    there.  nearest_integer, euclid_divmod and gcd_elems delegate here over
    these fields, and the size reduction in holzer runs on pairs over the
    imaginary fields (on INTS over Q).
    """

    __slots__ = ("field", "t", "k", "units", "real")
    one, zero = (1, 0), (0, 0)

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.real = not (field.is_rational or field.totally_imaginary)
        if field.is_rational:
            self.t, self.k = 0, 0
        elif field.omega_kind == "sqrt_d":
            self.t, self.k = 0, field.d
        else:
            self.t, self.k = 1, (field.d - 1) // 4
        self.units = [self.pair(e) for e in field.units()]

    def pair(self, x: FieldElement) -> tuple[int, int]:
        if x.field is not self.field:
            raise ValueError("elements of different fields")
        require_integral(x)
        return x.num

    def element(self, x: tuple[int, int]) -> FieldElement:
        return _element(self.field, (x[0], x[1]), 1)

    def add(self, x, y):
        return x[0] + y[0], x[1] + y[1]

    def sub(self, x, y):
        return x[0] - y[0], x[1] - y[1]

    def mul(self, x, y):
        u1, v1 = x
        u2, v2 = y
        return u1 * u2 + self.k * v1 * v2, u1 * v2 + u2 * v1 + self.t * v1 * v2

    def conj(self, x):
        return (x[0] + x[1], -x[1]) if self.t else (x[0], -x[1])

    def norm(self, x) -> int:
        u, v = x
        return u * u + self.t * u * v - self.k * v * v

    def trace(self, x) -> int:
        """x + conj(x) = 2u + t*v (2u over Q, as FieldElement.trace)."""
        return 2 * x[0] + self.t * x[1]

    def dot(self, x, y) -> int:
        """The trace form tr(x * conj(y)) over an imaginary field, tr(x * y)
        otherwise: a positive multiple of the inner product of the embedding
        vectors of x and y (twice it over Q and the imaginary fields)."""
        return self.trace(self.mul(x, self.conj(y) if self.field.totally_imaginary else y))

    def size_sq(self, x):
        """Twice the square of the largest absolute value of x under an
        embedding, exactly: an int over Q and the imaginary fields.  Over a
        real field it is tr(x^2) + |v * tr(x)| * sqrt(disc), since
        sigma1(x)^2 - sigma2(x)^2 = v * tr(x) * (omega1 - omega2), returned as
        an IntSurd."""
        if not self.real:
            return 2 * self.norm(x)
        return IntSurd(self.dot(x, x), abs(x[1] * self.trace(x)), self.field.disc)

    def reduce_basis(self, m1, m2):
        """The LLL-reduced basis r1, r2 of the lattice spanned by the pairs
        m1 and m2 in the trace form (_lll_rank2), and its reduced Gram
        matrix [[dot(r1, r1), dot(r1, r2)], [dot(r1, r2), dot(r2, r2)]]."""
        dot = self.dot
        g = dot(m1, m2)
        gram, ((a, b), (c, e)) = _lll_rank2([[dot(m1, m1), g], [g, dot(m2, m2)]])
        r1 = (a * m1[0] + b * m2[0], a * m1[1] + b * m2[1])
        return r1, (c * m1[0] + e * m2[0], c * m1[1] + e * m2[1]), gram

    def closest(self, x, m1, m2):
        """The least element of x + L under the key (size_sq, u, v), L the
        lattice spanned by the pairs m1 and m2.

        Babai's rounding in the reduced basis r1, r2 gives a start; the
        window around it holds every candidate no larger, for any basis, and
        sizes are compared exactly in integers.
        """
        dot = self.dot
        r1, r2, ((n1, g), (_, n2)) = self.reduce_basis(m1, m2)
        det = r1[0] * r2[1] - r2[0] * r1[1]
        if det < 0:
            r2, det = (-r2[0], -r2[1]), -det
        # x = (c1*r1 + c2*r2)/det; Babai rounding gives the starting candidate.
        xu, xv = x
        c1, c2 = xu * r2[1] - xv * r2[0], r1[0] * xv - r1[1] * xu
        k1, k2 = round_quotient(c1, det), round_quotient(c2, det)
        base = (xu - k1 * r1[0] - k2 * r2[0], xv - k1 * r1[1] - k2 * r2[1])
        best = (self.size_sq(base), *base)
        # The trace form is at most size_sq (equal over an imaginary field), so
        # a candidate z = y - k1*r1, y = x - k2*r2, no larger than the start has
        # dot(z, z) <= S.  The part of z orthogonal to r1 gives
        # dot(z, z) >= G*(c2 - k2*det)^2 / (n1*det^2), G = n1*n2 - g^2 the Gram
        # determinant, whatever the basis: a window of 2*sqrt(S*n1/G) + 1
        # values of k2, which the reduced basis keeps to a few.
        S = math.ceil(best[0])
        L = math.isqrt(S * n1 * det * det // (n1 * n2 - g * g))
        for k2 in range(-((L - c2) // det), (c2 + L) // det + 1):
            y = (xu - k2 * r2[0], xv - k2 * r2[1])
            e = dot(y, r1)
            # dot(z, z) = (k1*n1 - e)^2 / n1 + the orthogonal part <= S.
            room = math.isqrt(S * n1 - n1 * dot(y, y) + e * e)
            for k1 in range(-((room - e) // n1), (e + room) // n1 + 1):
                cand = (y[0] - k1 * r1[0], y[1] - k1 * r1[1])
                key = (self.size_sq(cand), *cand)
                if key < best:
                    best = key
        return best[1:]

    def sqrt(self, x):
        """The root y of y^2 = x in O_K with tr(y) > 0, or tr(y) = 0 and
        v > 0; None when x is not a square.

        Closed form with integer square roots (Cohen, A Course in
        Computational Algebraic Number Theory, 1.7): N(y)^2 = N(x),
        tr(y)^2 = tr(x) + 2N(y) and y*tr(y) = x + N(y).  When tr(y) = 0, y is
        an integer multiple of sqrt(d): v^2 = -4N(y)/disc and u = -t*v/2.
        """
        if x == (0, 0):
            return x
        nx = self.norm(x)
        m = math.isqrt(nx) if nx > 0 else 0
        if m * m != nx:
            return None
        for n in (m, -m):
            s2 = self.trace(x) + 2 * n
            if s2 < 0:
                continue
            s = math.isqrt(s2)
            if s * s != s2:
                continue
            if s:
                y = ((x[0] + n) // s, x[1] // s)
            elif self.field.is_rational:
                continue
            else:
                v2, r = divmod(-4 * n, self.field.disc)
                v = math.isqrt(v2) if v2 > 0 and not r else 0
                y = (-(self.t * v) // 2, v)
            if self.mul(y, y) == x:
                return y
        return None

    def _require_definite(self):
        if self.real:
            raise ValueError(f"{self.field} is a real quadratic field: no closed-form rounding")

    def round(self, num, den: int) -> tuple[int, int]:
        """The pair nearest to num/den (den > 0) in the norm; ties go to the
        smallest (u, v)."""
        self._require_definite()
        nu, nv = num
        if not self.t:
            # The norm weighs the squares of the two coordinates apart, so
            # each rounds on its own, a tie going down: ceil(s - 1/2).
            return -((den - 2 * nu) // (2 * den)), -((den - 2 * nv) // (2 * den))
        # N(x - z) = (x_u - u + w/2)^2 + (|d|/4) w^2 with w = x_v - v.  A v
        # other than floor(x_v) and floor(x_v) + 1 has |w| >= 1 and costs at
        # least |d|/4 >= 3/4, more than the nearer of those two with its best
        # u (at most 1/4 + |d|/16).  For each v the best u is ceil(s - 1/2)
        # with s = x_u + w/2, the smaller one at a tie.
        best = None
        for v in (nv // den, nv // den + 1):
            w = nv - v * den
            u = -((den - 2 * nu - w) // (2 * den))
            key = (self.norm((nu - u * den, w)), u, v)
            if best is None or key < best:
                best = key
        return best[1], best[2]

    def divmod(self, a, b):
        """(q, r) with a = q*b + r and q the nearest integer to a/b: round
        a*conj(b) over N(b), in scalars (conj(b) = (bu + t*bv, -bv))."""
        (au, av), (bu, bv), t, k = a, b, self.t, self.k
        cu = bu + t * bv
        den = bu * cu - k * bv * bv
        qu, qv = self.round((au * cu - k * av * bv, av * cu - au * bv - t * av * bv), den)
        ru, rv = au - qu * bu - k * qv * bv, av - qu * bv - qv * bu - t * qv * bv
        assert abs(ru * ru + t * ru * rv - k * rv * rv) < abs(den)
        return (qu, qv), (ru, rv)

    def exact_div(self, a, b):
        """a / b when b divides a, else None."""
        den = self.norm(b)
        u, v = self.mul(a, self.conj(b))
        if u % den or v % den:
            return None
        return u // den, v // den

    def xgcd(self, a, b):
        """(g, s, t) with s*a + t*b = g = gcd(a, b), by Euclid's algorithm."""
        self._require_definite()
        r0, r1 = a, b
        s0, s1 = (1, 0), (0, 0)
        t0, t1 = (0, 0), (1, 0)
        while r1 != (0, 0):
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        assert self.add(self.mul(s0, a), self.mul(t0, b)) == r0
        return r0, s0, t0

    def normalize(self, x):
        """The associate normalize_associate picks."""
        if x == (0, 0):
            return x
        if self.field.is_rational:
            return x if x[0] > 0 else (-x[0], 0)

        def key(y):
            return (y[0] > 0) - (y[0] < 0), (y[1] > 0) - (y[1] < 0), y[0], y[1]

        return min((self.mul(x, e) for e in self.units), key=key)

    def gcd(self, xs):
        """The normalised gcd of the pairs xs; (0, 0) if all are zero."""
        self._require_definite()
        g = (0, 0)
        for h in xs:
            while h != (0, 0):
                if g == (0, 0):
                    g, h = h, (0, 0)
                else:
                    _, r = self.divmod(g, h)
                    g, h = h, r
        return self.normalize(g)


@functools.cache
def integer_ring(field: FieldDescriptor) -> IntegerRing:
    """The integer kernel of Q or a quadratic field."""
    return IntegerRing(field)


# -- Q's kernel: plain ints ----------------------------------------------------


def _int_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = +-gcd(a, b), by Euclid's algorithm with
    IntegerRing.divmod's quotient ceil(r0/r1 - 1/2), so the Bezout
    coefficients are those of the pair path."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = -((r1 - 2 * r0) // (2 * r1))
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    assert s0 * a + t0 * b == r0
    return r0, s0, t0


# Q's integers as a kernel: the part of IntegerRing's API that the Holzer
# step uses, on plain ints (gcd is the positive one).
INTS = SimpleNamespace(
    field=RATIONAL, one=1, zero=0, mul=operator.mul, add=operator.add, sub=operator.sub,
    norm=lambda x: x * x,
    exact_div=lambda a, b: None if a % b else a // b, gcd=lambda xs: math.gcd(*xs), xgcd=_int_xgcd,
)


def divides(a: FieldElement, b: FieldElement) -> bool:
    """True iff a | b in O_K (exact integral quotient)."""
    if a.is_zero:
        return b.is_zero
    return (b / a).is_integral


def elem_sqrt(s: FieldElement) -> Optional[FieldElement]:
    """A square root of s in K, or None if s is not a square in K: the
    kernel's root of s*den^2, which is integral when it exists, over den."""
    (U, V), den = s.num, s.den
    y = integer_ring(s.field).sqrt((U * den, V * den))
    return None if y is None else _element(s.field, y, den)


# -- text grammar ------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<num>\d+)(?:/(?P<den>\d+))?\s*\*?\s*(?P<sym1>[sw])?
          | (?P<sym2>[sw])
        )\s*""",
    re.VERBOSE,
)


def parse_element(field: FieldDescriptor, text: str) -> FieldElement:
    """Parse the element grammar: INT, p/q, s = sqrt(d), w = omega.

    The terms are summed in integers: the parts of 1, s and w, keyed by
    their symbol, over one running denominator e."""
    text = text.strip()
    if not text:
        raise ParseError("empty element")
    pos, e = 0, 1
    parts = {None: 0, "s": 0, "w": 0}
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse element {text!r} at offset {pos}")
        sign, sym = m.group("sign"), m.group("sym2")
        if pos and not sign:
            raise ParseError(f"missing +/- between terms in {text!r}")
        num, den = (1, 1) if sym else (int(m.group("num")), int(m.group("den") or 1))
        if not den:
            raise ParseError(f"zero denominator in element {text!r}")
        if e % den:
            k = den // math.gcd(e, den)
            parts, e = {key: x * k for key, x in parts.items()}, e * k
        parts[sym or m.group("sym1")] += (-num if sign == "-" else num) * (e // den)
        pos = m.end()
    r, s, w = parts.values()
    if field.is_rational:
        if s or w:
            raise ParseError("symbols s/w are not valid over Q")
        return _element(field, (r, 0), e)
    if field.omega_kind == "sqrt_d":
        return _element(field, (r, s + w), e)
    return _element(field, (r - s, 2 * s + w), e)  # sqrt(d) = 2*omega - 1


def _fmt_rat(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms, as str(Fraction(n, d)) writes it."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_element(x: FieldElement) -> str:
    """Render in the wire grammar using s-coordinates (1 and sqrt(d)):
    x = (p + q*sqrt(d))/e in integers."""
    (U, V), den = x.num, x.den
    if x.field.is_rational or x.field.omega_kind == "sqrt_d":
        p, q, e = U, V, den
    else:
        p, q, e = 2 * U + V, V, 2 * den
    if q == 0:
        return _fmt_rat(p, e)
    s_term = "s" if abs(q) == e else f"{_fmt_rat(abs(q), e)}s"
    s_sign = "-" if q < 0 else "+"
    if p == 0:
        return ("-" if q < 0 else "") + s_term
    return f"{_fmt_rat(p, e)}{s_sign}{s_term}"
