"""Solvability certificates for a*x^2 + b*y^2 + c*z^2 = 0.

The local-global principle reduces solvability to a real-embedding sign
check, one congruence condition per odd prime ideal dividing a coefficient,
and the primes over 2.  Those need no search: by Hilbert reciprocity the
last prime over 2 passes when every other place does, and when 2 splits the
first one has completion Q_2 and is decided by the 2-adic Hilbert symbol.
Each certificate carries the per-place verdicts, the odd-prime witnesses and
the rule that decided each prime over 2, so it can be re-verified externally.

The check runs on IntegerRing pairs, Q's as (u, 0), and builds no ideal
of a coefficient; the descent passes it its own values, and only the
witnesses are made elements.  The valuations of x = u + v*omega are
ideals.factor_element's: from the factorisation of |N(x)| and, with
g = gcd(u, v), the closed form of v_P(g*J) for the primitive ideal
J = (x/g).  At a degree-1 unramified prime (Q and split primes) the witness
is closed-form too: the lesser of +-p^(s/2)*y mod p^(s/2+1), for y a square
root mod p of the unit part of the image of -c_i*c_j in Z/p^(s+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import BaseDegenerate, PreconditionViolated
from .fields import (
    FieldDescriptor,
    FieldElement,
    IntegerRing,
    format_element,
    integer_ring,
    surd_sign,
)
from .ideals import PrimeIdeal, factor_element, splitting_type
from .residues import least_root, local_solvable_at_two


@dataclass(frozen=True)
class ConicEquation:
    """The diagonal conic a*x^2 + b*y^2 + c*z^2 = 0 with integral a, b, c."""

    a: FieldElement
    b: FieldElement
    c: FieldElement

    def __post_init__(self):
        if self.a.is_zero or self.b.is_zero or self.c.is_zero:
            raise BaseDegenerate("all three coefficients must be nonzero")
        if not (self.a.is_integral and self.b.is_integral and self.c.is_integral):
            raise BaseDegenerate("coefficients must be algebraic integers")
        if not self.a.field == self.b.field == self.c.field:
            raise PreconditionViolated("the coefficients must lie in one field")

    @property
    def field(self) -> FieldDescriptor:
        return self.a.field

    @staticmethod
    def from_coefficients(a: FieldElement, b: FieldElement, c: FieldElement):
        """Scale a rational-coefficient triple to an integral one."""
        m = math.lcm(a.den, b.den, c.den)
        return ConicEquation(a, b, c) if m == 1 else ConicEquation(a * m, b * m, c * m)

    def evaluate(self, x: FieldElement, y: FieldElement, z: FieldElement):
        return self.a * x * x + self.b * y * y + self.c * z * z


@dataclass
class Certificate:
    """The verdict with one entry per place.  places holds each prime as a
    PrimeIdeal and each witness as a FieldElement; conditions writes them as
    text, only when read."""

    solvable: bool
    reason: str
    places: list = dc_field(default_factory=list)

    @property
    def conditions(self) -> list[dict]:
        out = []
        for place in self.places:
            place = dict(place)
            if "prime" in place:
                place["prime"] = repr(place["prime"])
            if place.get("witness") is not None:
                place["witness"] = format_element(place["witness"])
            out.append(place)
        return out

    def to_dict(self) -> dict:
        return {
            "solvable": self.solvable,
            "reason": self.reason,
            "conditions": self.conditions,
        }


def _mixed_signs(ring: IntegerRing, a, b, c) -> bool:
    """True when every real embedding gives the pairs a, b, c mixed signs."""
    field = ring.field
    if field.is_rational:
        return not (a[0] > 0) == (b[0] > 0) == (c[0] > 0)
    # Twice the embeddings of u + v*omega are tr +- v*sqrt(disc), real if disc > 0.
    d, ta, tb, tc = field.disc, ring.trace(a), ring.trace(b), ring.trace(c)
    for e in (1, -1) if d > 0 else ():
        if surd_sign(ta, e * a[1], d) == surd_sign(tb, e * b[1], d) == surd_sign(tc, e * c[1], d):
            return False
    return True


def embedding_condition(eq: ConicEquation) -> bool:
    """True when every real embedding gives the coefficients mixed signs."""
    return _mixed_signs(integer_ring(eq.field), eq.a.num, eq.b.num, eq.c.num)


def _odd_prime_condition(
    coeffs: tuple, vals: list[int], P: PrimeIdeal
) -> tuple[bool, Optional[FieldElement]]:
    """Decide local solvability at an odd prime P, with a witness root, from
    the coefficients (a, b, c), as pairs of P's integer kernel, and their
    valuations vals at P.

    Over an odd residue field only the valuation parities and the residue
    classes of the unit parts matter: if all three valuations share a
    parity, a ternary form in units is always isotropic; otherwise the
    equation is isotropic exactly when the pair of coefficients with
    matching parity, say c_i and c_j, makes -c_i*c_j a square times an
    even power of the uniformiser, which is a root mod P^(s+1) with
    s = v(c_i) + v(c_j); the witness is the least root.
    """
    parities = [v % 2 for v in vals]
    if parities[0] == parities[1] == parities[2]:
        return True, None
    if parities[0] == parities[1]:
        i, j = 0, 1
    elif parities[0] == parities[2]:
        i, j = 0, 2
    else:
        i, j = 1, 2
    ring = integer_ring(P.field)
    u, v = ring.mul(coeffs[i], coeffs[j])
    root = least_root(ring, (-u, -v), P, vals[i] + vals[j])
    return root is not None, None if root is None else ring.element(root)


def check_solvable(ring, a=None, b=None, c=None, primes=()) -> Certificate:
    """Full local solvability check with per-place conditions and witnesses,
    of a ConicEquation, check_solvable(eq), or of the nonzero kernel values
    a, b, c of ring, with the caller's known primes, which factor_int
    divides out first."""
    if isinstance(ring, ConicEquation):
        eq, ring = ring, integer_ring(ring.field)
        a, b, c = ring.pair(eq.a), ring.pair(eq.b), ring.pair(eq.c)
    elif ring.zero in (a, b, c):
        raise BaseDegenerate("all three coefficients must be nonzero")
    places: list[dict] = []
    field = ring.field

    if not field.totally_imaginary:
        ok = _mixed_signs(ring, a, b, c)
        places.append({"type": "real_embedding", "ok": ok})
        if not ok:
            return Certificate(False, "real_embedding", places)

    # v_P of each coefficient (0 where P is absent), keyed by (p, r), which
    # tells the primes over p apart; the primes of a come first, then the
    # new ones of b and c.
    factors = [factor_element(ring, x, primes) for x in (a, b, c)]
    valuations = [{(P.p, P.r): k for P, k in f} for f in factors]
    for key, P in {(P.p, P.r): P for f in factors for P, _ in f if P.p != 2}.items():
        vals = [f.get(key, 0) for f in valuations]
        ok, witness = _odd_prime_condition((a, b, c), vals, P)
        places.append({"type": "odd_prime", "prime": P, "ok": ok, "witness": witness})
        if not ok:
            return Certificate(False, "congruence", places)

    # Two primes over 2 only when 2 splits, and then the first has K_P = Q_2.
    *first, last = splitting_type(field, 2)[1]
    for P in first:
        ok = local_solvable_at_two(ring, a, b, c, P)
        places.append(
            {"type": "dyadic", "prime": P, "ok": ok, "by": "hilbert_symbol"}
        )
        if not ok:
            return Certificate(False, "dyadic", places)
    # Hilbert reciprocity: the symbols (-ac, -bc)_v over all places multiply
    # to 1, and every other place has passed (the odd primes not dividing a
    # coefficient and the complex places pass trivially).
    places.append(
        {"type": "dyadic", "prime": last, "ok": True, "by": "reciprocity"}
    )
    return Certificate(True, "solvable", places)
