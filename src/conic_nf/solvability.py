"""Solvability certificates for a*x^2 + b*y^2 + c*z^2 = 0.

The local-global principle reduces solvability to a real-embedding sign
check, one congruence condition per odd prime ideal dividing a coefficient,
and the primes over 2.  Those need no search: by Hilbert reciprocity the
last prime over 2 passes when every other place does, and when 2 splits the
first one has completion Q_2 and is decided by the 2-adic Hilbert symbol.
Each certificate carries the per-place verdicts, the odd-prime witnesses and
the rule that decided each prime over 2, so it can be re-verified externally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import BaseDegenerate
from .fields import (
    FieldDescriptor,
    FieldElement,
    Surd,
    format_element,
)
from .ideals import (
    PrimeIdeal,
    element_valuation,
    factor_ideal,
    principal_ideal,
    splitting_type,
)
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

    @property
    def field(self) -> FieldDescriptor:
        return self.a.field

    @staticmethod
    def from_coefficients(a: FieldElement, b: FieldElement, c: FieldElement):
        """Scale a rational-coefficient triple to an integral one."""
        m = math.lcm(
            *(Fraction(co).denominator for x in (a, b, c) for co in (x.u, x.v))
        )
        return ConicEquation(a * m, b * m, c * m)

    def evaluate(self, x: FieldElement, y: FieldElement, z: FieldElement):
        return self.a * x * x + self.b * y * y + self.c * z * z


@dataclass
class Certificate:
    solvable: bool
    reason: str
    conditions: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "solvable": self.solvable,
            "reason": self.reason,
            "conditions": self.conditions,
        }


def _embedding_signs(x: FieldElement) -> list[int]:
    field = x.field
    if field.is_rational:
        return [1 if x.u > 0 else -1]
    if field.totally_imaginary:
        return []
    p, q = x.s_coords()
    return [Surd(p, q, field.d).sign(), Surd(p, -q, field.d).sign()]


def embedding_condition(eq: ConicEquation) -> bool:
    """True when every real embedding gives the coefficients mixed signs."""
    if eq.field.totally_imaginary:
        return True
    sa, sb, sc = (
        _embedding_signs(eq.a),
        _embedding_signs(eq.b),
        _embedding_signs(eq.c),
    )
    for i in range(len(sa)):
        if sa[i] == sb[i] == sc[i]:
            return False
    return True


def _odd_prime_condition(
    a: FieldElement, b: FieldElement, c: FieldElement, P: PrimeIdeal
) -> tuple[bool, Optional[FieldElement]]:
    """Decide local solvability at an odd prime P, with a witness root.

    Over an odd residue field only the valuation parities and the residue
    classes of the unit parts matter: if all three valuations share a
    parity, a ternary form in units is always isotropic; otherwise the
    equation is isotropic exactly when the pair of coefficients with
    matching parity, say c_i and c_j, makes -c_i*c_j a square times an
    even power of the uniformiser, which is a root mod P^(s+1) with
    s = v(c_i) + v(c_j); the witness is the least root.
    """
    coeffs = (a, b, c)
    vals = [element_valuation(x, P) for x in coeffs]
    parities = [v % 2 for v in vals]
    if parities[0] == parities[1] == parities[2]:
        return True, None
    if parities[0] == parities[1]:
        i, j = 0, 1
    elif parities[0] == parities[2]:
        i, j = 0, 2
    else:
        i, j = 1, 2
    witness = least_root(-(coeffs[i] * coeffs[j]), P, vals[i] + vals[j])
    return witness is not None, witness


def check_solvable(eq: ConicEquation) -> Certificate:
    """Full local solvability check with per-place conditions and witnesses."""
    conditions: list[dict] = []
    field = eq.field

    ok = embedding_condition(eq)
    if not field.totally_imaginary:
        conditions.append({"type": "real_embedding", "ok": ok})
    if not ok:
        return Certificate(False, "real_embedding", conditions)

    odd_primes: dict = {}
    for coeff in (eq.a, eq.b, eq.c):
        for P, _ in factor_ideal(principal_ideal(coeff)):
            if P.p != 2:
                odd_primes[P] = P
    for P in odd_primes.values():
        ok, witness = _odd_prime_condition(eq.a, eq.b, eq.c, P)
        conditions.append(
            {
                "type": "odd_prime",
                "prime": repr(P),
                "ok": ok,
                "witness": format_element(witness) if witness is not None else None,
            }
        )
        if not ok:
            return Certificate(False, "congruence", conditions)

    # Two primes over 2 only when 2 splits, and then the first has K_P = Q_2.
    *first, last = splitting_type(field, 2)[1]
    for P in first:
        ok = local_solvable_at_two(eq.a, eq.b, eq.c, P)
        conditions.append(
            {"type": "dyadic", "prime": repr(P), "ok": ok, "by": "hilbert_symbol"}
        )
        if not ok:
            return Certificate(False, "dyadic", conditions)
    # Hilbert reciprocity: the symbols (-ac, -bc)_v over all places multiply
    # to 1, and every other place has passed (the odd primes not dividing a
    # coefficient and the complex places pass trivially).
    conditions.append(
        {"type": "dyadic", "prime": repr(last), "ok": True, "by": "reciprocity"}
    )
    return Certificate(True, "solvable", conditions)
