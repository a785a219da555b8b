"""Solvability certificates for a*x^2 + b*y^2 + c*z^2 = 0.

The local-global principle reduces solvability to a real-embedding sign
check, one congruence condition per odd prime ideal dividing a coefficient,
and a smooth-point search at the primes over 2.  Each certificate carries
the per-place verdicts and witnesses so it can be re-verified externally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import BaseDegenerate, UndecidedError
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
    is_principal,
    principal_ideal,
    splitting_type,
)
from .residues import local_solvable_at_two, sqrt_mod_odd_prime_power


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


def noncoprime_reduce(
    a: FieldElement, b: FieldElement, c: FieldElement, P: PrimeIdeal
):
    """One reduction step at an odd prime P dividing at least two coefficients.

    Returns ("equation", (a2, b2, c2)) when the condition at P is equivalent
    to that of a rewritten equation, or ("congruence", e, rhs) when it is
    equivalent to the solvability of X^2 = rhs (mod P^e).  Requires a
    generator of P; raises UndecidedError when P is not principal.
    """
    vals = [
        (element_valuation(x, P), i, x) for i, x in enumerate((a, b, c))
    ]
    order = sorted(vals, key=lambda t: -t[0])
    (va, _, ca), (vb, _, cb), (vc, _, cc) = order
    assert vb > 0, "reduction step needs two coefficients divisible by P"
    pi = is_principal(P.ideal())
    if pi is None:
        raise UndecidedError(
            f"prime {P} divides two coefficients but is not principal; "
            "cannot rewrite the equation globally"
        )
    if vc > 0:
        new = tuple(x / pi**vc for x in (ca, cb, cc))
        return ("equation", new)
    if va > vb:
        return ("congruence", va, -(cb * cc))
    v2 = va % 2
    new = (ca / pi**va, cb / pi**va, cc * pi**v2)
    return ("equation", new)


def _odd_prime_condition(
    a: FieldElement, b: FieldElement, c: FieldElement, P: PrimeIdeal
) -> tuple[bool, Optional[FieldElement]]:
    """Decide local solvability at an odd prime P, with a witness root.

    Over an odd residue field only the valuation parities and the residue
    classes of the unit parts matter: if all three valuations share a
    parity, a ternary form in units is always isotropic; otherwise the
    equation is isotropic exactly when the pair of coefficients with
    matching parity, say c_i and c_j, makes -c_i*c_j a square times an
    even power of the uniformiser, which is a root search mod P^(s+1)
    with s = v(c_i) + v(c_j).
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
    rhs = -(coeffs[i] * coeffs[j])
    s = vals[i] + vals[j]
    roots = sqrt_mod_odd_prime_power(rhs, P, s + 1)
    if not roots:
        return False, None
    return True, roots[0]


def _dyadic_depth(eq: ConicEquation, P: PrimeIdeal, v_max: Optional[int]) -> int:
    if v_max is not None:
        return v_max
    # A primitive local solution has a unit coordinate, so the witness level
    # is at most v_P(2) + max coefficient valuation.
    need = element_valuation(eq.field.element(2), P) + max(
        element_valuation(eq.a, P),
        element_valuation(eq.b, P),
        element_valuation(eq.c, P),
    )
    return max(3, min(need + 1, 6))


def check_solvable(eq: ConicEquation, v_max: Optional[int] = None) -> Certificate:
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

    for P in splitting_type(field, 2)[1]:
        depth = _dyadic_depth(eq, P, v_max)
        got = local_solvable_at_two(eq.a, eq.b, eq.c, P, depth)
        entry = {
            "type": "dyadic",
            "prime": repr(P),
            "ok": got is not None,
        }
        if got is not None:
            x, y, z, v = got
            entry["witness"] = [format_element(x), format_element(y), format_element(z)]
            entry["level"] = v
        conditions.append(entry)
        if got is None:
            return Certificate(False, "dyadic", conditions)

    return Certificate(True, "solvable", conditions)
