"""Duality pairing between bounded cochains and summable equivariant chains.

The pairing sums, over the finitely supported slice of the chain, the
evaluation pairing of the cochain value against the chain value. It is
well defined on classes because the coboundary is adjoint to the boundary;
`adjointness_values` computes both sides of that identity through two
independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .complexes import BoundedCochain, EquivariantChain
from .functions import _check_den, _pair_ratio
from .groups import GroupSpec


def pair(phi: BoundedCochain, c: EquivariantChain) -> Fraction:
    """<phi, c> = sum over supported slice keys of <phi(key), c(key)>."""
    if phi.group != c.group:
        raise ValueError("pairing requires a cochain and a chain over the same group")
    if phi.degree != c.degree:
        raise ValueError(f"degree mismatch: cochain {phi.degree}, chain {c.degree}")
    # exact rational sums do not depend on the order of the slice keys; a chain's slice keys are
    # checked degree-tuples of group elements already, so each is read with no second check. Each
    # key's reduced value p / q is added over den, the lcm of the q, checked as it grows
    num, den = 0, 1
    for key, value in c.slice.items():
        p, q = _pair_ratio(phi._value(key), value)
        if den % q:
            common = _check_den(lcm(den, q))
            num *= common // den
            den = common
        num += p * (den // q)
    return Fraction(num, den)


def adjointness_values(phi: BoundedCochain, c: EquivariantChain) -> tuple[Fraction, Fraction]:
    """pair(d phi, c) and pair(phi, boundary c), computed independently; adjointness says they are equal."""
    if c.degree != phi.degree + 1:
        raise ValueError("adjointness needs chain degree = cochain degree + 1")
    return pair(phi.coboundary(), c), pair(phi, c.boundary())


class PairingCertificate(NamedTuple):
    """One pairing computation: the pairing value, and both adjointness routes when they were computed."""

    cochain_id: str
    cycle_id: str
    truncation_radius: int
    value: Fraction
    group: GroupSpec
    adjointness: tuple[Fraction, Fraction] | None = None  # (cochain route, chain route)


def make_pairing_certificate(
    phi: BoundedCochain,
    c: EquivariantChain,
    cycle_id: str | None = None,
    adjoint_of: BoundedCochain | None = None,
) -> PairingCertificate:
    """Pair and certify; optionally cross-check through a lower cochain.

    When `adjoint_of` is a degree m-1 cochain whose coboundary has the same
    values as `phi` on the chain's support, the certificate also holds the
    adjointness routes pair(d adjoint_of, c) and pair(adjoint_of, boundary c),
    which then both equal the value.
    """
    return PairingCertificate(
        cochain_id=phi.label or "cochain",
        cycle_id=cycle_id or "cycle",
        truncation_radius=c.support_radius(),
        value=pair(phi, c),
        group=c.group,
        adjointness=None if adjoint_of is None else adjointness_values(adjoint_of, c),
    )
