"""Duality pairing between bounded cochains and summable equivariant chains.

The pairing sums, over the finitely supported slice of the chain, the
evaluation pairing of the cochain value against the chain value. It is
well defined on classes because the coboundary is adjoint to the boundary;
`adjointness_values` computes both sides of that identity through two
independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import BoundedCochain, EquivariantChain
from .functions import frac_str, pair_eval


def pair(phi: BoundedCochain, c: EquivariantChain) -> Fraction:
    """<phi, c> = sum over supported slice keys of <phi(key), c(key)>."""
    if phi.group != c.group:
        raise ValueError("pairing requires a cochain and a chain over the same group")
    if phi.degree != c.degree:
        raise ValueError(f"degree mismatch: cochain {phi.degree}, chain {c.degree}")
    # exact rational sums do not depend on the order of the slice keys; a chain's slice keys are
    # checked degree-tuples of group elements already, so each is read with no second check
    return sum((pair_eval(phi._value(key), value) for key, value in c.slice.items()), Fraction(0))


def adjointness_values(phi: BoundedCochain, c: EquivariantChain) -> tuple[Fraction, Fraction]:
    """pair(d phi, c) and pair(phi, boundary c), computed independently; adjointness says they are equal."""
    if c.degree != phi.degree + 1:
        raise ValueError("adjointness needs chain degree = cochain degree + 1")
    return pair(phi.coboundary(), c), pair(phi, c.boundary())


class PairingCertificate(NamedTuple):
    """Serializable record of one pairing computation."""

    cochain_id: str
    cycle_id: str
    truncation_radius: int
    value: Fraction
    group_hash: str
    adjointness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "type": "pairing-certificate",
            "cochain": self.cochain_id,
            "cycle": self.cycle_id,
            "truncation-radius": self.truncation_radius,
            "value": frac_str(self.value),
            "group-hash": self.group_hash,
        }
        if self.adjointness is not None:
            out["adjointness-witness"] = self.adjointness
        return out


def make_pairing_certificate(
    phi: BoundedCochain,
    c: EquivariantChain,
    cycle_id: str | None = None,
    adjoint_of: BoundedCochain | None = None,
) -> PairingCertificate:
    """Pair and certify; optionally cross-check through a lower cochain.

    When `adjoint_of` is a degree m-1 cochain whose coboundary has the same
    values as `phi` on the chain's support, the certificate records both
    routes pair(phi, c) and pair(adjoint_of, boundary c) as an adjointness
    witness.
    """
    value = pair(phi, c)
    adjointness = None
    if adjoint_of is not None:
        via_cochain, via_chain = adjointness_values(adjoint_of, c)
        adjointness = {
            "cochain-route": frac_str(via_cochain),
            "chain-route": frac_str(via_chain),
            "equal": via_cochain == value == via_chain,
        }
    return PairingCertificate(
        cochain_id=phi.label or "cochain",
        cycle_id=cycle_id or "cycle",
        truncation_radius=c.support_radius(),
        value=value,
        group_hash=c.group.spec_hash(),
        adjointness=adjointness,
    )
