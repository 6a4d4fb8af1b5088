"""Exact amenability certificates for finitely generated groups.

Builds chain and cochain complexes with exact rational coefficients over
free, free-abelian and finite groups, evaluates the duality pairing
between bounded cochains and summable chains, produces Folner/Reiter
certificates on the amenable side, and verifies the explicit free-group
flow-cycle witness (pairing value 2) on the non-amenable side.
"""

__version__ = "0.1.0"

from .groups import (
    Element,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupSpec,
    cyclic_group,
    cyclic_table,
    group_from_dict,
    load_group,
)
from .functions import (
    BoundedFn,
    FinSuppFn,
    TreeFlow,
    delta,
    pair_eval,
)
from .complexes import (
    KIND_L1,
    KIND_LINF,
    BoundedCochain,
    EquivariantChain,
    UfChain,
    connecting_lift_check,
    deflate,
    fundamental_cycle,
    inflate,
    johnson_cocycle,
    one_cochain,
    one_l1_cycle,
    one_lift_cochain,
)
from .pairing import PairingCertificate, make_pairing_certificate, pair
from .amenability import (
    FiniteH0Report,
    FolnerCertificate,
    FolnerFailure,
    finite_h0,
    folner_certificate_from_set,
    folner_search,
    indicator,
    isoperimetric_argmin,
    reiter_ratio,
)
from .witnesses import (
    FlowCycleSpec,
    FlowVerification,
    flow_cycle,
    flow_pairing_certificate,
    flow_value,
    verify_flow_cycle,
)
