"""Exact amenability certificates for finitely generated groups.

Builds chain and cochain complexes with exact rational coefficients over
free, free-abelian and finite groups, evaluates the duality pairing
between bounded cochains and summable chains, produces Folner/Reiter
certificates on the amenable side, and verifies the explicit free-group
flow-cycle witness (pairing value 2) on the non-amenable side.

`import amencert` loads no submodule: each public name below is imported
from its module on first access (PEP 562), so a process pays only for
the modules it uses.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "groups": (
        "Element", "FiniteGroup", "FreeAbelianGroup", "FreeGroup", "GroupSpec",
        "cyclic_group", "cyclic_table", "group_from_dict",
    ),
    "functions": ("BoundedFn", "FinSuppFn", "delta", "pair_eval", "tree_flow"),
    "complexes": (
        "KIND_L1", "KIND_LINF", "BoundedCochain", "EquivariantChain", "UfChain",
        "connecting_lift_check", "deflate", "fundamental_cycle", "inflate",
        "johnson_cocycle", "one_cochain", "one_l1_cycle", "one_lift_cochain",
    ),
    "pairing": ("PairingCertificate", "make_pairing_certificate", "pair"),
    "amenability": (
        "FiniteH0Report", "FolnerCertificate", "FolnerFailure", "finite_h0",
        "folner_certificate_from_set", "folner_search", "indicator",
        "isoperimetric_argmin", "reiter_ratio",
    ),
    "witnesses": (
        "FlowCycleSpec", "FlowVerification", "flow_cycle", "flow_pairing_certificate",
        "flow_value", "verify_flow_cycle",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """The public name `name`, imported from its module and kept in this module's namespace."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # with a nonempty fromlist, __import__ returns the submodule itself
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
