"""Command-line surface: certificates in, JSON certificates out.

The library returns values; this module alone writes certificates, each
type's keys in one dict literal, in output order. Exit codes: 0 for a
verified pass, 2 for a verified failure (for example an exhausted Folner
search or a failed selftest), 1 for malformed input. Output is
deterministic byte-for-byte for identical inputs: every support set is
serialized in the canonical element order and all rationals are "p/q"
strings.
"""

from __future__ import annotations

# argparse, the builtin sha256 (through groups) and json stay at the top: main
# builds the parser on every run and every certificate carries its group-hash,
# so every command pays for them. Each command imports the rest of the library
# it runs.
import argparse
import functools
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from . import __version__
from .functions import FinSuppFn, frac_str, parse_frac
from .groups import FiniteGroup, FreeGroup, _short, group_from_dict, json_field, load_json

# the writer for each scalar type, looked up by exact type: a float (never exact) has none
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for str, int, bool, None, list, tuple and dict.

    Python 3.11 and 3.12 send any `indent` through json's pure-Python
    encoder; this writer joins each list or dict level once. A tuple is
    written as a list, as json does. A float, a non-str key or any other
    type raises TypeError. `newline` is the line break and indent of the
    current level.

    json.dumps(indent=2) writes a scalar the same way at every depth, and a
    nonempty list at the depth whose line break is NL as "[", NL + "  ",
    the items joined by "," + NL + "  ", then NL and "]". Two shapes of
    list, found by one scan of the item types, are built as exactly that
    string with no call per item. Items all of one scalar type are joined
    once. Items all nonempty lists or all nonempty tuples, of one length k
    and with cells all exact ints, such as a box certificate's points, are
    written by one %-format: for an exact int "%d" writes what
    int.__repr__ and json write. The row format
    "[" + C + ("%d," + C) * (k - 1) + "%d" + NL + "  ]", with C the cell
    indent, is the text of a row with a "%d" slot for each of its k cells;
    the rows' format is the rows' part of the list's text with that row
    format in place of every row, and holds no other "%". Every row has k
    cells, so the slots, read in order, are the cells of the rows chained
    in order: the tuple `cells` whose types the scan read. So format %
    cells is that part of the list's text. Every other list (mixed items,
    a str or bool cell, an empty row, rows of unequal length, a float
    anywhere) takes the item-by-item path.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = newline + "  "
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        sep = "," + inner
        kinds = set(map(type, value))
        if len(kinds) == 1:
            kind = kinds.pop()
            write = _SCALARS.get(kind)
            if write is not None:
                return "[" + inner + sep.join(map(write, value)) + newline + "]"
            if kind in (list, tuple) and all(value):
                cells = tuple(chain.from_iterable(value))
                if set(map(type, cells)) == {int} and len(set(map(len, value))) == 1:
                    cell = inner + "  "
                    row = "[" + cell + ("%d," + cell) * (len(value[0]) - 1) + "%d" + inner + "]"
                    # one join, so the text is copied once: a chain of + would copy it at each step
                    return "".join(("[", inner, sep.join(repeat(row, len(value))) % cells, newline, "]"))
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + sep.join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise TypeError(f"certificate keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"{type(value).__name__} has no certificate form")


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dumps(payload) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _flow_json(report: FlowVerification) -> dict:
    group, write = report.fs.group, report.fs.group.elem_to_json
    return {
        "type": "flow-cycle-verification",
        "group": group.to_dict(),
        "group-hash": group.spec_hash(),
        "ray": report.fs.ray_label,
        "radius": report.radius,
        "points-checked": report.points_checked,
        "outgoing-constant": report.outgoing_constant,
        "incoming-constant": report.incoming_constant,
        "boundary-constant": report.boundary_constant,
        "failures": [
            {"base": write(k), "point": write(g), "outgoing": out, "incoming": inc, "boundary": inc - out}
            for k, g, out, inc in report.failures[:20]
        ],
        "passed": report.passed,
    }


def _pairing_json(cert: PairingCertificate) -> dict:
    out = {
        "type": "pairing-certificate",
        "cochain": cert.cochain_id,
        "cycle": cert.cycle_id,
        "truncation-radius": cert.truncation_radius,
        "value": frac_str(cert.value),
        "group-hash": cert.group.spec_hash(),
    }
    if cert.adjointness is not None:
        via_cochain, via_chain = cert.adjointness
        out["adjointness-witness"] = {
            "cochain-route": frac_str(via_cochain),
            "chain-route": frac_str(via_chain),
            "equal": via_cochain == cert.value == via_chain,
        }
    return out


def _flow_spec(group: FreeGroup, label: str) -> FlowCycleSpec:
    """The flow cycle spec whose ray is the generator labelled `label`."""
    from .witnesses import FlowCycleSpec

    if label not in group.gen_labels:
        raise ValueError(f"ray {_short(label)} is not a generator of the rank-{group.rank} group")
    return FlowCycleSpec(group, group.gen_labels.index(label) + 1)


def _flow_cycle(group, data: dict) -> tuple[EquivariantChain, str]:
    from .witnesses import flow_cycle

    if not isinstance(group, FreeGroup):
        raise ValueError("the flow cycle requires a free group")
    label = json_field(data, "ray", str, "the cycle file", group.gen_labels[0])
    return flow_cycle(_flow_spec(group, label)), f"tree-flow({label})"


def _load_pair_input(path: str, what: str, builtins: dict, from_json):
    """A {"builtin": name, "group": spec, ...} file through builtins[name], any other through from_json."""
    data = load_json(path)
    name = json_field(data, "builtin", str, f"the {what} file", None)
    if name is None:
        return from_json(data)
    if name not in builtins:
        raise ValueError(f"unknown builtin {what} {_short(name)}")
    return builtins[name](group_from_dict(json_field(data, "group", dict, f"the {what} file")), data)


def cmd_verify_f2(args) -> int:
    from .witnesses import flow_pairing_certificate, verify_flow_cycle

    group = FreeGroup(args.rank)
    fs = _flow_spec(group, group.gen_labels[0] if args.ray is None else args.ray)
    report = verify_flow_cycle(fs, args.radius)
    cert = flow_pairing_certificate(fs)
    pairing = _pairing_json(cert)
    _emit(_flow_json(report) | {"pairing": pairing}, args.out)
    return 0 if report.passed and pairing["adjointness-witness"]["equal"] else 2


def cmd_pair(args) -> int:
    from .complexes import (
        BoundedCochain, EquivariantChain, fundamental_cycle, johnson_cocycle, one_cochain, one_l1_cycle,
        one_lift_cochain,
    )
    from .pairing import make_pairing_certificate

    # builtin cochains and cycles by name, each built from the file's group and the file itself
    cochains = {
        "johnson": lambda group, data: johnson_cocycle(group),
        "one-lift": lambda group, data: one_lift_cochain(group),
        "one": lambda group, data: one_cochain(group),
    }
    cycles = {
        "fundamental": lambda group, data: (fundamental_cycle(group), "fundamental-cycle"),
        "one-l1": lambda group, data: (one_l1_cycle(group), "one-l1-cycle"),
        "flow": _flow_cycle,
    }
    phi = _load_pair_input(args.cochain, "cochain", cochains, BoundedCochain.from_json)
    cycle, cycle_id = _load_pair_input(
        args.cycle, "cycle", cycles, lambda data: (EquivariantChain.from_json(data), "cycle-file")
    )
    _emit(_pairing_json(make_pairing_certificate(phi, cycle, cycle_id=cycle_id)), args.out)
    return 0


def cmd_folner(args) -> int:
    from .amenability import FolnerCertificate, folner_search

    group = group_from_dict(load_json(args.group))
    result = folner_search(
        group, parse_frac(args.eps), strategy=args.strategy, max_radius=args.max_radius
    )
    accepted = isinstance(result, FolnerCertificate)
    if accepted:
        payload = {
            "type": "folner-certificate",
            "group": group.to_dict(),
            "group-hash": group.spec_hash(),
            "strategy": result.strategy,
            "parameter": result.parameter,
            "set-size": len(result.members),
            "set": list(map(group.elem_to_json, result.members)),
            "generator-differences": result.differences,
            "ratio": frac_str(result.ratio),
        }
    else:
        payload = {
            "type": "folner-failure",
            "group": group.to_dict(),
            "group-hash": group.spec_hash(),
            "strategy": result.strategy,
            "eps": frac_str(result.eps),
            "max-parameter": result.max_parameter,
            "attempts": [{"parameter": p, "set-size": size, "ratio": frac_str(r)} for p, size, r in result.attempts],
            "best-ratio": frac_str(result.best_ratio),
        }
    _emit(payload, args.out)
    return 0 if accepted else 2


def cmd_reiter(args) -> int:
    from .amenability import indicator, reiter_counts

    group = group_from_dict(load_json(args.group))
    data = load_json(args.set)
    if not isinstance(data, list) or not data:
        raise ValueError("the set file must hold a nonempty list of elements or [element, rational] pairs")
    # weighted entries are [element, "p/q"]. No element of any family serializes as a 2-list
    # ending in a str, so one such entry makes the file weighted, and from_pairs names any bad pair
    if any(isinstance(x, list) and len(x) == 2 and isinstance(x[1], str) for x in data):
        f = FinSuppFn.from_pairs(group, data)
    else:
        # a plain list names a set: repeated elements are dropped, not weighted
        f = indicator(group, [group.elem_from_json(x) for x in data])
    d, diffs, mass = reiter_counts(group, f)
    payload = {
        "type": "reiter-ratio",
        "group-hash": group.spec_hash(),
        "l1-norm": frac_str(Fraction(mass, d)),
        "generator-differences": {label: frac_str(Fraction(x, d)) for label, x in diffs.items()},
        "ratio": frac_str(Fraction(sum(diffs.values()), mass)),
    }
    _emit(payload, args.out)
    return 0


def cmd_finite_h0(args) -> int:
    from .amenability import finite_h0

    group = group_from_dict(load_json(args.group))
    if not isinstance(group, FiniteGroup):
        raise ValueError("finite-h0 requires a finite group spec")
    report = finite_h0(group)
    payload = {
        "type": "finite-h0-report",
        "group-hash": group.spec_hash(),
        "order": report.order,
        "span-dimension": report.span_dimension,
        "one-in-span": report.one_in_span,
        "residual-l1": frac_str(report.residual_l1),
    }
    _emit(payload, args.out)
    return 0


def cmd_iso_min(args) -> int:
    from .amenability import isoperimetric_argmin

    group = group_from_dict(load_json(args.group)) if args.group else FreeGroup(2)
    ratio, members = isoperimetric_argmin(group, args.radius)
    ball = group.ball(args.radius)
    payload = {
        "type": "isoperimetric-minimum",
        "group-hash": group.spec_hash(),
        "radius": args.radius,
        "ball-size": len(ball),
        # the 2^|B| - 1 subsets the answer covers, by closed form or enumeration
        "subsets-enumerated": (1 << len(ball)) - 1,
        "min-ratio": frac_str(ratio),
        "minimizer": list(map(group.elem_to_json, members)),
    }
    _emit(payload, args.out)
    return 0


def cmd_selftest(args) -> int:
    """Seeded randomized property checks across the whole library (`sampling.selftest`)."""
    from .sampling import selftest

    checks = selftest(args.seed, args.trials)
    payload = {
        "type": "selftest",
        "seed": args.seed,
        "checks": [
            {"name": name, "trials": trials, "passed": error is None} | ({} if error is None else {"error": error})
            for name, trials, error in checks
        ],
        "passed": all(error is None for _, _, error in checks),
    }
    _emit(payload, args.out)
    return 0 if payload["passed"] else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built on the first call, reused after
    parser = argparse.ArgumentParser(
        prog="amencert",
        description="Exact amenability certificates for finitely generated groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-f2", help="verify the free-group flow-cycle witness")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--ray", help="generator label whose ray fixes the boundary point (default: the first)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_f2)

    p = sub.add_parser("pair", help="pair a cochain file against a cycle file")
    p.add_argument("--cochain", required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("folner", help="search for a Folner set with ratio <= eps")
    p.add_argument("--group", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--strategy", choices=["balls", "boxes"], default="balls")
    p.add_argument("--max-radius", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("reiter", help="Reiter ratio of a finitely supported function")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reiter)

    p = sub.add_parser("finite-h0", help="exact span obstruction for a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_finite_h0)

    p = sub.add_parser("iso-min", help="isoperimetric minimum over a ball, by closed form where proved")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--group")
    p.add_argument("--out")
    p.set_defaults(func=cmd_iso_min)

    p = sub.add_parser("selftest", help="seeded randomized property checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
