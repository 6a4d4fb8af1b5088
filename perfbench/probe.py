"""Set-up probe: one fresh interpreter doing what every run must do before its jobs.

Usage: python3 probe.py MANIFEST

Imports the library and its CLI, builds every group of the workload from
its spec dictionary (finite tables are validated here) and parses every
input file into library objects. The caller times the whole process, from
spawn to exit, as one set-up sample.
"""

import json
import sys
import time

from amencert import cli  # noqa: F401  (the CLI and everything it imports are part of set-up)
from amencert.complexes import BoundedCochain, EquivariantChain, UfChain
from amencert.functions import FinSuppFn
from amencert.groups import group_from_dict


def load(path):
    with open(path) as fh:
        return json.load(fh)


def parse(entry: dict) -> None:
    data = load(entry["path"])
    kind = entry["kind"]
    if kind == "group":
        group_from_dict(data)
    elif kind == "set":
        FinSuppFn.from_pairs(group_from_dict(load(entry["group"])), data)
    elif kind == "uf-chain":
        UfChain.from_json(data)
    elif kind == "adjoint":
        BoundedCochain.from_json(data["cochain"])
        EquivariantChain.from_json(data["chain"])
    elif "builtin" in data:
        group_from_dict(data["group"])
    elif kind == "cochain":
        BoundedCochain.from_json(data)
    else:
        EquivariantChain.from_json(data)


def main() -> int:
    manifest = load(sys.argv[1])
    for spec in manifest["groups"]:
        group_from_dict(spec)
    for entry in manifest["files"]:
        parse(entry)
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
