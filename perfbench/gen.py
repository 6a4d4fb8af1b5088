"""Seeded input generation for the four workloads.

`generate(workload, seed, workdir)` writes every input file of one run into
`workdir` and returns the manifest: the group spec dictionaries the run
builds, the input files it parses and the fixed batch of jobs. The same
(workload, seed) always yields the same files and jobs. The seed changes
job order, generator labels and choices, and the random weights, chains
and cochains; it never changes the amount of work a job is specified to
do (box sides, radii, table orders, support sizes, numbers of slice keys).

Nothing here imports `amencert`: the program receives only these files.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import plain


LABEL_CHOICES = (("a", "b", "c"), ("x", "y", "z"), ("s", "t", "u"), ("p", "q", "r"))


def free_spec(rank: int, labels=None) -> dict:
    labels = labels or tuple("abc"[:rank])
    return {"family": "free", "rank": rank, "generators": list(labels[:rank])}


def abelian_spec(rank: int, labels) -> dict:
    return {"family": "free-abelian", "rank": rank, "generators": list(labels[:rank])}


def finite_spec(table, generators) -> dict:
    return {"family": "finite", "table": table, "generators": list(generators)}


def symmetric_spec(n: int, rng: random.Random) -> dict:
    """S_n generated by a random n-cycle c and the transposition (x c(x))."""
    table, index = plain.symmetric_table(n)
    order = list(range(n))
    rng.shuffle(order)
    cycle = [0] * n
    for i in range(n):
        cycle[order[i]] = order[(i + 1) % n]
    x = rng.randrange(n)
    swap = list(range(n))
    swap[x], swap[cycle[x]] = cycle[x], x
    return finite_spec(table, [index[tuple(cycle)], index[tuple(swap)]])


def random_fraction(rng: random.Random, low: int = -9) -> Fraction:
    num = 0
    while not num:
        num = rng.randint(low, 9)
    return Fraction(num, rng.randint(1, 9))


def random_element(rng: random.Random, group: plain.PlainGroup, length: int):
    if group.family == "finite":
        return rng.randrange(len(group.table))
    if group.family == "free-abelian":
        return tuple(rng.randint(-length, length) for _ in range(group.rank))
    word: list[int] = []
    for _ in range(rng.randint(0, length)):
        word.append(rng.choice([s for s in range(-group.rank, group.rank + 1) if s and (not word or s != -word[-1])]))
    return tuple(word)


def element_count(group: plain.PlainGroup, length: int) -> int:
    """How many distinct values `random_element(rng, group, length)` can return."""
    if group.family == "finite":
        return len(group.table)
    if group.family == "free-abelian":
        return (2 * length + 1) ** group.rank
    return plain.free_ball_size(group.rank, length)


def distinct(draw, count: int, available: int) -> list:
    """`count` distinct results of `draw()`, or all `available` ones if there are fewer.

    Drawing until the count is reached, rather than a fixed number of
    times, keeps the size of a generated input the same for every seed.
    """
    out: dict = {}
    while len(out) < min(count, available):
        out.setdefault(draw(), None)
    return list(out)


class Writer:
    """Writes the input files of one run and records them in the manifest."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files: list[dict] = []

    def write(self, name: str, kind: str, data, **extra) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        self.files.append({"path": path, "kind": kind, **extra})
        return path


def cli_job(name: str, argv: list, check: dict) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "check": check}


def api_job(name: str, op: str, data_path: str) -> dict:
    return {"name": name, "kind": "api", "op": op, "input": data_path}


# -- workloads --------------------------------------------------------------


def verify_job(rank: int, radius: int, ray: str) -> dict:
    argv = ["verify-f2", "--rank", str(rank), "--radius", str(radius), "--ray", ray]
    check = {"type": "verify-f2", "rank": rank, "radius": radius, "ray": ray}
    return cli_job(f"verify-f{rank}-r{radius}-{ray}", argv, check)


def folner_box_job(path: str, spec: dict, eps: str) -> dict:
    argv = ["folner", "--group", path, "--eps", eps, "--strategy", "boxes", "--max-radius", "100"]
    return cli_job(f"folner-z{spec['rank']}-boxes", argv, {"type": "folner-box", "group": spec, "eps": eps})


def h0_job(out: Writer, name: str, spec: dict) -> dict:
    path = out.write(f"{name}.json", "group", spec)
    return cli_job(f"h0-{name}", ["finite-h0", "--group", path], {"type": "finite-h0", "group": spec})


def iso_f2_job() -> dict:
    return cli_job("iso-f2-r2", ["iso-min", "--radius", "2"],
                   {"type": "iso-min", "group": free_spec(2), "radius": 2, "min": "72/17"})


def f2_witness(rng: random.Random, out: Writer) -> tuple[list, list]:
    jobs = [verify_job(2, 4, "a"), verify_job(2, 4, "b"), verify_job(3, 3, rng.choice("abc")),
            verify_job(2, 3, rng.choice("ab"))]
    return [free_spec(2), free_spec(3)], jobs


def weighted_set(rng: random.Random, group: plain.PlainGroup, pool: list, size: int) -> list:
    members = sorted(rng.sample(pool, size))
    return [[group.dump(g), plain.frac_str(random_fraction(rng, low=1))] for g in members]


def amenable_search(rng: random.Random, out: Writer) -> tuple[list, list]:
    labels = rng.choice(LABEL_CHOICES)
    z2, z3, f2 = abelian_spec(2, labels), abelian_spec(3, labels), free_spec(2, labels)
    z2_path = out.write("z2.json", "group", z2)
    z3_path = out.write("z3.json", "group", z3)
    f2_path = out.write("f2.json", "group", f2)
    gz2, gf2 = plain.PlainGroup(z2), plain.PlainGroup(f2)
    box = [(x, y) for x in range(-40, 40) for y in range(-40, 40)]
    wz2 = out.write("weights-z2.json", "set", weighted_set(rng, gz2, box, 3000), group=z2_path)
    wf2 = out.write("weights-f2.json", "set", weighted_set(rng, gf2, sorted(gf2.ball(7)), 1500), group=f2_path)
    jobs = [
        folner_box_job(z2_path, z2, "1/5"),
        folner_box_job(z3_path, z3, "1"),
        cli_job("folner-f2-balls",
                ["folner", "--group", f2_path, "--eps", "1/10", "--strategy", "balls", "--max-radius", "5"],
                {"type": "folner-ball-failure", "group": f2, "eps": "1/10", "max": 5, "rc": 2}),
        cli_job("reiter-z2", ["reiter", "--group", z2_path, "--set", wz2],
                {"type": "reiter", "group": z2, "set": wz2}),
        cli_job("reiter-f2", ["reiter", "--group", f2_path, "--set", wf2],
                {"type": "reiter", "group": f2, "set": wf2}),
    ]
    return [z2, z3, f2], jobs


def finite_exact(rng: random.Random, out: Writer) -> tuple[list, list]:
    s4 = symmetric_spec(4, rng)
    d18 = finite_spec(plain.dihedral_table(18), [1, 18])
    unit = rng.choice([k for k in range(1, 60) if all(k % p for p in (2, 3, 5))])
    z60 = finite_spec(plain.cyclic_table(60), [unit])
    d8 = finite_spec(plain.dihedral_table(8), [1, 8])
    jobs = [h0_job(out, "s4", s4), h0_job(out, "d18", d18), h0_job(out, "z60", z60), iso_f2_job()]
    d8_path = out.write("d8.json", "group", d8)
    jobs.append(cli_job("iso-d8", ["iso-min", "--group", d8_path, "--radius", "5"],
                        {"type": "iso-min", "group": d8, "radius": 5, "min": "0/1"}))
    return [s4, d18, z60, d8, free_spec(2)], jobs


def baseline(rng: random.Random, out: Writer) -> tuple[list, list]:
    """The six jobs of the ROADMAP baseline table, at the table's sizes."""
    z2, z3 = abelian_spec(2, "ab"), abelian_spec(3, "abc")
    s5 = symmetric_spec(5, rng)
    jobs = [
        folner_box_job(out.write("z2.json", "group", z2), z2, "1/10"),
        folner_box_job(out.write("z3.json", "group", z3), z3, "1/2"),
        verify_job(2, 4, "a"), verify_job(2, 5, "a"), h0_job(out, "s5", s5), iso_f2_job(),
    ]
    return [z2, z3, s5, free_spec(2)], jobs


# chain-algebra sizes: slice keys per chain, terms per value, word length of elements
ENTRIES, TERMS, LENGTH = 30, 5, 2


def random_key(rng, group, degree):
    return tuple(random_element(rng, group, LENGTH) for _ in range(degree))


def random_keys(rng, group, degree, count) -> list:
    return distinct(lambda: random_key(rng, group, degree), count, element_count(group, LENGTH) ** degree)


def random_fn(rng, group) -> dict:
    return {g: random_fraction(rng) for (g,) in random_keys(rng, group, 1, TERMS)}


def l1_chain(rng, group, degree) -> dict:
    return {key: random_fn(rng, group) for key in random_keys(rng, group, degree, ENTRIES)}


def dump_fn(group, f: dict) -> list:
    return [[group.dump(g), plain.frac_str(c)] for g, c in f.items()]


def dump_l1(group, spec, chain: dict, degree: int) -> dict:
    return {
        "group": spec, "degree": degree, "kind": "l1",
        "entries": [[[group.dump(g) for g in key], {"l1": dump_fn(group, f)}] for key, f in chain.items()],
    }


def dump_linf(rng, group, spec, degree: int) -> dict:
    entries = []
    for i, (key, f) in enumerate(l1_chain(rng, group, degree).items()):
        shape = i % 3
        if shape == 0:
            value = {"constant": plain.frac_str(random_fraction(rng))}
        elif shape == 1:
            value = {"finite": dump_fn(group, f)}
        else:
            value = {"constant-plus-finite": {"constant": plain.frac_str(random_fraction(rng)),
                                              "finite": dump_fn(group, f)}}
        entries.append([[group.dump(g) for g in key], value])
    return {"group": spec, "degree": degree, "kind": "linf", "entries": entries}


def dump_cochain(group, spec, cochain: dict, degree: int) -> dict:
    return {
        "group": spec, "degree": degree, "dual": "full-dual",
        "entries": [[[group.dump(g) for g in key], dump_fn(group, f)] for key, f in cochain.items()],
    }


def dump_uf(rng, group, spec, degree: int) -> dict:
    coeffs = {key: random_fraction(rng) for key in random_keys(rng, group, degree + 1, 4 * ENTRIES)}
    return {"group": spec, "degree": degree,
            "entries": [[[group.dump(g) for g in key], plain.frac_str(c)] for key, c in coeffs.items()]}


def chain_algebra(rng: random.Random, out: Writer) -> tuple[list, list]:
    labels = rng.choice(LABEL_CHOICES)
    specs = {
        "f2": free_spec(2, labels),
        "z2": abelian_spec(2, labels),
        "c3": finite_spec(plain.cyclic_table(3), [1]),
        "s4": symmetric_spec(4, rng),
    }
    jobs = []
    for name, spec in specs.items():
        group = plain.PlainGroup(spec)
        chain2 = out.write(f"{name}-l1.json", "chain", dump_l1(group, spec, l1_chain(rng, group, 2), 2))
        jobs.append(api_job(f"boundary2-l1-{name}", "boundary2", chain2))
        linf = out.write(f"{name}-linf.json", "chain", dump_linf(rng, group, spec, 2))
        jobs.append(api_job(f"boundary2-linf-{name}", "boundary2", linf))
        uf = out.write(f"{name}-uf.json", "uf-chain", dump_uf(rng, group, spec, 2))
        jobs.append(api_job(f"uf-boundary2-{name}", "uf-boundary2", uf))
        jobs.append(api_job(f"inflate-{name}", "inflate", uf))
        cochain1 = l1_chain(rng, group, 1)
        probes = [[group.dump(g) for g in random_key(rng, group, 3)] for _ in range(6)]
        cob = out.write(f"{name}-cochain.json", "cochain",
                        dict(dump_cochain(group, spec, cochain1, 1), probes=probes))
        jobs.append(api_job(f"coboundary2-{name}", "coboundary2", cob))
        adj = out.write(f"{name}-adjoint.json", "adjoint", {
            "cochain": dump_cochain(group, spec, cochain1, 1),
            "chain": dump_l1(group, spec, l1_chain(rng, group, 2), 2),
        })
        jobs.append(api_job(f"adjointness-{name}", "adjointness", adj))
        jobs.append(api_job(f"connecting-{name}", "connecting", out.write(f"{name}.json", "group", spec)))
        # a cycle made as the boundary of a random degree-2 chain, and a cochain file
        # that carries its own copy of the group spec
        cycle = plain.slice_boundary(group, l1_chain(rng, group, 2), 2)
        cycle_path = out.write(f"{name}-cycle.json", "cycle", dump_l1(group, spec, cycle, 1))
        cochain_path = out.write(f"{name}-pair-cochain.json", "cochain",
                                 dump_cochain(group, spec, l1_chain(rng, group, 1), 1))
        jobs.append(cli_job(f"pair-{name}", ["pair", "--cochain", cochain_path, "--cycle", cycle_path],
                            {"type": "pair", "group": spec, "cochain": cochain_path, "cycle": cycle_path}))
    for rank in (2, 3):
        spec = free_spec(rank)
        ray = rng.choice("abc"[:rank])
        cochain_path = out.write(f"johnson-f{rank}.json", "cochain", {"builtin": "johnson", "group": spec})
        cycle_path = out.write(f"flow-f{rank}.json", "cycle", {"builtin": "flow", "group": spec, "ray": ray})
        jobs.append(cli_job(f"pair-flow-f{rank}", ["pair", "--cochain", cochain_path, "--cycle", cycle_path],
                            {"type": "pair-builtin", "group": spec, "value": f"{2 * rank - 2}/1",
                             "cochain": "johnson-cocycle", "cycle": f"tree-flow({ray})"}))
    spec = specs["s4"]
    cochain_path = out.write("one-s4.json", "cochain", {"builtin": "one", "group": spec})
    cycle_path = out.write("fundamental-s4.json", "cycle", {"builtin": "fundamental", "group": spec})
    jobs.append(cli_job("pair-one-fundamental-s4", ["pair", "--cochain", cochain_path, "--cycle", cycle_path],
                        {"type": "pair-builtin", "group": spec, "value": "1/1",
                         "cochain": "one", "cycle": "fundamental-cycle"}))
    return list(specs.values()) + [free_spec(3)], jobs


BUILDERS = {
    "f2-witness": f2_witness,
    "amenable-search": amenable_search,
    "finite-exact": finite_exact,
    "chain-algebra": chain_algebra,
}
# job sets that are not benchmark workloads: report.py --baseline times this
# one for the ROADMAP cross-check
JOB_SETS = dict(BUILDERS, baseline=baseline)


def generate(workload: str, seed: int, workdir: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    out = Writer(workdir)
    groups, jobs = JOB_SETS[workload](rng, out)
    rng.shuffle(jobs)
    manifest = {"workload": workload, "seed": seed, "groups": groups, "files": out.files, "jobs": jobs}
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest
