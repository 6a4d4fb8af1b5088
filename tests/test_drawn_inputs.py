"""Drawn whole inputs through the CLI and the benchmark's independent validator.

`hypothesis` draws `verify-f2` and `iso-min` jobs in the shapes that
`perfbench/gen.py` writes. Each job runs through `cli.main` in process,
and `perfbench/validate.check` judges `(job, rc, stdout)` with plain
arithmetic that does not import amencert. The draws aim at the inputs
where a walk or a guard could go wrong: F_1, radius 0 and 1, free balls
up to the output cap of `iso-min`, and finite balls short of and at the
group's order. An `iso-min` job's expected minimum comes from the forest
count on a free group, 0 on a ball that is the whole finite group, and
otherwise from this file's own brute force over every nonempty subset.

F_1 radii stop at 200: B_r of F_1 holds about r^2 letters, so radii near
the output cap (7141) would cost this test hundreds of megabytes.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amencert import cli
from conftest import dihedral_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DRAWN = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@pytest.fixture(scope="module")
def bench():
    """perfbench's gen, plain and validate, imported from their directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield tuple(importlib.import_module(name) for name in ("gen", "plain", "validate"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() or err.getvalue()


def assert_valid(validate, job):
    rc, text = run(job["argv"])
    assert validate.check(job, rc, text) is None, (job["argv"], text[:300])


@st.composite
def verify_jobs(draw):
    rank = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 20 if rank == 1 else 3))
    return rank, radius, draw(st.sampled_from("abc"[:rank]))


@DRAWN
@given(verify_jobs())
def test_verify_f2(bench, params):
    gen, _, validate = bench
    assert_valid(validate, gen.verify_job(*params))


def brute_force_min(plain, spec, radius):
    """The least sum_s |sF symmetric-difference F| / |F| over every nonempty F in the ball."""
    group = plain.PlainGroup(spec)
    ball = sorted(group.ball(radius), key=repr)
    best = None
    for mask in range(1, 1 << len(ball)):
        members = {g for i, g in enumerate(ball) if mask >> i & 1}
        moved = sum(len({group.mul(s, g) for g in members} ^ members) for s in group.letters)
        ratio = Fraction(moved, len(members))
        best = ratio if best is None else min(best, ratio)
    return best


def free_case(rank, radius):
    """(spec, radius, minimum) of F_rank: 4(rank - 1) + 4/|B|, the forest count."""
    size = 2 * radius + 1 if rank == 1 else (rank * (2 * rank - 1) ** radius - 1) // (rank - 1)
    spec = {"family": "free", "rank": rank, "generators": list("abc"[:rank])}
    return spec, radius, 4 * (rank - 1) + Fraction(4, size)


def finite_case(table, gens, radius):
    return {"family": "finite", "table": table, "generators": gens}, radius, None


@st.composite
def iso_groups(draw):
    """(spec, radius, closed-form minimum or None)."""
    kind = draw(st.sampled_from(["free", "cyclic", "dihedral", "abelian"]))
    if kind == "free":
        rank = draw(st.integers(1, 3))
        return free_case(rank, draw(st.integers(0, {1: 200, 2: 8, 3: 5}[rank])))
    if kind == "abelian":
        rank = draw(st.integers(1, 2))
        radius = draw(st.integers(0, 4 if rank == 1 else 1))  # at most 9 and 5 elements
        return {"family": "free-abelian", "rank": rank, "generators": list("ab"[:rank])}, radius, None
    if kind == "cyclic":
        n = draw(st.integers(1, 12))
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        units = [g for g in range(1, n) if gcd(g, n) == 1]
        gens = draw(st.lists(st.sampled_from(units), min_size=1, unique=True)) if units else []
    else:
        k = draw(st.integers(1, 6))
        table = dihedral_table(k)
        gens = [1, k] if k > 1 else [1]  # a rotation and a reflection
    return finite_case(table, gens, draw(st.integers(0, len(table) + 1)))


@DRAWN
@given(iso_groups())
# the largest free balls under the output cap, and D_6 short of and at its order
@example(free_case(2, 8))
@example(free_case(3, 5))
@example(free_case(1, 0))
@example(finite_case(dihedral_table(6), [1, 6], 3))
@example(finite_case(dihedral_table(6), [1, 6], 4))
def test_iso_min(bench, workdir, params):
    gen, plain, validate = bench
    spec, radius, closed = params
    if closed is None:
        whole = spec["family"] == "finite" and len(plain.PlainGroup(spec).ball(radius)) == len(spec["table"])
        closed = Fraction(0) if whole else brute_force_min(plain, spec, radius)
    path = workdir / f"{plain.spec_hash(spec)}.json"
    path.write_text(json.dumps(spec))
    job = gen.cli_job(
        "iso-drawn",
        ["iso-min", "--group", str(path), "--radius", str(radius)],
        {"type": "iso-min", "group": spec, "radius": radius, "min": plain.frac_str(closed)},
    )
    assert_valid(validate, job)
