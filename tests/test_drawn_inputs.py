"""Drawn whole inputs through the CLI and the benchmark's independent validator.

`hypothesis` draws jobs in the shapes that `perfbench/gen.py` writes:
`verify-f2`, `iso-min`, `folner --strategy boxes` and `folner --strategy
balls` jobs; `finite-h0` jobs on relabelled tables; weighted
`reiter` files; `pair` jobs with full-dual cochain files and `l1` cycle
files; and the `inflate` and `uf-boundary2` API jobs, which run through
`perfbench/worker.OPS`. CLI jobs run through `cli.main` in process, and
`perfbench/validate.check` judges `(job, rc, stdout)` with plain
arithmetic that does not import amencert. The validator counts the
Reiter and Folner difference of every letter on its own, so it checks
the library's one count per inverse pair of letters, on finite groups
whose letters include self-inverse ones and elements listed after their
inverses. The draws aim at the inputs where a walk, a guard or a sum could
go wrong: F_1, radius 0 and 1, free balls up to the output cap of
`iso-min`, finite balls short of and at the group's order, and value
files with repeated elements, zero and unreduced numerators ("6/4") and
denominators that keep growing after many keys are read. An `iso-min`
job's expected minimum comes from the forest count on a free group, 0 on
a ball that is the whole finite group, and otherwise from this file's own
brute force over every nonempty subset.

F_1 radii stop at 200: B_r of F_1 holds r(r + 1) letters, so radii near
the letter cap of `iso-min` (3161) would cost this test about 100 MB.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amencert import cli
from conftest import dihedral_table, generates, relabelled, s3_group, z2_times_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DRAWN = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@pytest.fixture(scope="module")
def bench():
    """perfbench's gen, plain and validate, imported from their directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield tuple(importlib.import_module(name) for name in ("gen", "plain", "validate", "worker"))


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
    gen, _, validate, _ = bench
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


def finite_spec(table, gens):
    return {"family": "finite", "table": table, "generators": gens}


def finite_case(table, gens, radius):
    return finite_spec(table, gens), radius, None


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def finite_table(draw, kind):
    """(table, generators): Z/n, n <= 12, on a drawn list of units in drawn order, which
    may list a unit after its inverse; or D_k, k <= 6, on a rotation and a reflection."""
    if kind == "cyclic":
        n = draw(st.integers(1, 12))
        units = [g for g in range(1, n) if gcd(g, n) == 1]
        return cyclic_table(n), draw(st.lists(st.sampled_from(units), min_size=1, unique=True)) if units else []
    k = draw(st.integers(1, 6))
    return dihedral_table(k), [1, k] if k > 1 else [1]


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
    table, gens = finite_table(draw, kind)
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
    gen, plain, validate, _ = bench
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


# -- value files: weights, cochains, cycles and uniformly finite chains --------


def free_spec(rank):
    return {"family": "free", "rank": rank, "generators": list("abc"[:rank])}


def abelian_spec(rank):
    return {"family": "free-abelian", "rank": rank, "generators": list("abc"[:rank])}


@st.composite
def box_jobs(draw):
    """(rank, side): a box search in Z^rank at eps = 4 rank / side, which accepts the box of that
    side, at most 1,000 points; the job's max radius 100 passes the 10^6-element cap up to Z^3."""
    rank = draw(st.integers(1, 3))
    return rank, draw(st.integers(1, {1: 100, 2: 30, 3: 10}[rank]))


@DRAWN
@given(box_jobs())
@example((3, 10))
@example((1, 1))
def test_folner_boxes(bench, workdir, params):
    gen, plain, validate, _ = bench
    rank, side = params
    spec = abelian_spec(rank)
    assert_valid(validate, gen.folner_box_job(write(workdir, plain, spec), spec, f"{4 * rank}/{side}"))


S3 = s3_group().to_dict()


@st.composite
def ball_jobs(draw):
    """(spec, eps, max radius) of a ball search on F_1-F_3, Z/n, D_k or S_3.

    A finite group's max radius is at most its order + 1: `plain.PlainGroup.ball`
    runs every round asked of it, even after the ball has stopped growing. The
    eps draws reach both outcomes: a free ball's ratio falls from 4k at r = 0
    toward 4(k - 1), and a finite ball's is 0 once it is the whole group.
    """
    kind = draw(st.sampled_from(["free", "cyclic", "dihedral", "s3"]))
    if kind == "free":
        rank = draw(st.integers(1, 3))
        spec, top = free_spec(rank), {1: 50, 2: 5, 3: 4}[rank]
    else:
        spec = S3 if kind == "s3" else finite_spec(*finite_table(draw, kind))
        top = len(spec["table"]) + 1
    eps = Fraction(draw(st.integers(1, 13)), draw(st.integers(1, 13)))
    return spec, eps, draw(st.integers(0, top))


@DRAWN
@given(ball_jobs())
@example((free_spec(1), Fraction(4, 101), 50))  # F_1 accepts B_50, its last radius
@example((free_spec(2), Fraction(4), 5))  # F_2 stays above 4 on every ball
@example((finite_spec(dihedral_table(6), [1, 6]), Fraction(1, 13), 3))  # D_6 short of its diameter 4
@example((S3, Fraction(1, 13), 0))
def test_folner_balls(bench, workdir, params):
    """An exhausted search is judged by the validator; an accepted ball is recounted on its own."""
    gen, plain, validate, _ = bench
    spec, eps, top = params
    eps_text = plain.frac_str(eps)
    job = gen.cli_job(
        "folner-balls-drawn",
        ["folner", "--group", write(workdir, plain, spec), "--eps", eps_text, "--strategy", "balls",
         "--max-radius", str(top)],
        {"type": "folner-ball-failure", "group": spec, "eps": eps_text, "max": top, "rc": 2},
    )
    rc, text = run(job["argv"])
    if rc == 2:
        assert validate.check(job, rc, text) is None, (job["argv"], text[:300])
        return
    assert rc == 0, text
    cert = json.loads(text)
    group = plain.PlainGroup(spec)
    radius = cert["parameter"]
    validate.expect_group(cert, spec)
    assert (cert["type"], cert["strategy"]) == ("folner-certificate", "balls") and 0 <= radius <= top
    members = [group.parse(g) for g in cert["set"]]
    assert len(members) == len(set(members)) == cert["set-size"]
    assert set(members) == group.ball(radius)
    counts, ratio = validate.folner_ratio(group, set(members))
    assert cert["generator-differences"] == dict(zip(group.letter_labels, counts))
    assert cert["ratio"] == plain.frac_str(ratio) and ratio <= eps
    # the search stops at the first ball that meets eps
    assert all(validate.folner_ratio(group, group.ball(r))[1] > eps for r in range(radius))


C3 = {"family": "finite", "table": [[(i + j) % 3 for j in range(3)] for i in range(3)], "generators": [1]}
CHAIN_SPECS = [free_spec(2), abelian_spec(2), C3]


# denominators with shared factors, so sums cancel and reduce; the later weights of a file
# bring new primes, so the common denominator still grows after many keys are read
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 9, 12])
LATE_PRIMES = st.sampled_from([1, 5, 7, 11, 13])
SCALE = st.integers(1, 3)  # a drawn scale writes some values unreduced, such as "6/4"
NONZERO = st.sampled_from([n for n in range(-6, 7) if n])


def ratio_text(value, scale):
    return f"{value.numerator * scale}/{value.denominator * scale}"


def write(workdir, plain, data):
    path = workdir / f"{plain.spec_hash(data)}.json"
    path.write_text(json.dumps(data))
    return str(path)


def nearest(spec, count):
    """`count` elements in `plain`'s form, breadth first from the identity (a finite group's first indices)."""
    if spec["family"] == "finite":
        return list(range(len(spec["table"])))[:count]
    rank = spec["rank"]
    if spec["family"] == "free-abelian":
        return sorted(product(range(-count, count + 1), repeat=rank), key=lambda v: (sum(map(abs, v)), v))[:count]
    words = level = [()]
    while len(words) < count:
        level = [w + (s,) for w in level for s in range(-rank, rank + 1) if s and (not w or w[-1] != -s)]
        words = words + level
    return words[:count]


def near(spec):
    return st.sampled_from(nearest(spec, 13))


@st.composite
def reiter_inputs(draw):
    """(spec, pairs): 1-60 weights >= 0, at least one positive.

    Each of up to 30 distinct elements (at most the order of a finite
    group) is read once, then more weights on the same elements follow,
    whose denominators can bring new primes.
    """
    spec = draw(st.sampled_from([free_spec(1), free_spec(2), free_spec(3), abelian_spec(1), abelian_spec(2),
                                 "cyclic", "dihedral"]))
    if isinstance(spec, str):
        spec = finite_spec(*finite_table(draw, spec))
    size = draw(st.integers(1, 30))  # a drawn length: hypothesis keeps its own list lengths short
    pool = draw(st.permutations(nearest(spec, 30)))[:size]
    first = draw(st.lists(st.tuples(st.integers(0, 12), DENOMINATORS), min_size=size, max_size=size))
    more = draw(st.integers(0, 60 - size))
    later = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 12), DENOMINATORS, LATE_PRIMES),
                          min_size=more, max_size=more))
    pairs = [(g, p, q) for g, (p, q) in zip(pool, first)] + [(g, p, q * late) for g, p, q, late in later]
    if not any(p for _, p, _ in pairs):
        pairs[0] = (pairs[0][0], 1, pairs[0][2])
    return spec, pairs


@DRAWN
@given(reiter_inputs())
@example((free_spec(1), [((1,), 6, 4)]))
# repeated, zero and unreduced weights; and a 21st distinct key that brings a new prime
@example((abelian_spec(2), [((0, 0), 0, 3), ((0, 0), 2, 6)] + [((1, 0), 1, 2)] * 15 + [((0, 1), 1, 7 * 11)]))
@example((abelian_spec(1), [((k,), k % 3 + 1, 2) for k in range(20)] + [((20,), 1, 7), ((0,), 1, 1)]))
# Z/5 on [2, 1, 3]: 3 = 2^-1 is listed after its inverse; D_5 on a reflection, a rotation, a reflection
@example((finite_spec(cyclic_table(5), [2, 1, 3]), [(0, 3, 1), (1, 1, 2), (3, 2, 3)]))
@example((finite_spec(dihedral_table(5), [5, 1, 6]), [(g, g % 4 + 1, g % 3 + 1) for g in range(10)]))
def test_reiter_weights(bench, workdir, params):
    gen, plain, validate, _ = bench
    spec, pairs = params
    group = plain.PlainGroup(spec)
    weights = [[group.dump(g), f"{p}/{q}"] for g, p, q in pairs]
    group_path, set_path = write(workdir, plain, spec), write(workdir, plain, weights)
    job = gen.cli_job("reiter-drawn", ["reiter", "--group", group_path, "--set", set_path],
                      {"type": "reiter", "group": spec, "set": set_path})
    assert_valid(validate, job)


def value_rows(spec):
    """An l1 value as raw (element, numerator, denominator) rows: repeats, zeros and cancellation."""
    return st.lists(st.tuples(near(spec), st.integers(-6, 6), DENOMINATORS), max_size=5)


def fraction_dict(rows):
    out = {}
    for g, p, q in rows:
        out[g] = out.get(g, 0) + Fraction(p, q)
    return {g: c for g, c in out.items() if c}


@st.composite
def pair_inputs(draw):
    """(spec, degree-1 cochain rows, degree-2 chain rows whose boundary is the cycle, scale)."""
    spec = draw(st.sampled_from(CHAIN_SPECS))
    elem = near(spec)
    cochain = draw(st.lists(st.tuples(st.tuples(elem), value_rows(spec)), max_size=5))
    chain = draw(st.lists(st.tuples(st.tuples(elem, elem), value_rows(spec)), min_size=1, max_size=3))
    return spec, cochain, chain, draw(SCALE)


@DRAWN
@given(pair_inputs())
def test_pair_files(bench, workdir, params):
    gen, plain, validate, _ = bench
    spec, cochain_rows, chain_rows, scale = params
    group = plain.PlainGroup(spec)
    dump = group.dump
    chain = {key: fraction_dict(rows) for key, rows in chain_rows}
    cycle = plain.slice_boundary(group, {key: f for key, f in chain.items() if f}, 2)
    cochain_path = write(workdir, plain, {
        "group": spec, "degree": 1, "dual": "full-dual",
        "entries": [[[dump(g) for g in key], [[dump(g), f"{p}/{q}"] for g, p, q in rows]]
                    for key, rows in dict(cochain_rows).items()],
    })
    cycle_path = write(workdir, plain, {
        "group": spec, "degree": 1, "kind": "l1",
        "entries": [[[dump(g) for g in key], {"l1": [[dump(g), ratio_text(c, scale)] for g, c in f.items()]}]
                    for key, f in cycle.items()],
    })
    job = gen.cli_job("pair-drawn", ["pair", "--cochain", cochain_path, "--cycle", cycle_path],
                      {"type": "pair", "group": spec, "cochain": cochain_path, "cycle": cycle_path})
    assert_valid(validate, job)


@st.composite
def uf_inputs(draw):
    """(op, spec, degree, rows): a uniformly finite chain of nonzero coefficients; a repeated key keeps its last."""
    spec = draw(st.sampled_from(CHAIN_SPECS))
    degree = draw(st.integers(1, 2))
    elem = near(spec)
    rows = draw(st.lists(st.tuples(st.tuples(*[elem] * (degree + 1)), NONZERO, DENOMINATORS, SCALE),
                         min_size=2, max_size=8))
    return draw(st.sampled_from(["inflate", "uf-boundary2"])), spec, degree, rows


@DRAWN
@given(uf_inputs())
# two slice values over the coprime denominators 2 and 3, written "2/6" and "1/2"
@example(("inflate", free_spec(2), 1, [(((), (1,)), 1, 2, 1), (((), (2,)), 1, 3, 2)]))
def test_uf_chain_jobs(bench, workdir, params):
    gen, plain, validate, worker = bench
    op, spec, degree, rows = params
    group = plain.PlainGroup(spec)
    coeffs = {key: ratio_text(Fraction(p, q), scale) for key, p, q, scale in rows}
    data = {"group": spec, "degree": degree,
            "entries": [[[group.dump(g) for g in key], c] for key, c in coeffs.items()]}
    job = gen.api_job(f"{op}-drawn", op, write(workdir, plain, data))
    text = json.dumps(worker.OPS[op](data), sort_keys=True)
    assert validate.check(job, 0, text) is None, (op, data)


# -- finite-h0 on relabelled tables --------------------------------------------


@st.composite
def h0_inputs(draw):
    """(file spec, spec with its generators spelled out): Z/n, D_k or Z/2 x Z/n of order <= 12, or S_3.

    Every table keeps its identity at index 0 until a drawn permutation
    relabels it. The generators are the default (every other element) or
    a drawn subset that generates the group.
    """
    kind = draw(st.sampled_from(["cyclic", "dihedral", "z2-times", "s3"]))
    if kind == "s3":
        table = S3["table"]
    else:
        n = draw(st.integers(1, 12 if kind == "cyclic" else 6))
        table = {"cyclic": cyclic_table, "dihedral": dihedral_table, "z2-times": z2_times_table}[kind](n)
    perm = draw(st.permutations(range(len(table))))
    spec = {"family": "finite", "table": relabelled(table, perm)}
    others = [g for g in range(len(table)) if g != perm[0]]
    if others and draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        assume(generates(spec["table"], perm[0], gens))
        spec["generators"] = gens
    return spec, {**spec, "generators": spec.get("generators", others)}


@DRAWN
@given(h0_inputs())
def test_finite_h0_tables(bench, workdir, params):
    gen, plain, validate, _ = bench
    spec, spelled = params
    job = gen.cli_job("h0-drawn", ["finite-h0", "--group", write(workdir, plain, spec)],
                      {"type": "finite-h0", "group": spelled})
    rc, text = run(job["argv"])
    assert validate.check(job, rc, text) is None, (job["argv"], text[:300])
    # the validator asks only for a positive residual; the augmentation witness gives |G| exactly
    assert json.loads(text)["residual-l1"] == f"{len(spec['table'])}/1"
