"""Arbitrary JSON input files: every subcommand exits 0, 1 or 2 and never raises.

Each example draws well-formed input files and then, most of the time,
breaks one of them in one place: some node at any depth is replaced by
arbitrary JSON or removed, or the whole file becomes arbitrary JSON. One defect
deep inside an otherwise valid file reaches every reader below the outer
type checks. Every example runs `cli.main` in process; exit 1 must print
exactly one `error:` line and nothing on stdout.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amencert.cli import main
from amencert.groups import cyclic_table

ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# small values of every JSON type, each wrong somewhere; drawn as often as ANY
ODD = st.sampled_from([None, True, 0, 2, 0.7, "", "x", "1", [], {}, ["x"], [["x"]], {"x": 1}]) | ANY
SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

# each group with elements of its own serialized form
GROUPS = [
    ({"family": "free", "rank": 2, "generators": ["a", "b"]}, ["e", "a", "b^-1", "a*b^-1"]),
    ({"family": "free", "rank": 1}, ["e", "a", "a^-2"]),
    ({"family": "free-abelian", "rank": 2, "generators": ["a", "b"]}, [[0, 0], [1, 0], [-1, 2]]),
    ({"family": "finite", "table": cyclic_table(3), "generators": [1]}, [0, 1, 2]),
]
RATIONALS = ["1/2", "-3", "0", "2/3"]
# builtins by degree, so that a drawn pair of files often agrees on it
BUILTIN_COCHAINS = {0: ["one-lift", "one"], 1: ["johnson"]}
BUILTIN_CYCLES = {0: ["fundamental", "one-l1"], 1: ["flow"]}


def nodes(doc, path=()):
    """The path to every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def broken(doc, path, value, remove):
    """doc with the node at path replaced by value, or removed when remove is true."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if len(path) == 1 and remove:
        del out[path[0]]
    else:
        out[path[0]] = broken(doc[path[0]], path[1:], value, remove)
    return out


def break_one(draw, docs):
    """docs as drawn, or one of them with one node replaced or removed, or replaced whole."""
    docs = list(docs)
    i = draw(st.integers(-1, len(docs) - 1))
    if i < 0:
        return docs
    how = draw(st.sampled_from(["replace", "remove", "any"]))
    path = draw(st.sampled_from(list(nodes(docs[i])))) if how != "any" else ()
    docs[i] = broken(docs[i], path, draw(ODD), remove=how == "remove" and bool(path))
    return docs


def pairs(draw, elems):
    return [[draw(st.sampled_from(elems)), draw(st.sampled_from(RATIONALS))] for _ in range(draw(st.integers(0, 2)))]


def entries(draw, elems, degree, value):
    keys = st.lists(st.sampled_from(elems), min_size=degree, max_size=degree)
    return [[draw(keys), value()] for _ in range(draw(st.integers(0, 2)))]


@st.composite
def group_files(draw):
    """A group file and a reiter set file over that group."""
    spec, elems = draw(st.sampled_from(GROUPS))
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3))
    else:
        members = pairs(draw, elems) or [[elems[0], "1/1"]]
    return break_one(draw, [spec, members])


@st.composite
def pair_files(draw):
    """A cochain file and a cycle file over one group and of one degree."""
    spec, elems = draw(st.sampled_from(GROUPS))
    degree = draw(st.integers(0, 1))
    if draw(st.booleans()):
        cochain = {"builtin": draw(st.sampled_from(BUILTIN_COCHAINS[degree])), "group": spec}
    else:
        cochain = {"group": spec, "degree": degree, "dual": draw(st.sampled_from(["full-dual", "scalar"])),
                   "entries": entries(draw, elems, degree, lambda: pairs(draw, elems)), "label": "phi"}
    if draw(st.booleans()):
        cycle = {"builtin": draw(st.sampled_from(BUILTIN_CYCLES[degree])), "group": spec, "ray": "a"}
    else:
        kind = draw(st.sampled_from(["l1", "linf"]))
        values = [
            lambda: {"constant": draw(st.sampled_from(RATIONALS))},
            lambda: {"finite": pairs(draw, elems)},
            lambda: {"constant-plus-finite": {"constant": "1/2", "finite": pairs(draw, elems)}},
            lambda: {"tree-flow": {"edge": "a^-1", "ray": "a"}},
        ]
        value = (lambda: {"l1": pairs(draw, elems)}) if kind == "l1" else draw(st.sampled_from(values))
        cycle = {"group": spec, "degree": degree, "kind": kind, "entries": entries(draw, elems, degree, value)}
    return break_one(draw, [cochain, cycle])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@settings(max_examples=100, **SETTINGS)
@given(files=group_files())
def test_group_and_set_files(tmp_path, files):
    group, members = write(tmp_path / "group.json", files[0]), write(tmp_path / "set.json", files[1])
    # radius 1 keeps a drawn rank up to the cap of 64 cheap
    run(["reiter", "--group", group, "--set", members])
    run(["folner", "--group", group, "--eps", "1/2", "--max-radius", "1"])
    run(["finite-h0", "--group", group])
    run(["iso-min", "--radius", "1", "--group", group])


@settings(max_examples=150, **SETTINGS)
@given(files=pair_files())
def test_cochain_and_cycle_files(tmp_path, files):
    cochain, cycle = write(tmp_path / "cochain.json", files[0]), write(tmp_path / "cycle.json", files[1])
    run(["pair", "--cochain", cochain, "--cycle", cycle])
