"""End-to-end CLI behaviour: JSON payloads, exit codes, determinism."""

import argparse
import json
import reprlib
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amencert import groups
from amencert.cli import _dumps, _flow_json, _pairing_json, main
from amencert.complexes import EquivariantChain
from amencert.groups import FreeGroup, cyclic_table
from amencert.witnesses import FlowCycleSpec, flow_cycle
from conftest import dihedral_table, s3_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def z2_file(tmp_path):
    return write_json(tmp_path / "z2.json", {"family": "free-abelian", "rank": 2, "generators": ["a", "b"]})


@pytest.fixture
def z3_file(tmp_path):
    return write_json(tmp_path / "z3.json", {"family": "finite", "table": cyclic_table(3), "generators": [1]})


@pytest.fixture
def f2_dict():
    return {"family": "free", "rank": 2, "generators": ["a", "b"]}


class TestParser:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert run_cli(capsys, "verify-f2", "--radius", "0")[0] == 0
        # one build if no earlier call built it, none if one did
        assert built.count("amencert") <= 1


class TestVerifyF2:
    def test_radius_three(self, capsys):
        code, out = run_cli(capsys, "verify-f2", "--radius", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["points-checked"] == 53**2
        assert payload["pairing"]["value"] == "2/1"
        assert payload["pairing"]["adjointness-witness"]["equal"] is True

    def test_ray_b(self, capsys):
        code, out = run_cli(capsys, "verify-f2", "--radius", "1", "--ray", "b")
        assert code == 0
        assert json.loads(out)["pairing"]["value"] == "2/1"

    def test_rank_three(self, capsys):
        code, out = run_cli(capsys, "verify-f2", "--radius", "1", "--rank", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["incoming-constant"] == 5
        assert payload["pairing"]["value"] == "4/1"

    def test_every_rank_passes_with_the_default_ray(self, capsys):
        for rank in range(1, groups.MAX_RANK + 1):
            code, out = run_cli(capsys, "verify-f2", "--rank", str(rank), "--radius", "0")
            assert code == 0, rank
            assert json.loads(out)["ray"] == groups.FreeGroup(rank).gen_labels[0]

    def test_bad_ray_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "verify-f2", "--ray", "c")
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--rank", "1000000000"), ("--radius", "1000000"), ("--radius", "6")])
    def test_work_guard_is_input_error(self, capsys, flag, value):
        code = main(["verify-f2", flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPair:
    def test_johnson_against_flow(self, capsys, tmp_path, f2_dict):
        cochain = write_json(tmp_path / "j.json", {"builtin": "johnson", "group": f2_dict})
        cycle = write_json(tmp_path / "c.json", {"builtin": "flow", "group": f2_dict, "ray": "a"})
        code, out = run_cli(capsys, "pair", "--cochain", cochain, "--cycle", cycle)
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == "2/1"
        assert payload["cycle"] == "tree-flow(a)"

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_flow_cycle_through_a_cycle_file(self, capsys, tmp_path, rank):
        # the file reader's tree-flow route: each value of the written cycle is one unshifted tree flow
        group = FreeGroup(rank)
        cochain = write_json(tmp_path / "j.json", {"builtin": "johnson", "group": group.to_dict()})
        for ray in range(1, rank + 1):
            fs = FlowCycleSpec(group, ray)
            data = flow_cycle(fs).to_json()
            assert EquivariantChain.from_json(data) == flow_cycle(fs)
            code, out = run_cli(capsys, "pair", "--cochain", cochain, "--cycle", write_json(tmp_path / "c.json", data))
            payload = json.loads(out)
            assert code == 0
            assert (payload["value"], payload["cycle"]) == (f"{2 * rank - 2}/1", "cycle-file")

    def test_bad_ray_same_error_as_verify_f2(self, capsys, tmp_path, f2_dict):
        cochain = write_json(tmp_path / "j.json", {"builtin": "johnson", "group": f2_dict})
        cycle = write_json(tmp_path / "c.json", {"builtin": "flow", "group": f2_dict, "ray": "c"})
        for argv in (["pair", "--cochain", cochain, "--cycle", cycle], ["verify-f2", "--ray", "c"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: ray 'c' is not a generator of the rank-2 group\n"

    @pytest.mark.parametrize("kind, error", [
        ("L1", "unknown chain kind 'L1'"),
        ("", "unknown chain kind ''"),
        (3, "chain field 'kind' must be a string, got an integer"),
    ], ids=["L1", "empty", "int"])
    def test_bad_chain_kind_is_named_before_any_value_is_read(self, capsys, tmp_path, f2_dict, kind, error):
        # the values are l1 values, which the linf reader would refuse first
        cochain = write_json(tmp_path / "j.json", {"builtin": "johnson", "group": f2_dict})
        cycle = write_json(tmp_path / "c.json", {"group": f2_dict, "degree": 1, "kind": kind,
                                                   "entries": [[["a"], {"l1": [["e", "3/1"]]}]]})
        assert main(["pair", "--cochain", cochain, "--cycle", cycle]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_one_against_fundamental(self, capsys, tmp_path, f2_dict):
        cochain = write_json(tmp_path / "one.json", {"builtin": "one", "group": f2_dict})
        cycle = write_json(tmp_path / "f.json", {"builtin": "fundamental", "group": f2_dict})
        code, out = run_cli(capsys, "pair", "--cochain", cochain, "--cycle", cycle)
        assert code == 0
        assert json.loads(out)["value"] == "1/1"

    def test_explicit_files(self, capsys, tmp_path, f2_dict):
        cochain = write_json(
            tmp_path / "phi.json",
            {
                "group": f2_dict,
                "degree": 1,
                "dual": "full-dual",
                "entries": [[["a"], [["e", "2/1"]]]],
            },
        )
        cycle = write_json(
            tmp_path / "c.json",
            {
                "group": f2_dict,
                "degree": 1,
                "kind": "l1",
                "entries": [[["a"], {"l1": [["e", "3/1"]]}]],
            },
        )
        code, out = run_cli(capsys, "pair", "--cochain", cochain, "--cycle", cycle)
        assert code == 0
        assert json.loads(out)["value"] == "6/1"

    def test_malformed_file_is_input_error(self, capsys, tmp_path, f2_dict):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "pair", "--cochain", str(bad), "--cycle", str(bad))
        assert code == 1
        cochain = write_json(tmp_path / "j.json", {"builtin": "johnson", "group": f2_dict})
        no_group = write_json(tmp_path / "c.json", {"degree": 1, "kind": "l1", "entries": []})
        code = main(["pair", "--cochain", cochain, "--cycle", no_group])
        assert code == 1
        assert capsys.readouterr().err == "error: missing field 'group'\n"
        not_object = write_json(tmp_path / "list.json", [1, 2])
        for args in (["--cochain", not_object, "--cycle", not_object], ["--cochain", cochain, "--cycle", not_object]):
            code = main(["pair", *args])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestFolner:
    def test_z2_box_certificate(self, capsys, z2_file):
        code, out = run_cli(
            capsys, "folner", "--group", z2_file, "--eps", "1/10",
            "--strategy", "boxes", "--max-radius", "100",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["type"] == "folner-certificate"
        assert payload["parameter"] == 80
        assert payload["ratio"] == "1/10"

    def test_free_group_exhausts(self, capsys, tmp_path, f2_dict):
        group = write_json(tmp_path / "f2.json", f2_dict)
        code, out = run_cli(
            capsys, "folner", "--group", group, "--eps", "1/1",
            "--strategy", "balls", "--max-radius", "4",
        )
        payload = json.loads(out)
        assert code == 2
        assert payload["type"] == "folner-failure"
        assert payload["attempts"][0]["ratio"] == "8/1"

    def test_certificate_revalidates(self, capsys, z3_file):
        code, out = run_cli(capsys, "folner", "--group", z3_file, "--eps", "1/5")
        payload = json.loads(out)
        assert code == 0
        from amencert.amenability import folner_certificate_from_set
        from amencert.functions import frac_str
        from amencert.groups import group_from_dict

        group = group_from_dict(payload["group"])
        rebuilt = folner_certificate_from_set(
            group, [group.elem_from_json(x) for x in payload["set"]]
        )
        assert frac_str(rebuilt.ratio) == payload["ratio"]

    def test_free_failure_builds_no_ball(self, capsys, monkeypatch, tmp_path, f2_dict):
        def no_ball(group, radius):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(groups.GroupSpec, "ball", no_ball)
        group = write_json(tmp_path / "f2.json", f2_dict)
        code, out = run_cli(capsys, "folner", "--group", group, "--eps", "1/10", "--max-radius", "10")
        payload = json.loads(out)
        assert code == 2
        assert payload["type"] == "folner-failure" and len(payload["attempts"]) == 11
        assert payload["best-ratio"] == "472392/118097"  # 4 + 4/|B_10|

    def test_free_rank_one_builds_only_the_accepted_ball(self, capsys, monkeypatch, tmp_path):
        built = []
        ball = groups.GroupSpec.ball

        def record_ball(group, radius):
            built.append(radius)
            return ball(group, radius)

        monkeypatch.setattr(groups.GroupSpec, "ball", record_ball)
        group = write_json(tmp_path / "f1.json", {"family": "free", "rank": 1})
        code, out = run_cli(capsys, "folner", "--group", group, "--eps", "1/2")
        payload = json.loads(out)
        # B_r of F_1 has ratio 4/(2r + 1): 4/9 at r = 4 is the first at most 1/2
        assert code == 0
        assert (payload["parameter"], payload["set-size"], payload["ratio"]) == (4, 9, "4/9")
        assert built == [4]

    def test_box_cap_is_one_line_error(self, tmp_path):
        z4 = write_json(tmp_path / "z4.json", {"family": "free-abelian", "rank": 4})
        proc = subprocess.run(
            [sys.executable, "-m", "amencert.cli", "folner", "--group", z4, "--eps", "1/2",
             "--strategy", "boxes", "--max-radius", "100"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def one_line_error(argv):
    proc = subprocess.run([sys.executable, "-m", "amencert.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


class TestFolnerBallCap:
    def test_f2_radius_20_is_one_line_error(self, tmp_path, f2_dict):
        f2 = write_json(tmp_path / "f2.json", f2_dict)
        err = one_line_error(["folner", "--group", f2, "--eps", "1/10", "--max-radius", "20"])
        assert "cap" in err

    def test_f1_letter_cap_is_one_line_error(self, tmp_path):
        # the element caps admit both; B_3162 and B_499999 of F_1 hold more than 10^7 letters
        f1 = write_json(tmp_path / "f1.json", {"family": "free", "rank": 1, "generators": ["a"]})
        for argv in (["iso-min", "--group", f1, "--radius", "3162"],
                     ["folner", "--group", f1, "--eps", "1/100000", "--max-radius", "499999"]):
            assert "holds more than 10000000 letters" in one_line_error(argv)


def test_huge_word_exponent_is_one_line_error(tmp_path, f2_dict):
    group = write_json(tmp_path / "f2.json", f2_dict)
    members = write_json(tmp_path / "set.json", ["a^3000000000"])
    assert "cap" in one_line_error(["reiter", "--group", group, "--set", members])


class TestRationalDigitLimit:
    def test_reiter_weight(self, tmp_path, z2_file):
        fn = write_json(tmp_path / "fn.json", [[[0, 0], "1/2"], [[1, 0], "1e-10000000"]])
        err = one_line_error(["reiter", "--group", z2_file, "--set", fn])
        assert "4300-digit limit" in err

    def test_folner_eps(self, z2_file):
        err = one_line_error(["folner", "--group", z2_file, "--eps", "1e-10000000"])
        assert "4300-digit limit" in err


class TestReiter:
    def test_indicator_set(self, capsys, tmp_path, z2_file):
        members = write_json(tmp_path / "set.json", [[i, j] for i in range(10) for j in range(10)])
        code, out = run_cli(capsys, "reiter", "--group", z2_file, "--set", members)
        assert code == 0
        assert json.loads(out)["ratio"] == "4/5"

    def test_weighted_function(self, capsys, tmp_path, z3_file):
        fn = write_json(tmp_path / "fn.json", [[0, "1/2"], [1, "1/2"], [2, "1/2"]])
        code, out = run_cli(capsys, "reiter", "--group", z3_file, "--set", fn)
        assert code == 0
        assert json.loads(out)["ratio"] == "0/1"

    def test_repeated_elements_are_dropped(self, capsys, tmp_path, z2_file):
        repeated = write_json(tmp_path / "rep.json", [[0, 0], [0, 0], [1, 0]])
        plain = write_json(tmp_path / "set.json", [[0, 0], [1, 0]])
        code, out = run_cli(capsys, "reiter", "--group", z2_file, "--set", repeated)
        assert code == 0
        payload = json.loads(out)
        assert payload["l1-norm"] == "2/1"
        assert payload["ratio"] == "6/1"
        assert run_cli(capsys, "reiter", "--group", z2_file, "--set", plain) == (0, out)

    def test_element_beside_a_weighted_pair_is_named(self, tmp_path, f2_dict):
        # one [x, "p/q"] entry makes the file weighted, so its first plain element is refused
        group = write_json(tmp_path / "f2.json", f2_dict)
        members = write_json(tmp_path / "set.json", ["a", "b", "a*b", ["b", "1/2"]])
        err = one_line_error(["reiter", "--group", group, "--set", members])
        assert err == "error: function item 0 must be a [key, value] pair, got 'a'\n"

    def test_repeated_and_cancelling_weights(self, capsys, tmp_path, z2_file):
        fn = write_json(tmp_path / "fn.json", [
            [[0, 0], "1/2"], [[1, 0], "1/3"], [[0, 0], "1/4"], [[2, 0], "1/5"], [[2, 0], "-1/5"],
        ])
        code, out = run_cli(capsys, "reiter", "--group", z2_file, "--set", fn)
        assert code == 0
        payload = json.loads(out)
        # f = 3/4 at (0,0) and 1/3 at (1,0); the weights at (2,0) cancel
        assert payload["l1-norm"] == "13/12"
        assert payload["generator-differences"] == {"a": "3/2", "a^-1": "3/2", "b": "13/6", "b^-1": "13/6"}
        assert payload["ratio"] == "88/13"


class TestFiniteH0:
    def test_z3(self, capsys, z3_file):
        code, out = run_cli(capsys, "finite-h0", "--group", z3_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["one-in-span"] is False
        assert payload["span-dimension"] == 2

    def test_s3_payload(self, capsys, tmp_path):
        group = write_json(tmp_path / "s3.json", s3_group().to_dict())
        code, out = run_cli(capsys, "finite-h0", "--group", group)
        assert code == 0
        assert json.loads(out) == {
            "type": "finite-h0-report",
            "group-hash": "740f1f6161edc782f797448d9512b4e0870cee8bdcf54929f9f87ca710f7ab93",
            "order": 6,
            "span-dimension": 5,
            "one-in-span": False,
            "residual-l1": "6/1",
        }

    def test_infinite_group_rejected(self, capsys, z2_file):
        code, _ = run_cli(capsys, "finite-h0", "--group", z2_file)
        assert code == 1

    @pytest.mark.parametrize(
        "entry, text",
        [("true", "True"), ("0.0", "0.0"), ("-2", "-2"), ('"x"', "'x'"), ("2", "2")],
    )
    def test_table_entry_that_is_not_an_index(self, capsys, tmp_path, entry, text):
        # a bool, a float, a negative int, a string and n itself all fail with one text
        path = tmp_path / "z2.json"
        path.write_text(f'{{"family": "finite", "table": [[0, 1], [1, {entry}]]}}')
        assert main(["finite-h0", "--group", str(path)]) == 1
        assert capsys.readouterr().err == f"error: table entry {text} must be an index 0..1\n"


class TestIsoMin:
    def test_default_group_radius_one(self, capsys):
        code, out = run_cli(capsys, "iso-min", "--radius", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["min-ratio"] == "24/5"
        assert payload["subsets-enumerated"] == 31

    def test_radius_guard(self, capsys):
        # |B_9| = 39365 passes the output cap of 14284 elements
        code, out = run_cli(capsys, "iso-min", "--radius", "9")
        assert code == 1 and out == ""

    def test_radius_three_prints_the_ball(self, capsys):
        code, out = run_cli(capsys, "iso-min", "--radius", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["min-ratio"] == "216/53"
        assert payload["ball-size"] == 53 and payload["subsets-enumerated"] == 2**53 - 1
        assert payload["minimizer"][:5] == ["e", "a", "a^-1", "b", "b^-1"] and len(payload["minimizer"]) == 53

    def test_largest_admitted_ball_prints(self, capsys):
        # |B_8| = 13121 is the largest F_2 ball under the cap; 2^13121 - 1 has 3950 digits
        code, out = run_cli(capsys, "iso-min", "--radius", "8")
        payload = json.loads(out)
        assert code == 0
        assert payload["ball-size"] == len(payload["minimizer"]) == 13121
        assert payload["subsets-enumerated"] == 2**13121 - 1
        assert payload["min-ratio"] == "52488/13121"  # 4 + 4/13121

    def test_radius_two_stdout_is_pinned(self, capsys):
        # the minimizer is the whole ball: every proper subset has a
        # strictly larger ratio
        code, out = run_cli(capsys, "iso-min", "--radius", "2")
        assert code == 0
        assert out == ISO_F2_R2_STDOUT

    def test_huge_radius_on_finite_group_answers(self, capsys, tmp_path):
        # the ball saturates at D_8's diameter, so the radius is never looped
        d8 = write_json(tmp_path / "d8.json", {"family": "finite", "table": dihedral_table(8), "generators": [1, 8]})
        code, out = run_cli(capsys, "iso-min", "--radius", "1000000000", "--group", d8)
        payload = json.loads(out)
        assert code == 0
        assert payload["ball-size"] == 16
        assert payload["min-ratio"] == "0/1"

    def test_guard_fires_before_the_ball_is_built(self):
        # B_9 is one radius past the cap, and B_40 of F_2 has about 3^40
        # elements; the guard counts both in closed form
        for radius in ("9", "40"):
            proc = subprocess.run(
                [sys.executable, "-m", "amencert.cli", "iso-min", "--radius", radius],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr == f"error: the ball of radius {radius} has more than 14284 elements, the iso-min cap\n"


ISO_F2_R2_STDOUT = """{
  "type": "isoperimetric-minimum",
  "group-hash": "dcf65c4885d1a43ee2c26aa8ebe97614ea3c70379d41340f67115e4c93aeac6d",
  "radius": 2,
  "ball-size": 17,
  "subsets-enumerated": 131071,
  "min-ratio": "72/17",
  "minimizer": [
    "e",
    "a",
    "a^-1",
    "b",
    "b^-1",
    "a^2",
    "a*b",
    "a*b^-1",
    "a^-2",
    "a^-1*b",
    "a^-1*b^-1",
    "b*a",
    "b*a^-1",
    "b^2",
    "b^-1*a",
    "b^-1*a^-1",
    "b^-2"
  ]
}
"""


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run_cli(capsys, "selftest", "--seed", "7", "--trials", "10")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "group-laws",
            "complex-axioms",
            "adjointness",
            "inflation-isomorphism",
            "connecting-map",
        }

    def test_a_broken_boundary_fails_under_python_O(self):
        # -O strips assert statements; the selftest's checks must still run
        code = ("from amencert import cli, complexes; complexes.UfChain.boundary = lambda self: self; "
                "cli.main(['selftest', '--seed', '0', '--trials', '5'])")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is False
        assert {c["name"]: c["error"] for c in report["checks"] if not c["passed"]} == {
            "complex-axioms": "boundary of a boundary of a uniformly finite chain is not zero",
            "inflation-isomorphism": "inflation does not commute with the boundary",
        }


MALFORMED_GROUPS = {
    "float-rank": {"family": "free", "rank": 2.7},
    "bool-rank": {"family": "free-abelian", "rank": True},
    "string-labels": {"family": "free", "rank": 2, "generators": "ab"},
    "int-label": {"family": "free-abelian", "rank": 1, "generators": [5]},
    "list-label": {"family": "free", "rank": 2, "generators": [["a"], "b"]},
    "bool-generator": {"family": "finite", "table": cyclic_table(2), "generators": [True]},
    "float-generator": {"family": "finite", "table": cyclic_table(2), "generators": [1.0]},
    "string-generators": {"family": "finite", "table": cyclic_table(2), "generators": "1"},
    "scalar-table": {"family": "finite", "table": 5},
    "huge-free-rank": {"family": "free", "rank": 10**12},
    "huge-free-abelian-rank": {"family": "free-abelian", "rank": 10**12},
    "table-order-257": {"family": "finite", "table": cyclic_table(257)},
    "empty-free-labels": {"family": "free", "rank": 2, "generators": []},
    "empty-free-abelian-labels": {"family": "free-abelian", "rank": 1, "generators": []},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GROUPS))
def test_malformed_group_spec_is_one_line_error(tmp_path, name):
    group = write_json(tmp_path / "g.json", MALFORMED_GROUPS[name])
    proc = subprocess.run(
        [sys.executable, "-m", "amencert.cli", "iso-min", "--radius", "0", "--group", group],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_label_with_a_final_newline_is_refused(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", {"family": "free", "rank": 2, "generators": ["a\n", "b"]})
    assert main(["iso-min", "--radius", "0", "--group", group]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: invalid generator label 'a\\n'\n"


@pytest.mark.parametrize("point", [[1.7, True], [1, True], [1.0, 2], ["1", 2]])
def test_non_integer_coordinates_are_one_line_error(tmp_path, z2_file, point):
    members = write_json(tmp_path / "set.json", [point])
    proc = subprocess.run(
        [sys.executable, "-m", "amencert.cli", "reiter", "--group", z2_file, "--set", members],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


F2 = {"family": "free", "rank": 2, "generators": ["a", "b"]}
COCHAIN = {"group": F2, "degree": 1, "dual": "full-dual", "entries": [[["a"], [["e", "2/1"]]]]}
L1_CYCLE = {"group": F2, "degree": 1, "kind": "l1", "entries": [[["a"], {"l1": [["e", "3/1"]]}]]}
FUNDAMENTAL = {"builtin": "fundamental", "group": F2}
Z2 = {"family": "free-abelian", "rank": 2, "generators": ["a", "b"]}
SINGLE_LETTERS = {"edge": "tree-flow edge must be one letter, got {!r}",
                  "ray": "tree-flow ray must be one positive letter, got {!r}"}


def flow_file(edge, ray, group=F2, key="a"):
    """A linf cycle file whose one value is the tree-flow form, as the file reader's tree-flow route reads it."""
    return {"group": group, "degree": 1, "kind": "linf",
            "entries": [[[key], {"tree-flow": {"edge": edge, "ray": ray}}]]}


# name: (cochain file, cycle file, a fragment the one-line error must hold)
MALFORMED_PAIR_FILES = {
    "entries-int": ({**COCHAIN, "entries": 5}, L1_CYCLE, "'entries'"),
    "entries-null": (COCHAIN, {**L1_CYCLE, "entries": None}, "'entries'"),
    "slice-key-int": ({**COCHAIN, "entries": [[5, [["e", "2/1"]]]]}, L1_CYCLE, "key"),
    "slice-key-string": ({**COCHAIN, "entries": [["a", [["e", "2/1"]]]]}, L1_CYCLE, "key"),
    "constant-plus-finite-string": (
        {**COCHAIN, "degree": 0, "entries": [[[], [["e", "1/1"]]]]},
        {**L1_CYCLE, "degree": 0, "kind": "linf", "entries": [[[], {"constant-plus-finite": "x"}]]},
        "constant-plus-finite",
    ),
    "l1-value-list": (COCHAIN, {**L1_CYCLE, "entries": [[["a"], ["l1"]]]}, "l1"),
    "integer-rational": ({**COCHAIN, "entries": [[["a"], [["e", 3]]]]}, L1_CYCLE, "rational"),
    "float-degree": ({**COCHAIN, "degree": 0.7, "entries": []}, FUNDAMENTAL, "'degree'"),
    "string-degree": (COCHAIN, {**L1_CYCLE, "degree": "1"}, "'degree'"),
    "one-item-pair": ({**COCHAIN, "entries": [[["a"], [["a"]]]]}, L1_CYCLE, "[key, value] pair"),
    "tree-flow-edge-e": (COCHAIN, flow_file("e", "a"), SINGLE_LETTERS["edge"].format("e")),
    "tree-flow-edge-a^2": (COCHAIN, flow_file("a^2", "a"), SINGLE_LETTERS["edge"].format("a^2")),
    "tree-flow-ray-a^-1": (COCHAIN, flow_file("a", "a^-1"), SINGLE_LETTERS["ray"].format("a^-1")),
    "tree-flow-ray-a*b": (COCHAIN, flow_file("a", "a*b"), SINGLE_LETTERS["ray"].format("a*b")),
    "tree-flow-edge-c": (COCHAIN, flow_file("c", "a"), "unknown generator 'c'"),
    "tree-flow-ray-c": (COCHAIN, flow_file("a", "c"), "unknown generator 'c'"),
    "tree-flow-over-z2": (COCHAIN, flow_file("a", "a", Z2, [1, 0]), "tree-flow values require a free group"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_FILES))
def test_malformed_pair_file_is_one_line_error(capsys, tmp_path, name):
    cochain, cycle, fragment = MALFORMED_PAIR_FILES[name]
    code = main(["pair", "--cochain", write_json(tmp_path / "phi.json", cochain),
                 "--cycle", write_json(tmp_path / "c.json", cycle)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


def test_deeply_nested_set_is_one_line_error(capsys, tmp_path, z2_file):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    code = main(["reiter", "--group", z2_file, "--set", str(nested)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def cli_error(capsys, *argv):
    """The stderr of a command that must fail with exit 1, one line and no stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_a_file_json_cannot_read_is_named_by_its_path(capsys, tmp_path, z2_file):
    # an integer past int's 4300-digit limit, bad syntax and bad UTF-8: each error names the file
    huge, syntax, binary = tmp_path / "huge.json", tmp_path / "syntax.json", tmp_path / "binary.json"
    huge.write_text('{"family": "free", "rank": ' + "9" * 5000 + "}")
    syntax.write_text("{")
    binary.write_bytes(b"\xff[]")
    err = cli_error(capsys, "iso-min", "--radius", "0", "--group", str(huge))
    assert err.startswith(f"error: {huge}: ") and "4300" in err
    err = cli_error(capsys, "reiter", "--group", z2_file, "--set", str(syntax))
    assert err.startswith(f"error: {syntax}: Expecting property name")
    assert cli_error(capsys, "reiter", "--group", z2_file, "--set", str(binary)).startswith(f"error: {binary}: ")


def test_element_errors_shorten_long_values(capsys, tmp_path, z2_file, z3_file, f2_dict):
    f2 = write_json(tmp_path / "f2.json", f2_dict)
    word, point = "a" * 5000, list(range(5000))
    cases = [
        (z2_file, [word], f"free-abelian element must serialize as a list, got {reprlib.repr(word)}"),
        (z2_file, [point], f"expected an integer vector of length 2, got {reprlib.repr(tuple(point))}"),
        (z2_file, [[1, [0] * 5000]], f"non-integer coordinate in {reprlib.repr((1, [0] * 5000))}"),
        (z3_file, [word], f"finite-group element must be an index 0..2, got {reprlib.repr(word)}"),
        (f2, [point], f"free-group element must serialize as a string, got {reprlib.repr(point)}"),
        (f2, ["a*" + "?" * 5000], f"cannot parse word token {reprlib.repr('?' * 5000)}"),
        (f2, ["b*" + "c" * 5000], f"unknown generator {reprlib.repr('c' * 5000)}"),
        # the exponent with 5000 digits is past the letter cap, not past int's digit limit
        (f2, [["a^" + "9" * 5000, "1/1"]], f"word token {reprlib.repr('a^' + '9' * 5000)} passes the cap of 1000000 letters"),
    ]
    for group, members, want in cases:
        err = cli_error(capsys, "reiter", "--group", group, "--set", write_json(tmp_path / "set.json", members))
        assert err == f"error: {want}\n" and len(err) < 120


def imported(code):
    """The amencert modules loaded after running `code` in a fresh interpreter."""
    code += "; import json, sys; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'amencert']))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


# the modules each command loads beyond the package, groups and functions
COMMAND_MODULES = {
    "verify-f2": {"complexes", "pairing", "witnesses"},
    "pair": {"complexes", "pairing"},
    "folner": {"amenability"},
    "reiter": {"amenability"},
    "finite-h0": {"amenability"},
    "iso-min": {"amenability"},
    "selftest": {"complexes", "pairing", "sampling"},
}


def command_argv(command, tmp_path, f2_dict):
    """A small passing run of `command`, its input files written under tmp_path."""
    z2 = write_json(tmp_path / "z2.json", {"family": "free-abelian", "rank": 2, "generators": ["a", "b"]})
    return {
        "verify-f2": ["verify-f2", "--radius", "1"],
        "pair": ["pair", "--cochain", write_json(tmp_path / "phi.json", {"builtin": "one", "group": f2_dict}),
                 "--cycle", write_json(tmp_path / "c.json", {"builtin": "fundamental", "group": f2_dict})],
        "folner": ["folner", "--group", z2, "--eps", "1", "--strategy", "boxes"],
        "reiter": ["reiter", "--group", z2, "--set", write_json(tmp_path / "w.json", [[[0, 0], "1/2"], [[1, 0], "1/3"]])],
        "finite-h0": ["finite-h0", "--group", write_json(
            tmp_path / "z3.json", {"family": "finite", "table": cyclic_table(3), "generators": [1]})],
        "iso-min": ["iso-min", "--radius", "2"],
        "selftest": ["selftest", "--trials", "2"],
    }[command]


# the public names of the package, by the module that defines each
PUBLIC = {
    "groups": ["Element", "FiniteGroup", "FreeAbelianGroup", "FreeGroup", "GroupSpec", "cyclic_group",
               "cyclic_table", "group_from_dict"],
    "functions": ["BoundedFn", "FinSuppFn", "delta", "pair_eval", "tree_flow"],
    "complexes": ["KIND_L1", "KIND_LINF", "BoundedCochain", "EquivariantChain", "UfChain", "connecting_lift_check",
                  "deflate", "fundamental_cycle", "inflate", "johnson_cocycle", "one_cochain", "one_l1_cycle",
                  "one_lift_cochain"],
    "pairing": ["PairingCertificate", "make_pairing_certificate", "pair"],
    "amenability": ["FiniteH0Report", "FolnerCertificate", "FolnerFailure", "finite_h0",
                    "folner_certificate_from_set", "folner_search", "indicator", "isoperimetric_argmin",
                    "reiter_ratio"],
    "witnesses": ["FlowCycleSpec", "FlowVerification", "flow_cycle", "flow_pairing_certificate", "flow_value",
                  "verify_flow_cycle"],
}


class TestOutputContract:
    def test_deterministic_bytes(self, capsys, z2_file):
        args = ["folner", "--group", z2_file, "--eps", "1/4", "--strategy", "boxes", "--max-radius", "40"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path, z3_file):
        out_path = tmp_path / "report.json"
        code, printed = run_cli(capsys, "finite-h0", "--group", z3_file, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == printed

    def test_console_entry_point(self, z3_file):
        proc = subprocess.run(
            [sys.executable, "-m", "amencert.cli", "finite-h0", "--group", z3_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["order"] == 3

    def test_import_leaves_out_inspect(self):
        # dataclasses would pull in inspect with ast, dis and tokenize: about
        # 1 MB of RSS and 9 ms of import in every process that runs the CLI
        code = "import amencert.cli, sys; assert 'inspect' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_openssl(self):
        # the group-hash comes from the builtin sha256 module: hashlib would load OpenSSL's
        # _hashlib, about 4 ms of import in every process that runs the CLI
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (f"import sys; sys.path.insert(0, {src!r}); import amencert.cli;"
                " assert '_hashlib' not in sys.modules, 'loaded'")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_only_groups_and_functions(self):
        assert imported("import amencert.cli") == {"amencert", "amencert.cli", "amencert.functions", "amencert.groups"}

    def test_package_import_loads_no_submodule(self):
        assert imported("import amencert") == {"amencert"}

    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_each_command_loads_only_what_it_runs(self, capsys, tmp_path, f2_dict, command):
        argv = command_argv(command, tmp_path, f2_dict)
        # -m runs the cli as __main__, so the import log names the package and what the command loads
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "amencert.cli", *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        logged = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
                  if line.startswith("import time:")}
        loaded = {name for name in logged if name.split(".")[0] == "amencert"}
        assert loaded == {"amencert", "amencert.functions", "amencert.groups"} | {
            f"amencert.{name}" for name in COMMAND_MODULES[command]}
        code, out = run_cli(capsys, *argv)
        assert code == 0 and proc.stdout == out.encode()

    def test_public_names_are_their_modules_objects(self):
        code = """if True:
            import importlib, json, sys
            from amencert import FolnerCertificate, verify_flow_cycle
            import amencert
            public = json.loads(sys.argv[1])
            assert sorted(amencert.__all__) == sorted(n for names in public.values() for n in names)
            assert set(amencert.__all__) <= set(dir(amencert))
            for module, names in public.items():
                for name in names:
                    assert getattr(amencert, name) is getattr(importlib.import_module("amencert." + module), name), name
            assert FolnerCertificate is amencert.amenability.FolnerCertificate
            assert verify_flow_cycle is amencert.witnesses.verify_flow_cycle
            try:
                amencert.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("no AttributeError")
            assert not hasattr(amencert, "no_such_name")
        """
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(PUBLIC)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "finite-h0", "--group", "/does/not/exist.json")
        assert code == 1

    def test_verify_payload_revalidates(self, capsys):
        # rebuilding the run from the payload's own group spec reproduces it
        _, first = run_cli(capsys, "verify-f2", "--radius", "2")
        payload = json.loads(first)
        from amencert.groups import group_from_dict
        from amencert.witnesses import FlowCycleSpec, flow_pairing_certificate, verify_flow_cycle

        group = group_from_dict(payload["group"])
        ray = group.gen_labels.index(payload["ray"]) + 1
        fs = FlowCycleSpec(group, ray)
        report = verify_flow_cycle(fs, payload["radius"])
        cert = flow_pairing_certificate(fs)
        rebuilt = _flow_json(report) | {"pairing": _pairing_json(cert)}
        assert json.dumps(rebuilt, indent=2) + "\n" == first


# JSON-shaped values as certificates hold them: str (non-ASCII and control
# characters included), int, bool and None, nested in lists, tuples and dicts
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


SCALARS = [st.none(), st.booleans(), st.integers(), st.text()]


def one_type_rows(cell):
    """A flat list of one scalar type, or a list or tuple of nonempty rows of it, the rows all lists or all tuples."""
    row = st.lists(cell, min_size=1, max_size=4)
    return st.lists(cell, max_size=6) | st.lists(row, max_size=6) | st.lists(row.map(tuple), max_size=6).map(tuple)


# the shapes the writer writes whole, and their near misses: empty rows, rows of mixed scalar
# types (bool beside int included), lists mixed with tuples; nested inside dicts and lists
ANY_SCALAR = st.one_of(*SCALARS)
NEAR_ROWS = st.lists(st.lists(ANY_SCALAR, max_size=3) | st.lists(ANY_SCALAR, max_size=3).map(tuple), max_size=5)
# rows of one length whose cells are all exact ints, written by one %-format: negative cells,
# cells past 2^64, one-cell rows, list rows and tuple rows
ROW_INTS = st.integers() | st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64), 2**64 + 1])


def int_rows(width):
    row = st.lists(ROW_INTS, min_size=width, max_size=width)
    return st.lists(row, min_size=1, max_size=6) | st.lists(row.map(tuple), min_size=1, max_size=6).map(tuple)


INT_ROWS = st.integers(1, 4).flatmap(int_rows)


@st.composite
def near_int_rows(draw):
    """Int rows of one length with one flaw, each leaving the %-format path: a bool cell, one
    short row or an empty row."""
    rows = [list(row) for row in draw(st.integers(2, 4).flatmap(int_rows))]
    at = draw(st.integers(0, len(rows) - 1))
    flaw = draw(st.sampled_from(["bool", "short", "empty"]))
    if flaw == "bool":
        rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.booleans())
    elif flaw == "short":
        rows[at].pop()
    else:
        rows.insert(at, [])
    return rows


ROW_VALUES = st.recursive(
    st.sampled_from(SCALARS).flatmap(one_type_rows) | NEAR_ROWS | INT_ROWS | near_int_rows(),
    lambda inner: st.dictionaries(st.text(max_size=4), inner, max_size=3) | st.lists(inner, max_size=3),
    max_leaves=8,
)


class TestWriter:
    """cli._dumps against its oracle, json.dumps(indent=2)."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(ROW_VALUES)
    def test_rows_match_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [[-1, 2**64], [3, -(2**70)]], [(5,), (-6,)], ([0, 1, 2], [3, 4, 5]), {"set": [[0, 0], [1, 0]]},
        [[1, True], [2, 3]], [[1, 2], [3]], [[1, 2], []], [[1, 2], (3, 4)],
    ], ids=["big", "one-cell-tuples", "tuple-of-lists", "in-dict", "bool-cell", "short-row", "empty-row", "mixed"])
    def test_int_rows_match_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        0.5, [1, {"x": 1.0}], {1: "int key"}, {"x": {2, 3}}, [[1, 0.5]], [[0.5]], [0.5, 1.5], [[1, 2], [3, 4.0]],
    ])
    def test_refuses_what_a_certificate_never_holds(self, value):
        # a float is never exact; json would write an int key as a string
        with pytest.raises(TypeError):
            _dumps(value)
