"""Byte pins: the exit code and the sha256 of stdout for one fixed input of each certificate type.

A change that means to alter a certificate's bytes edits its row here, by
name; any other change leaves every row as it is.
"""

import hashlib
import json

import pytest

from amencert.cli import main
from amencert.groups import cyclic_table
from conftest import dihedral_table, s3_group

F2 = {"family": "free", "rank": 2, "generators": ["a", "b"]}
Z2 = {"family": "free-abelian", "rank": 2, "generators": ["a", "b"]}
Z3 = {"family": "finite", "table": cyclic_table(3), "generators": [1]}
Z5 = {"family": "finite", "table": cyclic_table(5), "generators": [1]}
D4 = {"family": "finite", "table": dihedral_table(4), "generators": [1, 4]}
D8 = {"family": "finite", "table": dihedral_table(8), "generators": [1, 8]}
D18 = {"family": "finite", "table": dihedral_table(18), "generators": [1, 18]}
Z60 = {"family": "finite", "table": cyclic_table(60), "generators": [7]}

# name -> (argv, with {file} fields naming the input files below, exit code, sha256 of stdout)
PINS = {
    "verify-f2-rank2-r2-ray-b": (
        ["verify-f2", "--rank", "2", "--radius", "2", "--ray", "b"], 0,
        "09f7b7b8bf142848a68cce8b8dd0aee344ee641297d337f95c987e8c9705844a",
    ),
    "verify-f2-rank3-r1": (
        ["verify-f2", "--rank", "3", "--radius", "1"], 0,
        "d61f2fc41dfa8f5be42006c365d0ccffc32fe167b5df19eb04793ea215746083",
    ),
    "pair-johnson-flow-f2": (
        ["pair", "--cochain", "{johnson-f2}", "--cycle", "{flow-f2}"], 0,
        "595adf300f20bc0b3f0aad5922089c04331a2a20a3c77393e00bd2c533f34c64",
    ),
    "pair-one-fundamental-z3": (
        ["pair", "--cochain", "{one-z3}", "--cycle", "{fundamental-z3}"], 0,
        "aced7c787ac4541e5c775da8b376b3bdd120f7bf319d11e79872f16c1a42f54d",
    ),
    "pair-johnson-l1-file": (
        ["pair", "--cochain", "{johnson-f2}", "--cycle", "{l1-cycle-f2}"], 0,
        "3e1329cfcbde42b7e47b5bf581f0a99fa820d8a561cb85db62e9c26ad5122862",
    ),
    "folner-z2-boxes": (
        ["folner", "--group", "{z2}", "--eps", "1/5", "--strategy", "boxes", "--max-radius", "40"], 0,
        "d4ab0115c17354ff16a9cd14af16e2ab99ae70316fc0670ca169172e23281c84",
    ),
    "folner-f2-failure": (
        ["folner", "--group", "{f2}", "--eps", "4", "--max-radius", "2"], 2,
        "8ad1226c12cc52b00b39022f839318bfbef1e653e010b3e19b7cef714de41d19",
    ),
    "folner-z5-balls": (
        ["folner", "--group", "{z5}", "--eps", "1/10"], 0,
        "23a6af453092de7fa6d26db6868982c5ecb74760cf43440c583dc1a1a6210830",
    ),
    "reiter-z2-set": (
        ["reiter", "--group", "{z2}", "--set", "{z2-set}"], 0,
        "b7e7bb561b6d5afb0c356d4e07dbe23b75513ededbb672d20169af3d5820e9a6",
    ),
    "reiter-f2-weights": (
        ["reiter", "--group", "{f2}", "--set", "{f2-weights}"], 0,
        "4249ec003cae84440cf2699691bccca5ac7ca971856c6d5bcbd419f17d7747e6",
    ),
    "reiter-f2-set": (
        ["reiter", "--group", "{f2}", "--set", "{f2-set}"], 0,
        "ac9aaa01597d1095e33af0be703e50afdb3bfa7c003372fb2aea7a46a6a5ca65",
    ),
    "finite-h0-s3": (
        ["finite-h0", "--group", "{s3}"], 0,
        "1b03fcf8daab6e37b7e0e4669bb4f12baea724203ea3b4f175cd7b1c7bf469db",
    ),
    "finite-h0-z60-g7": (
        ["finite-h0", "--group", "{z60}"], 0,
        "c0098fbd47e8b2586cbe6e2b355d8781f9197b8a6a0ecc6f595d6c6baa2bf153",
    ),
    "finite-h0-d18": (
        ["finite-h0", "--group", "{d18}"], 0,
        "8466a4fd6b7b4be3083882dee5eac8e1d831b887e966538b2ed4c0052c8841d2",
    ),
    "iso-min-d8-r5": (
        ["iso-min", "--radius", "5", "--group", "{d8}"], 0,
        "23f36b785436be21a5478abc479a9c21d15083e5b1f2f1ce7829a7fcde30760e",
    ),
    "iso-min-f2-r2": (
        ["iso-min", "--radius", "2"], 0,
        "d7eb836cf07da7dff28ba327b5491f2d57d6e6d7ec2fd81e52fa46f45baeb1d5",
    ),
    "iso-min-z2-r1": (
        ["iso-min", "--radius", "1", "--group", "{z2}"], 0,
        "0aeab84b7e3764c0f04955b6cf3c71b934762f256322d037475e594e4d3cc6f8",
    ),
    "iso-min-d4-saturated": (
        ["iso-min", "--radius", "4", "--group", "{d4}"], 0,
        "e1879d8aeb322c99e27ba6f113798414552dae1e11085f961216780227f4ce68",
    ),
    "selftest-seed0-trials5": (
        ["selftest", "--seed", "0", "--trials", "5"], 0,
        "72ee4877312d71457992758cccb08f6815656beff91a06cb6c013fe7e127831f",
    ),
}

FILES = {
    "f2": F2,
    "z2": Z2,
    "z5": Z5,
    "d4": D4,
    "d8": D8,
    "d18": D18,
    "z60": Z60,
    "s3": s3_group().to_dict(),
    "johnson-f2": {"builtin": "johnson", "group": F2},
    "flow-f2": {"builtin": "flow", "group": F2, "ray": "a"},
    "one-z3": {"builtin": "one", "group": Z3},
    "fundamental-z3": {"builtin": "fundamental", "group": Z3},
    "l1-cycle-f2": {
        "group": F2, "degree": 1, "kind": "l1",
        "entries": [[["a"], {"l1": [["e", "1/1"], ["b", "-1/2"]]}], [["b^-1"], {"l1": [["a*b", "2/3"]]}]],
    },
    "z2-set": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]],
    "f2-set": ["e", "a", "a", "b^-1*a"],
    "f2-weights": [["e", "1/2"], ["a", "1/3"], ["b^-1", "2/1"], ["a*b", "3/4"]],
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_certificate_bytes(capsys, tmp_path, name):
    paths = {}
    for key, payload in FILES.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(payload))
        paths[key] = str(path)
    argv, code, digest = PINS[name]
    assert main([arg.format_map(paths) for arg in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
