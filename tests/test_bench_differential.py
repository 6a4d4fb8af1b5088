"""Benchmark jobs run in process and checked independently.

The chain-algebra jobs exercise boundaries, coboundaries, sums, inflation
and the chain file format on random chains over F_2, Z^2, Z/3 and S_4. The
f2-witness, amenable-search and finite-exact jobs run the CLI: the flow
sweep and its pairing certificate, Folner boxes and balls, weighted Reiter
ratios with their per-letter differences, finite-group H_0 and the
isoperimetric minimum. `perfbench/validate.py` recomputes each answer with
plain arithmetic that does not import amencert, so this is a differential
test of those layers. Every CLI job's output must also be what
`json.dumps(indent=2)` writes for it. The perfbench modules are imported
from their directory and nothing there is edited.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def validate_workload(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, worker, validate = (importlib.import_module(name) for name in ("gen", "worker", "validate"))
    manifest = gen.generate(workload, seed, str(tmp_path))
    runner = worker.Runner(manifest)
    for job in manifest["jobs"]:
        rc, text, _ = runner.run_job(job)
        assert validate.check(job, rc, text) is None, job["name"]
        if job["kind"] == "cli" and rc != 1:
            assert json.dumps(json.loads(text), indent=2) + "\n" == text, job["name"]


@pytest.mark.parametrize("seed", range(1, 9))
def test_chain_algebra_jobs_validate(seed, tmp_path, monkeypatch):
    validate_workload("chain-algebra", seed, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", range(1, 5))
@pytest.mark.parametrize("workload", ["f2-witness", "amenable-search", "finite-exact"])
def test_workload_jobs_validate(workload, seed, tmp_path, monkeypatch):
    validate_workload(workload, seed, tmp_path, monkeypatch)
