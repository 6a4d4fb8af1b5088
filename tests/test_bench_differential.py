"""Every chain-algebra benchmark job, run in process and checked independently.

The jobs exercise boundaries, coboundaries, sums, inflation and the chain
file format on random chains over F_2, Z^2, Z/3 and S_4. `perfbench/validate.py`
recomputes each answer with plain arithmetic that does not import amencert,
so this is a differential test of the complexes layer. The perfbench
modules are imported from their directory and nothing there is edited.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", range(1, 9))
def test_chain_algebra_jobs_validate(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, worker, validate = (importlib.import_module(name) for name in ("gen", "worker", "validate"))
    manifest = gen.generate("chain-algebra", seed, str(tmp_path))
    runner = worker.Runner(manifest)
    for job in manifest["jobs"]:
        rc, text, _ = runner.run_job(job)
        assert validate.check(job, rc, text) is None, job["name"]
