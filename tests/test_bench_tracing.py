"""The traced benchmark run wraps library names; each of them must exist."""

import importlib.util
from pathlib import Path

from amencert import pairing, witnesses

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pair, verify = pairing.pair, witnesses.verify_flow_cycle
    with tracing.Tracer().installed():
        assert pairing.pair is not pair
    assert pairing.pair is pair and witnesses.verify_flow_cycle is verify
