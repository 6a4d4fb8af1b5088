"""The traced benchmark run wraps library names; each of them must exist."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from amencert import amenability, pairing, witnesses
from amencert.groups import FreeAbelianGroup, FreeGroup, cyclic_group

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    pair, verify = pairing.pair, witnesses.verify_flow_cycle
    with tracing.Tracer().installed():
        assert pairing.pair is not pair
    assert pairing.pair is pair and witnesses.verify_flow_cycle is verify


def test_sweep_calls_the_traced_oracle():
    # a caller oracle that looks flow_value up at call time meets the tracer's
    # wrapper: 2 rank letters x 2 sides (outgoing, incoming) x |B_2| words
    tracer = load_tracing().Tracer()
    fs = witnesses.FlowCycleSpec(FreeGroup(2), 1)
    with tracer.installed():
        report = witnesses.verify_flow_cycle(fs, 1, flow=lambda s, g: witnesses.flow_value(fs, s, g))
    assert report.passed
    assert tracer.counts["witnesses.oracle_calls"] == 8 * 17
    assert tracer.counts["witnesses.pairs_checked"] == 5 * 5


def test_default_sweep_calls_no_oracle():
    # the default route reads ray_first_letter directly, never flow_value
    tracer = load_tracing().Tracer()
    with tracer.installed():
        report = witnesses.verify_flow_cycle(witnesses.FlowCycleSpec(FreeGroup(2), 1), 1)
    assert report.passed
    assert tracer.counts["witnesses.oracle_calls"] == 0
    assert tracer.counts["witnesses.pairs_checked"] == 5 * 5


def test_box_search_counts_every_candidate():
    # Z^2 boxes of side n have ratio 8/n, so eps 1/4 accepts side 32; sides
    # 1..31 are ruled out by that closed form, and only side 32 is counted
    tracer = load_tracing().Tracer()
    with tracer.installed():
        cert = amenability.folner_search(FreeAbelianGroup(2), Fraction(1, 4), strategy="boxes", max_radius=40)
    assert cert.parameter == 32
    assert tracer.counts["amenability.candidates"] == 1
    assert tracer.counts["amenability.candidate_elems"] == 32 * 32
    assert tracer.counts["amenability.accepted"] == 1


def test_pairing_and_h0_counters():
    # the flow certificate pairs three times: the value, then both adjointness routes, over
    # slices of 4, 4 and 1 keys; the H_0 report states the order of the group it was given
    tracer = load_tracing().Tracer()
    with tracer.installed():
        witnesses.flow_pairing_certificate(witnesses.FlowCycleSpec(FreeGroup(2), 1))
        amenability.finite_h0(cyclic_group(6))
    assert tracer.counts["pairing.pair_calls"] == 3
    assert tracer.counts["pairing.slice_keys"] == 9
    assert tracer.counts["amenability.h0_order"] == 6
