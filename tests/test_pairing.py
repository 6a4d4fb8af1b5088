"""The duality pairing and its adjointness identity."""

from fractions import Fraction

import pytest

from amencert.complexes import (
    KIND_L1,
    BoundedCochain,
    EquivariantChain,
    johnson_cocycle,
    one_cochain,
    one_l1_cycle,
    one_lift_cochain,
)
from amencert.functions import FinSuppFn, delta
from amencert.pairing import (
    adjointness_values,
    make_pairing_certificate,
    pair,
)
from amencert.sampling import random_cochain, random_l1_chain
from amencert.witnesses import FlowCycleSpec, flow_cycle


def chain_sum(c1, c2):
    """c1 + c2 for l1 chains of one shape, built through the constructor from the summed slices."""
    keys, zero = c1.slice.keys() | c2.slice.keys(), FinSuppFn.zero(c1.group)
    return EquivariantChain(c1.group, c1.degree, KIND_L1,
                            {k: c1.slice.get(k, zero) + c2.slice.get(k, zero) for k in keys})


class TestPair:
    def test_johnson_against_flow_cycle(self, f2):
        assert pair(johnson_cocycle(f2), flow_cycle(FlowCycleSpec(f2, 1))) == 2

    def test_zero_chain(self, f2, rng):
        phi = random_cochain(rng, f2, 1)
        zero = EquivariantChain(f2, 1, KIND_L1, {})
        assert pair(phi, zero) == 0

    def test_one_against_one(self, all_groups):
        for group in all_groups:
            assert pair(one_cochain(group), one_l1_cycle(group)) == 1

    def test_degree_mismatch(self, f2, rng):
        with pytest.raises(ValueError):
            pair(random_cochain(rng, f2, 1), random_l1_chain(rng, f2, 2))

    def test_group_mismatch(self, f2, z2, rng):
        with pytest.raises(ValueError):
            pair(random_cochain(rng, f2, 1), random_l1_chain(rng, z2, 1))

    def test_quotient_violation_detected(self, f2):
        bad = BoundedCochain(f2, 1, "quotient-dual", rule=lambda key: delta(f2, key[0]))
        cycle = flow_cycle(FlowCycleSpec(f2, 1))
        with pytest.raises(ValueError):
            pair(bad, cycle)

    def test_bilinear_in_the_chain(self, all_groups, rng):
        for group in all_groups:
            for _ in range(20):
                phi = random_cochain(rng, group, 1)
                c1 = random_l1_chain(rng, group, 1)
                c2 = random_l1_chain(rng, group, 1)
                scaled = EquivariantChain(group, 1, KIND_L1, {k: v * Fraction(3, 2) for k, v in c1.slice.items()})
                assert pair(phi, chain_sum(c1, c2)) == pair(phi, c1) + pair(phi, c2)
                assert pair(phi, scaled) == Fraction(3, 2) * pair(phi, c1)


class TestAdjointness:
    def test_random_instances(self, all_groups, rng):
        for group in all_groups:
            for _ in range(60):
                m = rng.randint(0, 2)
                phi = random_cochain(rng, group, m)
                c = random_l1_chain(rng, group, m + 1)
                left, right = adjointness_values(phi, c)
                assert left == right

    def test_lift_against_flow_cycle(self, f2):
        cycle = flow_cycle(FlowCycleSpec(f2, 1))
        left, right = adjointness_values(one_lift_cochain(f2), cycle)
        assert left == right == 2

    def test_zero_inputs(self, f2):
        phi = BoundedCochain(f2, 0, "full-dual", entries={})
        zero = EquivariantChain(f2, 1, KIND_L1, {})
        left, right = adjointness_values(phi, zero)
        assert left == right == 0

    def test_degree_contract(self, f2, rng):
        with pytest.raises(ValueError):
            adjointness_values(random_cochain(rng, f2, 1), random_l1_chain(rng, f2, 1))


class TestRepresentativeIndependence:
    def test_coboundary_added_to_cocycle(self, all_groups, rng):
        for group in all_groups:
            for _ in range(10):
                m = rng.randint(1, 2)
                cocycle = random_cochain(rng, group, m - 1).coboundary()
                cycle = random_l1_chain(rng, group, m + 1).boundary()
                dpsi = random_cochain(rng, group, m - 1).coboundary()
                shifted = BoundedCochain(
                    group, m, cocycle.dual, rule=lambda key: cocycle.value_at(key) + dpsi.value_at(key)
                )
                assert pair(shifted, cycle) == pair(cocycle, cycle)

    def test_boundary_added_to_cycle(self, all_groups, rng):
        for group in all_groups:
            for _ in range(10):
                m = rng.randint(1, 2)
                cocycle = random_cochain(rng, group, m - 1).coboundary()
                cycle = random_l1_chain(rng, group, m + 1).boundary()
                extra = random_l1_chain(rng, group, m + 1).boundary()
                assert pair(cocycle, chain_sum(cycle, extra)) == pair(cocycle, cycle)


class TestCertificate:
    def test_flow_certificate_payload(self, f2):
        cert = make_pairing_certificate(
            johnson_cocycle(f2),
            flow_cycle(FlowCycleSpec(f2, 1)),
            cycle_id="tree-flow(a)",
            adjoint_of=one_lift_cochain(f2),
        )
        payload = cert.to_json()
        assert payload["value"] == "2/1"
        assert payload["truncation-radius"] == 1
        assert payload["cochain"] == "johnson-cocycle"
        assert payload["adjointness-witness"]["equal"] is True
        assert payload["adjointness-witness"]["cochain-route"] == "2/1"
        assert payload["adjointness-witness"]["chain-route"] == "2/1"
