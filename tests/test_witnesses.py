"""The free-group flow-cycle witness and its certificates."""

import functools
from collections import Counter
from fractions import Fraction

import pytest

from amencert import witnesses
from amencert.cli import _flow_json
from amencert.functions import ray_first_letter
from amencert.groups import MAX_RANK, FreeAbelianGroup, FreeGroup, free_ball_size
from amencert.witnesses import (
    FlowCycleSpec,
    FlowVerification,
    check_flow_sweep,
    flow_cycle,
    flow_pairing_certificate,
    flow_value,
    verify_flow_cycle,
)


def geodesic_first_letter(group, g, ray, extra=2):
    """Oracle: first letter of the reduced word of g * ray^N for large N.

    Uses the group's word multiplication (a different code path from the
    trailing-strip shortcut); N exceeds |g| so the finite product already
    agrees with the infinite ray.
    """
    n = len(g) + extra
    target = group.mul(g, (ray,) * n)
    return target[0]


def bfs_first_edge(group, target):
    """Oracle: first step of the shortest path from e to target, by plain BFS."""
    start = group.identity
    if target == start:
        raise ValueError("no first edge from e to itself")
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for _, s in group.letters():
                y = group.mul(x, s)
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
                if y == target:
                    node = y
                    while parent[node] != start:
                        node = parent[node]
                    return node[0]
        frontier = nxt
    raise AssertionError("unreachable")


def oracle_sums(group, flow, h):
    """(outgoing, incoming) at h through `flow` and group.mul."""
    letters = [s for letter in range(1, group.rank + 1) for s in (letter, -letter)]
    outgoing = sum(flow(s, h) for s in letters)
    incoming = sum(flow(-s, group.mul((-s,), h)) for s in letters)
    return outgoing, incoming


def pair_loop_report(fs, radius, flow):
    """Oracle: the sweep as one oracle round per pair (k, g) of the ball.

    Returns the report and, built on their own, the certificate's failure
    rows: the first 20, with boundary = incoming - outgoing.
    """
    group = fs.group
    ball = group.ball(radius)
    failures, rows = [], []
    for k in ball:
        ki = group.inv(k)
        for g in ball:
            outgoing, incoming = oracle_sums(group, flow, group.mul(ki, g))
            if outgoing != 1 or incoming != 2 * group.rank - 1:
                failures.append((k, g, outgoing, incoming))
                rows.append(
                    {
                        "base": group.elem_to_json(k),
                        "point": group.elem_to_json(g),
                        "outgoing": outgoing,
                        "incoming": incoming,
                        "boundary": incoming - outgoing,
                    }
                )
    report = FlowVerification(fs, radius, len(ball) ** 2, 1, 2 * group.rank - 1, 2 * group.rank - 2, failures)
    return report, rows[:20]


def flow_type(h, ray):
    """T(h) = (h[:2], pure(h), pure(h[1:])), pure meaning that every letter is ray^-1."""
    return h[:2], all(x == -ray for x in h), all(x == -ray for x in h[1:])


def expected_flow_pairing(rank):
    """The pairing value forced by the incoming/outgoing flow counts."""
    return Fraction(2 * rank - 2)


def one_line_value_error(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert "\n" not in str(info.value)


def flipped_at(fs, edge, word):
    """The flow oracle with the value of `edge` at the point `word` flipped."""
    bad_point = fs.group.elem_from_json(word)

    def perturbed(s, g):
        value = flow_value(fs, s, g)
        return 1 - value if s == edge and g == bad_point else value

    return perturbed


class TestFlowValue:
    def test_base_point_examples(self, f2):
        fs = FlowCycleSpec(f2, 1)
        assert flow_value(fs, 1, f2.identity) == 1
        assert flow_value(fs, 2, f2.identity) == 0

    def test_stripping_example(self, f2):
        fs = FlowCycleSpec(f2, 1)
        g = f2.elem_from_json("b*a^-3")
        assert flow_value(fs, 1, g) == 0
        assert flow_value(fs, 2, g) == 1

    def test_matches_reduction_oracle(self, f2, rng):
        from amencert.sampling import random_element

        fs = FlowCycleSpec(f2, 1)
        letters = (1, -1, 2, -2)
        for _ in range(300):
            g = random_element(rng, f2, max_len=6)
            first = geodesic_first_letter(f2, g, 1, extra=len(g) + 2)
            for s in letters:
                assert flow_value(fs, s, g) == (1 if first == s else 0)

    def test_matches_bfs_oracle_small(self, f2):
        fs = FlowCycleSpec(f2, 1)
        for g in f2.ball(2):
            target = f2.mul(g, (1,) * (len(g) + 4))
            first = bfs_first_edge(f2, target)
            for s in (1, -1, 2, -2):
                assert flow_value(fs, s, g) == (1 if first == s else 0)

    def test_invalid_edge_letter(self, f2):
        fs = FlowCycleSpec(f2, 1)
        with pytest.raises(ValueError):
            flow_value(fs, 0, f2.identity)
        with pytest.raises(ValueError):
            flow_value(fs, 3, f2.identity)


class TestFlowCycleSpec:
    def test_requires_free_group(self):
        with pytest.raises(ValueError):
            FlowCycleSpec(FreeAbelianGroup(2), 1)

    def test_ray_must_be_generator(self, f2):
        with pytest.raises(ValueError):
            FlowCycleSpec(f2, 3)
        with pytest.raises(ValueError):
            FlowCycleSpec(f2, 0)

    @pytest.mark.parametrize("ray", [True, 1.0, 2.5, "1", None])
    def test_ray_must_be_int(self, f2, ray):
        one_line_value_error(FlowCycleSpec, f2, ray)

    def test_ray_label(self, f2):
        assert FlowCycleSpec(f2, 2).ray_label == "b"


class TestUniqueEdges:
    def test_exactly_one_outgoing_and_three_incoming(self, f2):
        fs = FlowCycleSpec(f2, 1)
        letters = (1, -1, 2, -2)
        for g in f2.ball(5):
            outgoing = [s for s in letters if flow_value(fs, s, g)]
            assert len(outgoing) == 1
            incoming = [
                s for s in letters if flow_value(fs, -s, f2.mul((-s,), g))
            ]
            assert len(incoming) == 3


class TestVerifyFlowCycle:
    def test_radius_zero(self, f2):
        report = verify_flow_cycle(FlowCycleSpec(f2, 1), 0)
        assert report.passed
        assert report.points_checked == 1
        assert report.boundary_constant == 2

    def test_radius_three_all_points(self, f2):
        report = verify_flow_cycle(FlowCycleSpec(f2, 1), 3)
        assert report.passed
        assert report.points_checked == 53**2

    def test_ray_b(self, f2):
        assert verify_flow_cycle(FlowCycleSpec(f2, 2), 2).passed

    def test_rank_three_constants(self):
        report = verify_flow_cycle(FlowCycleSpec(FreeGroup(3), 1), 2)
        assert report.passed
        assert report.incoming_constant == 5
        assert report.boundary_constant == 4

    def test_perturbation_detected(self, f2):
        fs = FlowCycleSpec(f2, 1)
        bad_point = f2.elem_from_json("a*b")

        def perturbed(s, g):
            value = flow_value(fs, s, g)
            if s == 2 and g == bad_point:
                return 1 - value
            return value

        report = verify_flow_cycle(fs, 2, flow=perturbed)
        assert not report.passed
        assert report.failures

    def test_negative_radius_rejected(self, f2):
        with pytest.raises(ValueError):
            verify_flow_cycle(FlowCycleSpec(f2, 1), -1)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("edge", [2, -2])
    @pytest.mark.parametrize("word", ["a*b", "b*a^-1"])
    def test_perturbed_report_matches_pair_loop(self, rank, edge, word):
        group = FreeGroup(rank)
        for ray in range(1, rank + 1):
            fs = FlowCycleSpec(group, ray)
            flow = flipped_at(fs, edge, word)
            report = verify_flow_cycle(fs, 2, flow=flow)
            expected, rows = pair_loop_report(fs, 2, flow)
            assert expected.failures and report.failures == expected.failures
            assert _flow_json(report) == _flow_json(expected)
            assert _flow_json(report)["failures"] == rows

    def test_rows_past_the_twentieth_are_not_written(self, f2):
        fs = FlowCycleSpec(f2, 1)
        report = verify_flow_cycle(fs, 2, flow=lambda s, g: 0)
        expected, rows = pair_loop_report(fs, 2, lambda s, g: 0)
        assert len(report.failures) == 17**2 and report.failures == expected.failures
        assert len(rows) == 20 and _flow_json(report)["failures"] == rows


class TestOracleWords:
    """The sweep hands the oracle only reduced words and validates none of them."""

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_every_word_is_reduced(self, rank, radius):
        group = FreeGroup(rank)
        fs = FlowCycleSpec(group, 1)
        seen = []

        def checked(s, g):
            assert group.check(g) == g
            seen.append(g)
            return flow_value(fs, s, g)

        assert verify_flow_cycle(fs, radius, flow=checked).passed
        assert len(seen) == 4 * rank * check_flow_sweep(rank, radius)

    def test_default_oracle_makes_no_check_calls(self, monkeypatch):
        fs = FlowCycleSpec(FreeGroup(2), 1)
        calls = []
        check = FreeGroup.check

        def counted(self, a):
            calls.append(a)
            return check(self, a)

        monkeypatch.setattr(FreeGroup, "check", counted)
        assert verify_flow_cycle(fs, 2).passed
        assert calls == []

    @pytest.mark.parametrize("rank, radius", [(2, 2), (3, 1)])
    def test_incoming_shift_is_the_product(self, rank, radius):
        # the sweep's one-letter rule against group.mul, over every h in B_2r
        group = FreeGroup(rank)
        fs = FlowCycleSpec(group, 1)
        calls = Counter()

        def recorded(s, g):
            calls[s, g] += 1
            return flow_value(fs, s, g)

        verify_flow_cycle(fs, radius, flow=recorded)
        letters = [s for letter in range(1, rank + 1) for s in (letter, -letter)]
        expected = Counter()
        for h in group.ball(2 * radius):
            for s in letters:
                expected[s, h] += 1
                expected[-s, group.mul((-s,), h)] += 1
        assert calls == expected


class TestDefaultRoute:
    """Without `flow`, the sweep reads ray_first_letter directly."""

    @pytest.mark.parametrize(
        "rank, radius",
        [(1, r) for r in range(21)] + [(2, r) for r in range(5)] + [(3, r) for r in range(4)],
    )
    def test_matches_the_flow_value_oracle(self, rank, radius):
        group = FreeGroup(rank)
        for ray in range(1, rank + 1) if radius <= 3 else (rank,):
            fs = FlowCycleSpec(group, ray)
            expected = verify_flow_cycle(fs, radius, flow=functools.partial(flow_value, fs))
            assert _flow_json(verify_flow_cycle(fs, radius)) == _flow_json(expected)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize(
        "word, wrong",
        [("b*a^-1", 1), ("b*a^-1", -2), ("a*b", 0), ("a*b*a", 2), ("a*b*a", 0), ("b*a^-1*b", 1), ("a^-2*b", 0)],
    )
    def test_wrong_head_is_caught(self, monkeypatch, rank, word, wrong):
        group = FreeGroup(rank)
        fs = FlowCycleSpec(group, 1)
        bad_point = group.elem_from_json(word)

        def perturbed_head(g, ray):
            return wrong if g == bad_point else ray_first_letter(g, ray)

        def perturbed_flow(s, g):
            return 1 if perturbed_head(g, fs.ray) == s else 0

        expected, rows = pair_loop_report(fs, 2, perturbed_flow)
        monkeypatch.setattr(witnesses, "ray_first_letter", perturbed_head)
        report = verify_flow_cycle(fs, 2)
        assert expected.failures and report.failures == expected.failures
        assert _flow_json(report) == _flow_json(expected)
        assert _flow_json(report)["failures"] == rows

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_one_head_per_word_and_incoming_point(self, monkeypatch, rank, radius):
        # (2 rank + 1) evaluations per swept word: the |B_2| + 2 rank - 1 words of the type table
        # (|B_2| alone in rank 1) when 2r >= 4, else the |B_2r| words of the ball
        calls = Counter()

        def counted(g, ray):
            calls[g] += 1
            return ray_first_letter(g, ray)

        monkeypatch.setattr(witnesses, "ray_first_letter", counted)
        assert verify_flow_cycle(FlowCycleSpec(FreeGroup(rank), 1), radius).passed
        if radius >= 2:
            words = free_ball_size(rank, 2, witnesses.MAX_FLOW_WORDS) + (2 * rank - 1 if rank > 1 else 0)
        else:
            words = free_ball_size(rank, 2 * radius, witnesses.MAX_FLOW_WORDS)
        assert sum(calls.values()) == (2 * rank + 1) * words

    def test_ball_is_built_only_for_failures(self, f2):
        fs = FlowCycleSpec(f2, 1)
        # the passing table sweep reads B_2 alone; the oracle route reads B_2r
        assert verify_flow_cycle(fs, 3).points_checked == 53**2
        assert len(f2._levels) == 3
        assert verify_flow_cycle(fs, 2, flow=flipped_at(fs, 2, "a*b")).failures
        assert len(f2._levels) == 5


class TestConeTypes:
    """The default sweep's type argument, against brute force over longer words."""

    @pytest.mark.parametrize("rank, length", [(1, 6), (2, 6), (3, 5)])
    def test_sums_are_a_function_of_the_type(self, rank, length):
        group = FreeGroup(rank)
        for ray in range(1, rank + 1):
            flow = functools.partial(flow_value, FlowCycleSpec(group, ray))
            short = {flow_type(h, ray): oracle_sums(group, flow, h) for h in group.ball(3)}
            for h in group.ball(length):
                assert oracle_sums(group, flow, h) == short[flow_type(h, ray)], h

    @pytest.mark.parametrize(
        "rank, radius", [(1, r) for r in range(6)] + [(2, r) for r in range(4)] + [(3, r) for r in range(3)]
    )
    def test_the_type_sweep_finds_every_type(self, rank, radius):
        # the default route sweeps the type table when 2r >= 4, else B_2r itself
        group = FreeGroup(rank)
        ball = group.ball(2 * radius)
        for ray in range(1, rank + 1):
            swept = witnesses._type_table(group, ray) if radius >= 2 else ball
            assert set(swept) <= set(ball)
            assert {flow_type(h, ray) for h in swept} == {flow_type(h, ray) for h in ball}

    @pytest.mark.parametrize("rank, length", [(1, 6), (2, 4), (3, 3), (4, 3)])
    def test_the_table_holds_every_type(self, rank, length):
        # against brute force over a ball that holds every type; a table that drops one
        # (x, t^-1, y0) word, or takes y0 = t^-1, misses the type ((x, t^-1), False, False)
        group = FreeGroup(rank)
        for ray in range(1, rank + 1):
            table = witnesses._type_table(group, ray)
            assert len(set(table)) == len(table) == 4 * rank**2 + 2 * rank - (1 if rank == 1 else 0)
            assert all(group.check(h) == h and len(h) <= 3 for h in table)
            found = Counter(flow_type(h, ray) for h in table)
            assert set(found) == {flow_type(h, ray) for h in group.ball(length)}
            # past B_2, one word per type that B_2 does not show
            assert all(found[flow_type(h, ray)] == 1 for h in table if len(h) == 3)

    def test_depth_two_is_not_enough(self):
        # (x, a^-1, y) with y not a or a^-1 first occurs at length 3
        f2 = FreeGroup(2)
        shallow = {flow_type(h, 1) for h in f2.ball(2)}
        missing = {flow_type(h, 1) for h in f2.ball(4)} - shallow
        assert missing == {((x, -1), False, False) for x in (-1, 2, -2)}


class TestReducedWords:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_words_are_the_quotients_of_the_ball(self, rank, radius):
        group = FreeGroup(rank)
        ball = group.ball(radius)
        words = FreeGroup(rank).ball(2 * radius)
        assert len(words) == len(set(words))
        assert set(words) == {group.mul(group.inv(k), g) for k in ball for g in ball}


class TestSweepGuard:
    def test_ball_sizes(self):
        # 1 + rank ((2 rank - 1)^(2r) - 1) / (rank - 1); 4r + 1 in rank 1
        assert check_flow_sweep(2, 1) == 17
        assert check_flow_sweep(2, 4) == 13121
        assert check_flow_sweep(2, 5) == 118097
        assert check_flow_sweep(3, 3) == 23437
        assert check_flow_sweep(1, 3) == 13
        assert check_flow_sweep(4, 0) == 1
        for rank in (1, 2, 3):
            for radius in range(4):
                assert check_flow_sweep(rank, radius) == len(FreeGroup(rank).ball(2 * radius))

    @pytest.mark.parametrize(
        "rank, radius",
        [(2, 6), (3, 5), (MAX_RANK + 1, 1), (10**9, 1), (2, 10**6), (1, 10**6), (0, 1), (2, -1)],
    )
    def test_rejects_past_caps(self, rank, radius):
        with pytest.raises(ValueError):
            check_flow_sweep(rank, radius)

    @pytest.mark.parametrize(
        "rank, radius", [(2, True), (2, False), (2, 2.5), (2, 1.0), (True, 1), (2.0, 1), ("2", 1), (2, None)]
    )
    def test_rejects_non_int(self, rank, radius):
        one_line_value_error(check_flow_sweep, rank, radius)

    @pytest.mark.parametrize("radius", [True, 2.5, 1.0])
    def test_verify_rejects_non_int_radius(self, f2, radius):
        one_line_value_error(verify_flow_cycle, FlowCycleSpec(f2, 1), radius)

    def test_verify_rejects_before_ball(self, f2):
        with pytest.raises(ValueError):
            verify_flow_cycle(FlowCycleSpec(f2, 1), 6)
        assert len(f2._levels) == 1


class TestPairingCertificate:
    def test_default_ray_value_two(self, f2):
        cert = flow_pairing_certificate(FlowCycleSpec(f2, 1))
        assert cert.value == 2
        assert cert.adjointness == (cert.value, cert.value)

    def test_other_ray_same_value(self, f2):
        assert flow_pairing_certificate(FlowCycleSpec(f2, 2)).value == 2

    def test_rank_three_value_four(self):
        cert = flow_pairing_certificate(FlowCycleSpec(FreeGroup(3), 1))
        assert cert.value == 4

    def test_expected_value_formula(self):
        for rank in (1, 2, 3, 4):
            cert = flow_pairing_certificate(FlowCycleSpec(FreeGroup(rank), 1))
            assert cert.value == expected_flow_pairing(rank) == 2 * rank - 2

    def test_cycle_slice_support(self, f2):
        cycle = flow_cycle(FlowCycleSpec(f2, 1))
        assert set(cycle.slice) == {((1,),), ((-1,),), ((2,),), ((-2,),)}
