"""Boundary and coboundary operators, inflation, and the named (co)cycles."""

from fractions import Fraction

import pytest

from amencert.complexes import (
    DUAL_FULL,
    DUAL_QUOTIENT,
    KIND_L1,
    KIND_LINF,
    BoundedCochain,
    EquivariantChain,
    UfChain,
    connecting_lift_check,
    deflate,
    fundamental_cycle,
    inflate,
    johnson_cocycle,
    one_lift_cochain,
)
from amencert.functions import BoundedFn, FinSuppFn, TreeFlow, delta
from amencert.groups import FreeAbelianGroup
from amencert.sampling import (
    random_cochain,
    random_element,
    random_l1_chain,
    random_linf_chain,
    random_tuple,
    random_uf_chain,
)
from amencert.witnesses import FlowCycleSpec, flow_cycle


def zero_value(chain):
    """The zero of the chain's value type."""
    return FinSuppFn.zero(chain.group) if chain.kind == KIND_L1 else BoundedFn(chain.group)


def chain_value(chain, point):
    """The full equivariant chain at a (degree+1)-tuple: c(g0, ..., gm) = g0 . slice(g0^-1 g1, ..., g0^-1 gm)."""
    group = chain.group
    g0i = group.inv(point[0])
    return chain.slice.get(tuple(group.mul(g0i, g) for g in point[1:]), zero_value(chain)).translate(point[0])


def boundary_oracle_value(chain, out_key, radius=3):
    """Insertion-sum boundary by direct summation over a ball.

    Evaluates the chain at every tuple obtained by inserting a ball element
    into (e, *out_key); the ball radius must cover the slice support, which
    it does for the small random chains used here.
    """
    group = chain.group
    base = (group.identity,) + tuple(out_key)
    total = zero_value(chain)
    for i in range(chain.degree + 1):
        sign = 1 if i % 2 == 0 else -1
        for g in group.ball(radius):
            point = base[:i] + (g,) + base[i:]
            value = chain_value(chain, point)
            if not value.is_zero:
                total = total + (value if sign > 0 else -value)
    return total


class TestL1Boundary:
    def test_single_entry_against_oracle(self, f2):
        a = f2.gens[0]
        chain = EquivariantChain(f2, 1, KIND_L1, {(a,): delta(f2, f2.identity)})
        out = chain.boundary()
        assert out.degree == 0
        expected = delta(f2, f2.inv(a)) - delta(f2, f2.identity)
        assert out.slice[()] == expected
        assert boundary_oracle_value(chain, ()) == expected

    def test_matches_oracle_random(self, all_groups, rng):
        for group in all_groups:
            for _ in range(20):
                chain = random_l1_chain(rng, group, rng.randint(1, 2), max_len=1)
                out = chain.boundary()
                seen = set(out.slice) | {
                    key for key in _candidate_faces(chain)
                }
                for key in seen:
                    assert out.slice.get(key, zero_value(out)) == boundary_oracle_value(chain, key, radius=2)

    def test_boundary_squared_zero(self, all_groups, rng):
        for group in all_groups:
            for _ in range(40):
                chain = random_l1_chain(rng, group, rng.randint(2, 3))
                assert chain.boundary().boundary().is_zero

    def test_flow_cycle_boundary_is_two(self, f2):
        cycle = flow_cycle(FlowCycleSpec(f2, 1))
        out = cycle.boundary()
        assert out.degree == 0
        value = out.slice[()]
        for g in f2.ball(4):
            assert value.evaluate(g) == 2

    def test_degree_zero_rejected(self, f2):
        chain = EquivariantChain(f2, 0, KIND_L1, {(): delta(f2, f2.identity)})
        with pytest.raises(ValueError):
            chain.boundary()

    def test_linf_boundary_squared_vanishes_pointwise(self, f2, rng):
        for _ in range(10):
            chain = random_linf_chain(rng, f2, 2, max_len=1)
            out = chain.boundary().boundary()
            for value in out.slice.values():
                for _ in range(5):
                    assert value.evaluate(random_element(rng, f2)) == 0

    def test_tree_flow_boundary_squared_is_structurally_zero(self, f2):
        # terms with one shift and one leaf merge, so the faces cancel term by term
        a, b = f2.gens[0], f2.gens[1]
        chain = EquivariantChain(f2, 2, KIND_LINF, {
            (a, b): TreeFlow(f2, 1, 1),
            (f2.inv(b), f2.mul(a, a)): TreeFlow(f2, -2, 1).translate(a) + BoundedFn(f2, 3),
        })
        assert chain.boundary().boundary().is_zero


def _candidate_faces(chain):
    """Output keys that could receive a contribution from the slice support."""
    group = chain.group
    faces = set()
    for key in chain.slice:
        g1i = group.inv(key[0])
        faces.add(tuple(group.mul(g1i, g) for g in key[1:]))
        for i in range(chain.degree):
            faces.add(key[:i] + key[i + 1 :])
    return faces


class TestEquivariance:
    def test_reconstruction_matches_translation(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                chain = random_l1_chain(rng, group, rng.randint(1, 2))
                point = random_tuple(rng, group, chain.degree + 1)
                g = random_element(rng, group)
                moved = tuple(group.mul(g, x) for x in point)
                assert chain_value(chain, moved) == chain_value(chain, point).translate(g)

    def test_degenerate_tuples_allowed(self, f2):
        a = f2.gens[0]
        chain = EquivariantChain(f2, 2, KIND_L1, {(a, a): delta(f2, a)})
        assert chain.boundary().boundary().is_zero


class TestBarCoboundary:
    def test_lift_coboundary_is_johnson(self, all_groups):
        for group in all_groups:
            lifted = one_lift_cochain(group).coboundary()
            target = johnson_cocycle(group)
            keys = [(g,) for g in group.ball(3)]
            assert lifted.equal_on(target, keys)

    def test_connecting_check(self, all_groups):
        for group in all_groups:
            assert connecting_lift_check(group)
        assert connecting_lift_check(FreeAbelianGroup(1))

    def test_coboundary_squared_zero(self, all_groups, rng):
        for group in all_groups:
            for _ in range(25):
                phi = random_cochain(rng, group, rng.randint(0, 1))
                dd = phi.coboundary().coboundary()
                for _ in range(4):
                    key = random_tuple(rng, group, dd.degree)
                    assert dd.value_at(key).is_zero

    def test_zero_cochain(self, f2, rng):
        zero = BoundedCochain(f2, 1, DUAL_FULL, entries={})
        d = zero.coboundary()
        for _ in range(5):
            assert d.value_at(random_tuple(rng, f2, 2)).is_zero

    def test_quotient_dual_validation(self, f2):
        with pytest.raises(ValueError):
            BoundedCochain(f2, 0, DUAL_QUOTIENT, entries={(): delta(f2, f2.identity)})
        bad = BoundedCochain(f2, 0, DUAL_QUOTIENT, rule=lambda key: delta(f2, f2.identity))
        with pytest.raises(ValueError):
            bad.value_at(())


class TestJohnson:
    def test_slice_values(self, f2):
        J = johnson_cocycle(f2)
        a = f2.gens[0]
        assert J.value_at((a,)) == delta(f2, a) - delta(f2, f2.identity)
        assert J.value_at((f2.identity,)).is_zero

    def test_values_zero_sum(self, all_groups, rng):
        for group in all_groups:
            J = johnson_cocycle(group)
            for _ in range(20):
                assert sum(J.value_at((random_element(rng, group),)).nums.values()) == 0


class TestUfChains:
    def test_edge_boundary(self, f2):
        a = f2.gens[0]
        edge = UfChain(f2, 1, {(f2.identity, a): 1})
        out = edge.boundary()
        assert (out.den, out.nums) == (1, {(a,): 1, (f2.identity,): -1})

    def test_boundary_squared_zero(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                uf = random_uf_chain(rng, group, rng.randint(2, 3))
                assert uf.boundary().boundary().is_zero

    def test_diameter_bound_preserved(self, all_groups, rng):
        for group in all_groups:
            for _ in range(20):
                uf = random_uf_chain(rng, group, rng.randint(1, 3))
                out = uf.boundary()
                assert out.diameter_bound <= uf.diameter_bound
                for key in out.nums:
                    for i, x in enumerate(key):
                        for y in key[i + 1 :]:
                            assert group.dist(x, y) <= out.diameter_bound

    def test_declared_bound_validated(self, f2):
        far = f2.elem_from_str("a^5")
        with pytest.raises(ValueError):
            UfChain(f2, 1, {(f2.identity, far): 1}, diameter_bound=2)


class TestInflation:
    def test_round_trip(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                uf = random_uf_chain(rng, group, rng.randint(0, 2))
                assert deflate(inflate(uf)) == uf

    def test_chain_map(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                uf = random_uf_chain(rng, group, rng.randint(1, 2))
                assert inflate(uf.boundary()) == inflate(uf).boundary()

    def test_truncated_fundamental_class(self, f2):
        for r in (0, 1, 2):
            ball = f2.ball(r)
            ones = UfChain(f2, 0, {(g,): 1 for g in ball})
            inflated = inflate(ones)
            value = inflated.slice[()]
            target = fundamental_cycle(f2).slice[()]
            for g in ball:
                assert value.evaluate(g) == target.evaluate(g) == 1
            assert deflate(inflated) == ones

    def test_deflate_requires_finite_values(self, f2):
        with pytest.raises(ValueError):
            deflate(fundamental_cycle(f2))
        with pytest.raises(ValueError):
            deflate(flow_cycle(FlowCycleSpec(f2, 1)))


class TestFundamentalCycle:
    def test_constant_one(self, all_groups, rng):
        for group in all_groups:
            value = fundamental_cycle(group).slice[()]
            for _ in range(10):
                assert value.evaluate(random_element(rng, group)) == 1

    def test_translation_invariance(self, f2, rng):
        value = fundamental_cycle(f2).slice[()]
        g = random_element(rng, f2)
        assert value.translate(g) == value


class TestSerialization:
    def test_l1_chain_roundtrip(self, all_groups, rng):
        for group in all_groups:
            chain = random_l1_chain(rng, group, 2)
            assert EquivariantChain.from_json(chain.to_json()) == chain

    def test_linf_chain_roundtrip(self, f2):
        cycle = flow_cycle(FlowCycleSpec(f2, 1))
        assert EquivariantChain.from_json(cycle.to_json()) == cycle

    def test_cochain_roundtrip(self, all_groups, rng):
        for group in all_groups:
            phi = random_cochain(rng, group, 1)
            clone = BoundedCochain.from_json(phi.to_json())
            keys = [(g,) for g in group.ball(2)]
            assert clone.equal_on(phi, keys)

    def test_uf_roundtrip(self, all_groups, rng):
        for group in all_groups:
            uf = random_uf_chain(rng, group, 1)
            assert UfChain.from_json(uf.to_json()) == uf

    def test_rule_backed_not_serializable(self, f2):
        with pytest.raises(ValueError):
            johnson_cocycle(f2).to_json()

    def test_malformed_l1_value_rejected(self, f2):
        data = {
            "group": f2.to_dict(),
            "degree": 1,
            "kind": "l1",
            "entries": [[["a"], {"constant": "1/1"}]],
        }
        with pytest.raises(ValueError):
            EquivariantChain.from_json(data)


F2 = {"family": "free", "rank": 2, "generators": ["a", "b"]}
ONE = {"l1": [["e", "1/1"]]}


def chain_file(entries, degree=1, kind="l1"):
    return {"group": F2, "degree": degree, "kind": kind, "entries": entries}


def cochain_file(entries, degree=1, dual="full-dual"):
    return {"group": F2, "degree": degree, "dual": dual, "entries": entries}


def uf_file(entries, degree=1):
    return {"group": F2, "degree": degree, "entries": entries}


class TestFileEntries:
    """from_json hands what it reads to the constructor, so its error texts are the constructor's."""

    @pytest.mark.parametrize("read, data, error", [
        (EquivariantChain.from_json, chain_file([[["a", "b"], ONE]]), "expected a 1-tuple slice key, got ((1,), (2,))"),
        (EquivariantChain.from_json, chain_file([[["a"], ONE], [["a"], ONE]]), "duplicate slice key ((1,),)"),
        (EquivariantChain.from_json, chain_file([[["a", "b"], ONE], [["a"], {"l1": [["c", "1/1"]]}]]),
         "unknown generator 'c'"),
        (EquivariantChain.from_json, chain_file([[["a", "b"], ONE]], degree=-1), "chain degree must be >= 0"),
        (EquivariantChain.from_json, chain_file([[["a", "b"], {"constant": "1/1"}]], kind="x"),
         "unknown chain kind 'x'"),
        (BoundedCochain.from_json, cochain_file([[["a"], [["e", "1/1"]]], [["a"], [["b", "1/1"]]]]),
         "duplicate cochain key ((1,),)"),
        (BoundedCochain.from_json, cochain_file([[["a"], [["e", "1/1"]]]], dual="quotient-dual"),
         "quotient-dual cochain produced a value with nonzero coefficient sum"),
        (BoundedCochain.from_json, cochain_file([[["a", "b"], []]], dual="x"), "unknown dual flag 'x'"),
        (UfChain.from_json, uf_file([[["a"], "1/1"]]), "expected a 2-tuple slice key, got ((1,),)"),
        (UfChain.from_json, {**uf_file([[["e", "a^2"], "1/1"]]), "diameter-bound": 1},
         "support diameter 2 exceeds the declared bound 1"),
    ])
    def test_error_texts(self, read, data, error):
        with pytest.raises(ValueError) as exc:
            read(data)
        assert str(exc.value) == error

    def test_zero_values_dropped_and_uf_keys_summed(self, f2):
        a = f2.gens[0]
        chain = EquivariantChain.from_json(chain_file([[["a"], {"l1": []}], [["a"], ONE]]))
        assert chain == EquivariantChain(f2, 1, KIND_L1, {(a,): delta(f2, f2.identity)})
        uf = UfChain.from_json(uf_file([[["e", "a"], "1/2"], [["e", "a"], "1/2"], [["e", "b"], "0/1"]]))
        assert uf == UfChain(f2, 1, {(f2.identity, a): 1}) and uf.diameter_bound == 1


class TestChainValidation:
    def test_kind_checked(self, f2):
        with pytest.raises(ValueError):
            EquivariantChain(f2, 1, KIND_L1, {(f2.gens[0],): BoundedFn(f2, 1)})
        with pytest.raises(ValueError):
            EquivariantChain(f2, 1, KIND_LINF, {(f2.gens[0],): delta(f2, f2.identity)})

    def test_key_length_checked(self, f2):
        with pytest.raises(ValueError):
            EquivariantChain(f2, 2, KIND_L1, {(f2.gens[0],): delta(f2, f2.identity)})

    def test_zero_values_dropped(self, f2):
        chain = EquivariantChain(f2, 1, KIND_L1, {(f2.gens[0],): FinSuppFn.zero(f2)})
        assert chain.is_zero

    # a degree or bound that from_json would refuse is refused by the constructor too
    @pytest.mark.parametrize("degree", [True, 1.0, "1", None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda f2, degree: EquivariantChain(f2, degree, KIND_L1),
            lambda f2, degree: BoundedCochain(f2, degree, DUAL_FULL, entries={}),
            lambda f2, degree: UfChain(f2, degree),
        ],
        ids=["chain", "cochain", "uf-chain"],
    )
    def test_degree_must_be_int(self, f2, build, degree):
        with pytest.raises(ValueError, match="degree must be an integer"):
            build(f2, degree)

    @pytest.mark.parametrize("bound", [1.5, True, "2", -1])
    def test_diameter_bound_must_be_nonnegative_int(self, f2, bound):
        with pytest.raises(ValueError, match="diameter bound must be an integer >= 0"):
            UfChain(f2, 1, {(f2.identity, f2.gens[0]): 1}, diameter_bound=bound)
        with pytest.raises(ValueError, match="diameter bound must be an integer >= 0"):
            UfChain(f2, 1, diameter_bound=bound)
