"""Finitely supported values as integer numerators over one denominator.

Every route that builds a `FinSuppFn` or a `UfChain` must leave the one
canonical form: den > 0, no zero numerator, gcd(den, *nums) = 1. The sum
is checked against the `Fraction`-dict sum it replaced, kept here as an
oracle, on 200 distinct prime denominators too, and the common
denominator's guard is checked on values with 1,000 and 2,000 of them.
"""

import functools
import gc
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import takewhile
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from amencert.amenability import indicator
from amencert.complexes import (
    DUAL_FULL, KIND_L1, KIND_LINF, BoundedCochain, EquivariantChain, UfChain, deflate, inflate)
from amencert.functions import MAX_RATIONAL_DIGITS, BoundedFn, FinSuppFn, delta, frac_str, pair_eval, tree_flow
from amencert.groups import FreeAbelianGroup, FreeGroup, cyclic_group
from amencert.pairing import pair
from amencert.witnesses import FlowCycleSpec, flow_pairing_certificate

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
GROUPS = [FreeGroup(2), FreeAbelianGroup(2), cyclic_group(3)]
GUARD = f"a common denominator passes the {MAX_RATIONAL_DIGITS}-digit limit"

# small numerators over denominators with shared factors, so sums cancel and reduce often
numerators = st.integers(-6, 6)
denominators = st.sampled_from([1, 2, 3, 4, 6, 9, 12])
rationals = st.builds(Fraction, numerators, denominators)


def assert_canonical(den, nums):
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert gcd(den, *nums.values()) == 1


def as_fractions(den, nums):
    return {k: Fraction(n, den) for k, n in nums.items()}


def oracle_combine(group, terms):
    """FinSuppFn.combine as it summed {element: Fraction} dicts: c * v(k) added at g k, zero sums dropped."""
    out = {}
    for c, g, v in terms:
        for k, x in v.items():
            key = k if g is None else group.mul(g, k)
            total = out.get(key, 0) + c * x
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


@st.composite
def values(draw, group, near):
    return FinSuppFn(group, draw(st.lists(st.tuples(near, rationals), max_size=4)))


@st.composite
def drawn(draw):
    """A group, elements near e, and three values built by the constructor."""
    group = draw(st.sampled_from(GROUPS))
    near = st.sampled_from(group.ball(1))
    return group, near, [draw(values(group, near)) for _ in range(3)]


class TestCanonicalForm:
    @SETTINGS
    @given(drawn(), st.data())
    def test_functions_built_by_every_route(self, drawn, data):
        group, near, vs = drawn
        terms = data.draw(st.lists(
            st.tuples(st.sampled_from([0, 1, -1]) | rationals, st.none() | near, st.sampled_from(vs)), max_size=5))
        pairs = data.draw(st.lists(st.tuples(near, numerators, st.integers(1, 12)), max_size=6))
        read = FinSuppFn.from_pairs(group, [[group.elem_to_json(g), f"{p}/{q}"] for g, p, q in pairs])
        built = [
            *vs, read, FinSuppFn.combine(group, terms), vs[0] + vs[1] - vs[2], Fraction(6, 5) * vs[0],
            vs[0].translate(data.draw(near)), delta(group, data.draw(near)),
            indicator(group, data.draw(st.lists(near, min_size=1))), FinSuppFn.zero(group),
        ]
        for f in built:
            assert_canonical(f.den, f.nums)
        assert as_fractions(read.den, read.nums) == oracle_combine(
            group, [(Fraction(p, q), None, delta(group, g)) for g, p, q in pairs])

    @SETTINGS
    @given(st.sampled_from(GROUPS), st.data())
    def test_long_reads_scale_each_numerator_once(self, group, data):
        # many keys and denominators up to 60: the lcm still grows after many keys are read, and the
        # second pass scales every numerator by its own factor, with repeated keys and cancellation
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(group.ball(2)), numerators, st.integers(1, 60)), min_size=40, max_size=120))
        read = FinSuppFn.from_pairs(group, [[group.elem_to_json(g), f"{p}/{q}"] for g, p, q in pairs])
        assert_canonical(read.den, read.nums)
        assert as_fractions(read.den, read.nums) == oracle_combine(
            group, [(Fraction(p, q), None, delta(group, g)) for g, p, q in pairs])

    @SETTINGS
    @given(st.sampled_from(GROUPS), st.data())
    def test_chains_built_by_every_route(self, group, data):
        degree = data.draw(st.integers(1, 2))
        keys = st.tuples(*[st.sampled_from(group.ball(1))] * (degree + 1))
        uf = UfChain(group, degree, data.draw(st.lists(st.tuples(keys, rationals), max_size=6)))
        up = inflate(uf)
        chains = [uf, uf.boundary(), deflate(up), deflate(up.boundary())]
        for chain in chains:
            assert_canonical(chain.den, chain.nums)
        fns = [v.fn for v in up.slice.values()] + [v.fn for v in up.boundary().slice.values()]
        near = st.sampled_from(group.ball(1))
        l1 = EquivariantChain(group, degree, KIND_L1, {
            k[1:]: v for k, v in data.draw(st.lists(st.tuples(keys, values(group, near)), max_size=3)) if v})
        fns += list(l1.boundary().slice.values())
        for f in fns:
            assert_canonical(f.den, f.nums)
        assert deflate(up) == uf

    @SETTINGS
    @given(st.sampled_from(GROUPS), st.data())
    def test_uf_boundary_is_the_fraction_sum_of_its_faces(self, group, data):
        keys = st.tuples(*[st.sampled_from(group.ball(1))] * 3)
        uf = UfChain(group, 2, data.draw(st.lists(st.tuples(keys, rationals), max_size=6)))
        want = {}
        for key, c in as_fractions(uf.den, uf.nums).items():
            for i in range(3):
                face = key[:i] + key[i + 1:]
                want[face] = want.get(face, 0) + (-c if i % 2 else c)
        out = uf.boundary()
        assert as_fractions(out.den, out.nums) == {k: c for k, c in want.items() if c}

    @SETTINGS
    @given(st.sampled_from(GROUPS), st.data())
    def test_deflate_is_the_constructor_on_its_tuples(self, group, data):
        # slice values over unrelated denominators: deflate writes each scaled numerator once and
        # divides by no gcd, the public constructor sums the same tuples as Fractions and reduces
        degree = data.draw(st.integers(0, 2))
        near = st.sampled_from(group.ball(1))
        entries = data.draw(st.dictionaries(st.tuples(*[near] * degree), values(group, near), max_size=4))
        chain = EquivariantChain(group, degree, KIND_LINF, {k: BoundedFn(group, 0, v) for k, v in entries.items()})
        tuples = [((group.inv(h),) + tuple(group.mul(group.inv(h), g) for g in k), c)
                  for k, value in chain.slice.items() for h, c in value.fn.items()]
        out, want = deflate(chain), UfChain(group, degree, tuples)
        assert_canonical(out.den, out.nums)
        assert out == want and out.diameter_bound == want.diameter_bound


READ_GROUPS = [*map(FreeGroup, (1, 2, 3)), *map(FreeAbelianGroup, (1, 2, 3)), *map(cyclic_group, (1, 2, 5))]
# few distinct strings, so the reader meets most coefficients again: equal values written
# differently, zero, and each nonzero value's negative written more than one way
POOL = ["1/2", "2/4", "0.5", "5e-1", "-1/2", "-2/4", "0/1", "1/3", "-2/6", "-1/3", "3", "-3/1"]


class TestDistinctCoefficients:
    @SETTINGS
    @given(st.sampled_from(READ_GROUPS), st.data())
    def test_reads_from_a_small_pool_of_strings(self, group, data):
        near = st.sampled_from(group.ball(1))
        pairs = data.draw(st.lists(st.tuples(near, st.sampled_from(POOL)), min_size=1, max_size=12))
        # the negative of a drawn pair, often in another spelling, cancels that pair's share of its element
        for g, c in data.draw(st.lists(st.sampled_from(pairs), max_size=3)):
            pairs.append((g, data.draw(st.sampled_from([s for s in POOL if Fraction(s) == -Fraction(c)]))))
        pairs = data.draw(st.permutations(pairs))
        want = {}
        for g, c in pairs:
            want[g] = want.get(g, 0) + Fraction(c)
        want = {g: c for g, c in want.items() if c}
        read = FinSuppFn.from_pairs(group, [[group.elem_to_json(g), c] for g, c in pairs])
        chain = UfChain.from_json({"group": group.to_dict(), "degree": 0,
                                   "entries": [[[group.elem_to_json(g)], c] for g, c in pairs]})
        for den, nums in [(read.den, read.nums), (chain.den, {g: n for (g,), n in chain.nums.items()})]:
            assert_canonical(den, nums)
            assert as_fractions(den, nums) == want

    @pytest.mark.parametrize("group, element, twin, text", [
        (cyclic_group(5), True, 1, "finite-group element must be an index 0..4, got True"),
        (FreeAbelianGroup(2), [1, True], [1, 1], "non-integer coordinate in (1, True)"),
    ])
    def test_a_bool_element_is_refused(self, group, element, twin, text):
        # the int it equals, read first with the same coefficient, does not let it through
        with pytest.raises(ValueError) as info:
            FinSuppFn.from_pairs(group, [[twin, "1/2"], [element, "1/2"]])
        assert str(info.value) == text


@pytest.mark.parametrize("group", GROUPS, ids=["F2", "Z2", "Z3"])
class TestFractionOracle:
    @SETTINGS
    @given(data=st.data())
    def test_combine_is_the_fraction_dict_sum(self, group, data):
        near = st.sampled_from(group.ball(1))
        vs = [data.draw(values(group, near)) for _ in range(3)]
        terms = data.draw(st.lists(
            st.tuples(st.sampled_from([0, 1, -1]) | rationals, st.none() | near, st.sampled_from(vs)), max_size=6))
        total = FinSuppFn.combine(group, terms)
        assert dict(total.items()) == oracle_combine(group, terms)

    @SETTINGS
    @given(data=st.data())
    def test_combine_meets_every_kind_of_term(self, group, data):
        # each draw holds a zero coefficient, an empty value, int 1 and -1 and a Fraction, each with
        # and without a shift, plus the negation of one drawn term, so that some keys cancel
        near = st.sampled_from(group.ball(1))
        vs = [data.draw(values(group, near)) for _ in range(3)]
        shift = data.draw(near)
        terms = [(c, g, data.draw(st.sampled_from(vs))) for c in (0, 1, -1, data.draw(rationals.filter(bool)))
                 for g in (None, shift)]
        terms += [(data.draw(st.sampled_from([0, 1, -1]) | rationals), g, FinSuppFn.zero(group)) for g in (None, shift)]
        c, g, v = data.draw(st.sampled_from(terms))
        terms.append((-c, g, v))
        terms = data.draw(st.permutations(terms))
        total = FinSuppFn.combine(group, terms)
        assert_canonical(total.den, total.nums)
        assert dict(total.items()) == oracle_combine(group, terms)

    @SETTINGS
    @given(data=st.data())
    def test_pair_eval_is_the_fraction_sum(self, group, data):
        near = st.sampled_from(group.ball(1))
        phi, f = data.draw(values(group, near)), data.draw(values(group, near))
        const = data.draw(rationals)
        assert pair_eval(phi, f) == sum((c * f.evaluate(g) for g, c in phi.items()), Fraction(0))
        v = BoundedFn(group, const, f)
        if isinstance(group, FreeGroup):  # a tree-flow term takes the indicator route
            flow = tree_flow(group, data.draw(st.sampled_from([1, -1, 2, -2])), data.draw(st.sampled_from([1, 2])))
            v = v + data.draw(rationals) * flow.translate(data.draw(near))
        assert pair_eval(phi, v) == sum((c * v.evaluate(g) for g, c in phi.items()), Fraction(0))

    @SETTINGS
    @given(data=st.data())
    def test_pair_is_the_fraction_sum_of_pair_eval(self, group, data):
        # l1 and linf chains against a full-dual cochain; on F_2 the linf values carry constants and
        # shifted tree-flow terms, so every part of the integer kernel is summed across the keys
        degree = data.draw(st.integers(1, 2))
        near = st.sampled_from(group.ball(1))
        keys = st.tuples(*[near] * degree)
        phi = BoundedCochain(group, degree, DUAL_FULL, entries=dict(
            data.draw(st.lists(st.tuples(keys, values(group, near)), max_size=6))))

        def bounded(f):
            v = BoundedFn(group, data.draw(rationals), f)
            if isinstance(group, FreeGroup):
                for _ in range(data.draw(st.integers(0, 2))):
                    edge, ray = data.draw(st.sampled_from([1, -1, 2, -2])), data.draw(st.sampled_from([1, 2]))
                    flow = tree_flow(group, edge, ray)
                    v = v + data.draw(rationals) * flow.translate(data.draw(near))
            return v

        entries = dict(data.draw(st.lists(st.tuples(keys, values(group, near)), max_size=6)))
        for kind, wrap in ((KIND_L1, lambda f: f), (KIND_LINF, bounded)):
            c = EquivariantChain(group, degree, kind, {key: wrap(f) for key, f in entries.items()})
            want = sum((pair_eval(phi.value_at(key), value) for key, value in c.slice.items()), Fraction(0))
            assert pair(phi, c) == want == sum((x * value.evaluate(g) for key, value in c.slice.items()
                                                for g, x in phi.value_at(key).items()), Fraction(0))


@functools.cache
def primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in takewhile(lambda p: p * p <= k, out)):
            out.append(k)
        k += 1
    return out


Z1 = FreeAbelianGroup(1)


def prime_pairs(count):
    """[k], "1/p_k" for the first `count` primes: the common denominator is their product."""
    return [[[k], f"1/{p}"] for k, p in enumerate(primes(count))]


class TestDenominatorGuard:
    def test_1000_primes_read_sum_and_print_as_fractions(self):
        f = FinSuppFn.from_pairs(Z1, prime_pairs(1000))
        assert len(str(f.den)) < MAX_RATIONAL_DIGITS
        total = f + f.translate((1,))
        want = {}
        for k, p in enumerate(primes(1000)):
            for shift in (0, 1):
                want[(k + shift,)] = want.get((k + shift,), 0) + Fraction(1, p)
        assert total.to_pairs() == [[list(k), frac_str(c)] for k, c in sorted(want.items())]

    def test_200_primes_sum_as_fractions(self):
        # numerators of a few hundred digits over distinct prime denominators: the gcd of the sum
        # reaches 1 by the numerators' sum, and the result is the Fraction sum in canonical form
        f = FinSuppFn.from_pairs(Z1, [[[k], f"{k % 7 - 3}/{p}"] for k, p in enumerate(primes(200))])
        for sign in (1, -1):
            terms = [(1, None, f), (sign, (1,), f)]
            total = FinSuppFn.combine(Z1, terms)
            assert_canonical(total.den, total.nums)
            assert dict(total.items()) == oracle_combine(Z1, terms)

    def test_the_readers_refuse_2000_primes(self):
        with pytest.raises(ValueError, match=GUARD):
            FinSuppFn.from_pairs(Z1, prime_pairs(2000))
        with pytest.raises(ValueError, match=GUARD):
            UfChain(Z1, 0, {((k,),): Fraction(1, p) for k, p in enumerate(primes(2000))})

    def test_combine_refuses_a_sum_past_the_limit(self):
        ps = primes(1400)
        low = FinSuppFn(Z1, {(k,): Fraction(1, p) for k, p in enumerate(ps[:700])})
        high = FinSuppFn(Z1, {(k,): Fraction(1, p) for k, p in enumerate(ps[700:])})
        with pytest.raises(ValueError, match=GUARD):
            low + high

    def test_deflate_refuses_a_sum_past_the_limit(self):
        # 1,400 slice values 1/p delta_e, each canonical alone: only their lcm passes the limit
        chain = EquivariantChain(Z1, 1, KIND_LINF, {
            ((k,),): BoundedFn(Z1, 0, FinSuppFn(Z1, {(0,): Fraction(1, p)})) for k, p in enumerate(primes(1400))})
        with pytest.raises(ValueError, match=GUARD):
            deflate(chain)

    def prime_pairing(self, count, repeats):
        """Degree-1 keys (k,) for k < count * repeats; at each the cochain is delta_e and the l1 chain is
        1/p delta_e, p the (k mod count)-th prime: each prime is the denominator of `repeats` keys."""
        ps = primes(count)
        n = count * repeats
        phi = BoundedCochain(Z1, 1, DUAL_FULL, entries={((k,),): delta(Z1, (0,)) for k in range(n)})
        c = EquivariantChain(Z1, 1, KIND_L1, {((k,),): FinSuppFn(Z1, {(0,): Fraction(1, ps[k % count])})
                                             for k in range(n)})
        return phi, c, repeats * sum(Fraction(1, p) for p in ps)

    def test_pair_sums_1000_primes_under_one_lcm(self):
        # each prime is the denominator of two keys: their lcm, the product of the 1,000 primes, is
        # under the limit, and the product of the 2,000 denominators is not
        phi, c, want = self.prime_pairing(1000, 2)
        assert len(str(want.denominator)) < MAX_RATIONAL_DIGITS < 2 * len(str(want.denominator))
        assert pair(phi, c) == want

    def test_pair_refuses_a_sum_past_the_limit(self):
        phi, c, _ = self.prime_pairing(1400, 1)
        with pytest.raises(ValueError, match=GUARD):
            pair(phi, c)

    def write(self, tmp_path, count):
        group = tmp_path / "z1.json"
        group.write_text(json.dumps(Z1.to_dict()))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(prime_pairs(count)))
        return str(group), str(weights)

    def test_cli_refuses_2000_primes_in_one_line(self, tmp_path):
        group, weights = self.write(tmp_path, 2000)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "amencert.cli", "reiter", "--group", group, "--set", weights],
                              capture_output=True, text=True)
        assert time.perf_counter() - start < 0.5
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {GUARD}\n"

    def test_cli_prints_1000_primes_as_fractions(self, tmp_path):
        group, weights = self.write(tmp_path, 1000)
        proc = subprocess.run([sys.executable, "-m", "amencert.cli", "reiter", "--group", group, "--set", weights],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        f = {k: Fraction(1, p) for k, p in enumerate(primes(1000))}
        mass = sum(f.values())
        diffs = {label: sum(abs(f.get(k - s, 0) - f.get(k, 0)) for k in range(-1, 1001))
                 for label, s in (("a", 1), ("a^-1", -1))}
        out = json.loads(proc.stdout)
        assert out["l1-norm"] == frac_str(mass)
        assert out["generator-differences"] == {label: frac_str(x) for label, x in diffs.items()}
        assert out["ratio"] == frac_str(sum(diffs.values()) / mass)


def test_flow_pairing_certificate_leaves_no_reference_cycle():
    """A tree flow is a plain (shift, edge, ray) term, so it and its group go by reference count."""
    flow_pairing_certificate(FlowCycleSpec(FreeGroup(2), 1))
    gc.collect()
    gc.disable()
    try:
        flow_pairing_certificate(FlowCycleSpec(FreeGroup(2), 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
