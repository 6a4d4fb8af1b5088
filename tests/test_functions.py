"""Summable functions, bounded-function oracles and the evaluation pairing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amencert import functions
from amencert.functions import (
    BoundedFn,
    FinSuppFn,
    bounded_from_json,
    delta,
    frac_str,
    pair_eval,
    parse_frac,
    ray_first_letter,
    tree_flow,
)
from amencert.complexes import UfChain
from amencert.groups import FreeAbelianGroup, FreeGroup, cyclic_group
from amencert.sampling import random_boundedfn, random_element, random_finsupp


def l1_norm(f):
    """||f||_1 read from f's integer form: the sum of |n| over D."""
    return Fraction(sum(map(abs, f.nums.values())), f.den)


class TestFinSuppFn:
    def test_delta_norm(self, f2):
        assert l1_norm(delta(f2, f2.identity)) == 1

    def test_zero_sum_difference(self, f2):
        d = delta(f2, f2.gens[0]) - delta(f2, f2.identity)
        assert sum(d.nums.values()) == 0
        assert l1_norm(d) == 2

    def test_translate_delta(self, f2):
        a, b = f2.gens[0], f2.gens[1]
        assert delta(f2, a).translate(b) == delta(f2, f2.mul(b, a))

    def test_translate_is_action(self, all_groups, rng):
        for group in all_groups:
            for _ in range(50):
                g, h = random_element(rng, group), random_element(rng, group)
                f = random_finsupp(rng, group)
                assert f.translate(h).translate(g) == f.translate(group.mul(g, h))

    def test_translate_identity(self, f2, rng):
        f = random_finsupp(rng, f2)
        assert f.translate(f2.identity) == f

    def test_norm_translation_invariant(self, all_groups, rng):
        for group in all_groups:
            for _ in range(50):
                f = random_finsupp(rng, group)
                g = random_element(rng, group)
                assert l1_norm(f.translate(g)) == l1_norm(f)

    def test_no_stored_zeros(self, f2):
        f = FinSuppFn(f2, [((), 1), ((), -1), ((1,), Fraction(1, 2))])
        assert f.support() == ((1,),)
        assert (f - f).is_zero

    def test_arithmetic(self, f2, rng):
        f = random_finsupp(rng, f2)
        g = random_finsupp(rng, f2)
        h = f + g
        for x in set(f.support()) | set(g.support()):
            assert h.evaluate(x) == f.evaluate(x) + g.evaluate(x)
        assert (2 * f).evaluate(f.support()[0]) == 2 * f.evaluate(f.support()[0])
        assert (-f + f).is_zero

    def test_pairs_roundtrip(self, all_groups, rng):
        for group in all_groups:
            f = random_finsupp(rng, group)
            assert FinSuppFn.from_pairs(group, f.to_pairs()) == f

    def test_repr_prints_the_element_codec(self, f2, z2, z3):
        # a repr writes each key as its file does: a word string, an integer list, a table index
        assert repr(FinSuppFn(f2, [((1, -2), Fraction(1, 2)), ((), 1)])) == "FinSuppFn({e: 1, a*b^-1: 1/2})"
        assert repr(FinSuppFn(z2, [((1, -2), -1)])) == "FinSuppFn({[1, -2]: -1})"
        assert repr(FinSuppFn(z3, [(2, 3)])) == "FinSuppFn({2: 3})"

    def test_families_and_groups_do_not_mix(self, f2):
        # both families share their operators but not their sum, so a mixed + or - is refused
        f, v = delta(f2, f2.identity), BoundedFn(f2, 1)
        for a, b in ((f, v), (v, f), (f, 1), (v, 1)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        for a, b in ((f, delta(FreeGroup(3), ())), (v, BoundedFn(FreeGroup(3), 1))):
            with pytest.raises(ValueError, match="^cannot add functions over different groups$"):
                a + b

    def test_invalid_key_rejected(self, f2):
        with pytest.raises(ValueError):
            FinSuppFn(f2, {(1, -1): 1})


class TestConstruction:
    def test_repeated_keys_merge(self, f2):
        g = f2.elem_to_json(f2.gens[0])
        f = FinSuppFn.from_pairs(f2, [[g, "1/2"], [g, "1/3"]])
        assert f.items() == {(1,): Fraction(5, 6)}.items()
        assert FinSuppFn(f2, [((1,), Fraction(1, 2)), ((1,), Fraction(1, 3))]) == f

    def test_repeats_summing_to_zero_leave_no_key(self, f2, z2):
        for group, g in ((f2, "a*b"), (z2, [1, -2])):
            f = FinSuppFn.from_pairs(group, [[g, "1/2"], [g, "-1/3"], [g, "-1/6"]])
            assert f == FinSuppFn.zero(group)
            assert not f.items() and f.is_zero
        # a key that cancelled comes back fresh when it repeats once more
        f = FinSuppFn.from_pairs(f2, [["a", "1"], ["a", "-1"], ["a", "2/3"]])
        assert f.items() == {(1,): Fraction(2, 3)}.items()

    def test_zero_weight_never_stored(self, f2, z3):
        assert FinSuppFn.from_pairs(f2, [["a", "0"], ["b", "0/5"]]) == FinSuppFn.zero(f2)
        assert FinSuppFn(f2, {(1,): 0, (2,): Fraction(0)}) == FinSuppFn.zero(f2)
        f = FinSuppFn(z3, {0: Fraction(0), 1: 3, 2: Fraction(1, 2)})
        assert dict(f.items()) == {1: Fraction(3), 2: Fraction(1, 2)}
        assert all(type(c) is Fraction for _, c in f.items())

    @pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda g, c: FinSuppFn(g, {(): c}),
            lambda g, c: UfChain(g, 0, {((),): c}),
            lambda g, c: BoundedFn(g, c),
            lambda g, c: tree_flow(g, 1, 1) * c,
        ],
        ids=["FinSuppFn", "UfChain", "BoundedFn", "BoundedFn.__mul__"],
    )
    def test_coefficient_must_be_int_or_fraction(self, f2, build, value):
        # 0.1 would enter as 3602879701896397/36028797018963968 and True as 1
        with pytest.raises(ValueError, match="^a coefficient must be an int or a Fraction, got") as err:
            build(f2, value)
        assert "\n" not in str(err.value)

    def test_l1_norm_is_plain_sum(self, all_groups, rng):
        for group in all_groups:
            for _ in range(40):
                f = random_finsupp(rng, group)
                assert l1_norm(f) == sum((abs(c) for _, c in f.items()), Fraction(0))


class TestBoundedFn:
    def test_constant_translate(self, f2, rng):
        c = BoundedFn(f2, 5)
        g = random_element(rng, f2)
        assert c.translate(g) is c

    def test_tree_flow_translate_composition(self, f2):
        # moving the flow by a and evaluating at a^2 is evaluating the
        # original flow at a; the direct geodesic computation gives 1.
        flow = tree_flow(f2, 1, 1)
        shifted = flow.translate(f2.gens[0])
        assert shifted.evaluate(f2.elem_from_json("a^2")) == flow.evaluate(f2.gens[0]) == 1

    def test_tree_flow_requires_free_group(self, z2, z3):
        # the group is checked first, so letters that would be out of range are never read
        for group in (z2, z3):
            with pytest.raises(ValueError) as err:
                tree_flow(group, 0, 0)
            assert str(err.value) == "tree flows are only defined over free groups"

    @pytest.mark.parametrize("edge, ray, error", [
        (0, 1, "edge letter 0 out of range"),
        (3, 1, "edge letter 3 out of range"),
        (-3, 1, "edge letter -3 out of range"),
        (1, 0, "ray letter 0 must be a positive generator index"),
        (1, -1, "ray letter -1 must be a positive generator index"),
        (1, 3, "ray letter 3 must be a positive generator index"),
    ])
    def test_tree_flow_letter_ranges(self, f2, edge, ray, error):
        with pytest.raises(ValueError) as err:
            tree_flow(f2, edge, ray)
        assert str(err.value) == error

    @pytest.mark.parametrize(
        "edge, ray, which",
        [(True, 1, "edge"), (1, True, "ray"), (1.0, 1, "edge"), (1, 1.0, "ray"), ("1", 1, "edge")],
    )
    def test_tree_flow_letters_are_exact_ints(self, f2, edge, ray, which):
        # a bool would be read as letter 1 and a float would break repr/to_json
        with pytest.raises(ValueError, match=f"^{which} letter must be an integer") as err:
            tree_flow(f2, edge, ray)
        assert "\n" not in str(err.value)

    def test_tree_flow_labels(self, f2):
        flow = tree_flow(f2, -2, 1)
        assert repr(flow) == "BoundedFn(0, FinSuppFn({}), 1 * e.flow(b^-1, a))"
        assert flow.to_json() == {"tree-flow": {"edge": "b^-1", "ray": "a"}}
        assert bounded_from_json(f2, flow.to_json()) == flow

    def test_ray_first_letter(self, f2):
        assert ray_first_letter((), 1) == 1
        assert ray_first_letter((-1, -1), 1) == 1
        assert ray_first_letter((2, -1, -1), 1) == 2
        assert ray_first_letter((-2,), 1) == -2

    def test_structured_sums_fold(self, f2):
        f = BoundedFn(f2, 0, delta(f2, f2.gens[0]))
        c = BoundedFn(f2, 2)
        s = f + c
        assert type(s) is BoundedFn and not s.terms
        assert s.evaluate(f2.gens[0]) == 3
        assert s.evaluate(f2.identity) == 2
        assert (s - s).is_zero

    def test_combination_and_translate_evaluate(self, f2, rng):
        flow = tree_flow(f2, 2, 1)
        g = random_element(rng, f2)
        v = flow + BoundedFn(f2, 1)
        w = v.translate(g)
        for _ in range(10):
            x = random_element(rng, f2)
            assert w.evaluate(x) == v.evaluate(f2.mul(f2.inv(g), x))

    def test_normalized_constructor(self, f2):
        assert BoundedFn(f2, 3, FinSuppFn.zero(f2)).to_json() == {"constant": "3/1"}
        assert BoundedFn(f2, 0, delta(f2, f2.identity)).to_json() == {"finite": [["e", "1/1"]]}

    def test_json_roundtrip(self, f2):
        values = [
            BoundedFn(f2, Fraction(-2, 3)),
            BoundedFn(f2, 0, delta(f2, f2.gens[1])),
            BoundedFn(f2, 1, delta(f2, f2.identity)),
            tree_flow(f2, -2, 1),
        ]
        for v in values:
            w = bounded_from_json(f2, v.to_json())
            assert w == v

    def test_parts(self, f2):
        flow = tree_flow(f2, 1, 1)
        assert (flow.const, flow.fn, flow.terms) == (0, FinSuppFn.zero(f2), {(f2.identity, 1, 1): 1})
        c = BoundedFn(f2, 2, delta(f2, f2.gens[0]))
        assert (c.const, c.fn, c.terms) == (2, delta(f2, f2.gens[0]), {})

    def test_cancelled_sum_is_structurally_zero(self, f2):
        t = tree_flow(f2, 1, 1)
        assert not t - t
        assert t - t == BoundedFn(f2, 0)
        v = 2 * t.translate(f2.gens[1]) + BoundedFn(f2, 1, delta(f2, f2.gens[0]))
        assert (v - v).is_zero

    def test_sum_does_not_depend_on_term_order(self, f2):
        t = tree_flow(f2, 1, 1)
        a = f2.gens[0]
        assert t.translate(a) + t == t + t.translate(a)

    def test_combination_translate_is_action(self, f2, rng):
        a = f2.gens[0]
        v = tree_flow(f2, -2, 1).translate(a) - 3 * tree_flow(f2, 1, 2) + BoundedFn(f2, 1, delta(f2, a))
        for _ in range(20):
            g, h = random_element(rng, f2), random_element(rng, f2)
            assert v.translate(g).translate(h) == v.translate(f2.mul(h, g))

    def test_combination_evaluate_sums_its_terms(self, f2):
        a, b = f2.gens[0], f2.gens[1]
        t, u = tree_flow(f2, -2, 1), tree_flow(f2, 1, 2)
        v = Fraction(2, 3) * t.translate(a) + u - BoundedFn(f2, 4, delta(f2, b))
        assert type(v) is BoundedFn and len(v.terms) == 2
        for x in f2.ball(3):
            expected = Fraction(2, 3) * t.evaluate(f2.mul(f2.inv(a), x)) + u.evaluate(x) - 4 - delta(f2, b).evaluate(x)
            assert v.evaluate(x) == expected

    def test_oracle_variants_not_serializable(self, f2):
        v = tree_flow(f2, 1, 1).translate(f2.gens[0])
        with pytest.raises(ValueError):
            v.to_json()


FREE_GROUPS = [FreeGroup(1), FreeGroup(2), FreeGroup(3)]
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def bounded_values(draw, count):
    """(group, g, c, values): a free group of rank 1-3, an element and a
    rational to act with, and `count` values built by the public operations
    from a constant, a finite part and scaled translates of tree flows. The
    small pools make terms meet, merge and cancel often."""
    group = draw(st.sampled_from(FREE_GROUPS))
    near = st.sampled_from(group.ball(1))
    letters = [s for s in range(-group.rank, group.rank + 1) if s]
    values = []
    for _ in range(count):
        finite = FinSuppFn(group, draw(st.lists(st.tuples(near, small_rationals), max_size=2)))
        v = BoundedFn(group, draw(small_rationals), finite)
        for _ in range(draw(st.integers(0, 3))):
            flow = tree_flow(group, draw(st.sampled_from(letters)), draw(st.integers(1, group.rank)))
            v = v + draw(small_rationals) * flow.translate(draw(near))
        values.append(v)
    return group, draw(st.sampled_from(group.ball(2))), draw(small_rationals), values


class TestNormalForm:
    """Properties of the bounded normal form over values drawn through the public operations."""

    _settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)

    @_settings
    @given(bounded_values(2))
    def test_evaluate_is_linear_and_translate_is_the_left_action(self, drawn):
        group, g, c, (u, v) = drawn
        w = u + c * v
        moved = u.translate(g)
        g_inv = group.inv(g)
        for x in group.ball(2):
            assert w.evaluate(x) == u.evaluate(x) + c * v.evaluate(x)
            assert moved.evaluate(x) == u.evaluate(group.mul(g_inv, x))

    @_settings
    @given(bounded_values(1))
    def test_difference_with_itself_is_structurally_zero(self, drawn):
        group, _, _, (x,) = drawn
        assert (x - x).is_zero
        assert x - x == BoundedFn(group, 0)

    @_settings
    @given(bounded_values(3))
    def test_sum_is_commutative_and_associative(self, drawn):
        _, _, _, (a, b, c) = drawn
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @staticmethod
    def results(drawn):
        """The values each operation returns on the drawn pair, with a tree flow added and taken away again."""
        group, g, c, (u, v) = drawn
        flow = tree_flow(group, 1, 1)
        return [
            u, u + v, u - v, c * u, -v, u.translate(g), u - u, (u + flow) - u,
            flow.translate(g).translate(group.inv(g)),
            BoundedFn.combine(group, [(c, g, u), (1, None, v), (-c, g, u)]),
        ]

    @_settings
    @given(bounded_values(2))
    def test_no_zero_coefficient_is_stored(self, drawn):
        for w in self.results(drawn):
            assert all(w.terms.values())

    @_settings
    @given(bounded_values(2))
    def test_only_term_free_values_and_leaves_serialize(self, drawn):
        group = drawn[0]
        for w in self.results(drawn):
            # a lone flow is one unit unshifted term: (e, edge, ray) with coefficient 1
            shifts = [(s, c) for (s, _, _), c in w.terms.items()]
            lone_flow = not w.const and not w.fn and shifts == [(group.identity, 1)]
            if not w.terms or lone_flow:
                assert bounded_from_json(group, w.to_json()) == w
            else:
                with pytest.raises(ValueError, match="no serialized form"):
                    w.to_json()


COMBINE_GROUPS = {"F2": FreeGroup(2), "Z2": FreeAbelianGroup(2), "Z3": cyclic_group(3)}


@st.composite
def combine_terms(draw, group, family):
    """Terms (c, g, v) over group, v of the family drawn through `amencert.sampling` (bounded
    values over F_2 may hold tree flows); c = 0, g = None and repeated terms are all drawn often."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # a seeded generator spreads sampling's choices
    value = random_finsupp if family is FinSuppFn else random_boundedfn
    terms = [
        (draw(st.sampled_from([0, 1, -1]) | small_rationals),
         None if draw(st.booleans()) else random_element(rng, group, 2),
         value(rng, group, max_len=2))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return terms + (draw(st.lists(st.sampled_from(terms), max_size=2)) if terms else [])


def finite_part(v):
    return v if isinstance(v, FinSuppFn) else v.fn


@pytest.mark.parametrize("family", [FinSuppFn, BoundedFn], ids=["l1", "bounded"])
@pytest.mark.parametrize("group", COMBINE_GROUPS.values(), ids=COMBINE_GROUPS.keys())
class TestCombine:
    """Each family's n-ary sum against pointwise evaluation, the independent oracle."""

    _settings = settings(derandomize=True, database=None, deadline=None, max_examples=25)

    @_settings
    @given(data=st.data())
    def test_combine_evaluates_as_the_sum_of_its_terms(self, group, family, data):
        terms = data.draw(combine_terms(group, family))
        total = family.combine(group, terms)
        moved = [(c, group.identity if g is None else g, v) for c, g, v in terms]
        points = set(group.ball(2)) | set(finite_part(total).support())
        points |= {group.mul(g, k) for _, g, v in moved for k in finite_part(v).support()}
        for h in points:
            want = sum((c * v.evaluate(group.mul(group.inv(g), h)) for c, g, v in moved), Fraction(0))
            assert total.evaluate(h) == want

    @_settings
    @given(data=st.data())
    def test_terms_joined_with_their_negation_are_structurally_zero(self, group, family, data):
        terms = data.draw(combine_terms(group, family))
        total = family.combine(group, terms + [(-c, g, v) for c, g, v in terms])
        assert total.is_zero
        assert total == (FinSuppFn.zero(group) if family is FinSuppFn else BoundedFn(group, 0))


class TestPairEval:
    def test_zero_sum_kills_constants(self, f2):
        phi = delta(f2, f2.gens[0]) - delta(f2, f2.identity)
        assert pair_eval(phi, BoundedFn(f2, 5)) == 0

    def test_delta_against_one(self, f2):
        assert pair_eval(delta(f2, f2.identity), BoundedFn(f2, 1)) == 1

    def test_flow_term(self, f2):
        phi = delta(f2, f2.gens[1]) - delta(f2, f2.identity)
        assert pair_eval(phi, tree_flow(f2, 2, 1)) == 1

    def test_bilinear(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                f, g = random_finsupp(rng, group), random_finsupp(rng, group)
                v, w = random_boundedfn(rng, group), random_boundedfn(rng, group)
                a, b = Fraction(2, 3), Fraction(-5)
                assert pair_eval(a * f + b * g, v) == a * pair_eval(f, v) + b * pair_eval(g, v)
                assert pair_eval(f, v + w) == pair_eval(f, v) + pair_eval(f, w)

    def test_quotient_well_defined(self, all_groups, rng):
        for group in all_groups:
            for _ in range(30):
                f = random_finsupp(rng, group)
                f = f - Fraction(sum(f.nums.values()), f.den) * delta(group, group.identity)  # coefficient sum 0
                v = random_boundedfn(rng, group)
                for c in (1, Fraction(-7, 2)):
                    assert pair_eval(f, v + BoundedFn(group, c)) == pair_eval(f, v)

    def test_against_finsuppfn_values(self, f2, rng):
        f = random_finsupp(rng, f2)
        g = random_finsupp(rng, f2)
        expected = sum((c * g.evaluate(x) for x, c in f.items()), Fraction(0))
        assert pair_eval(f, g) == expected


def test_rational_strings():
    assert frac_str(Fraction(2)) == "2/1"
    assert parse_frac("72/17") == Fraction(72, 17)
    assert parse_frac("-3") == Fraction(-3)
    with pytest.raises(ValueError):
        parse_frac("1/0")
    with pytest.raises(ValueError):
        parse_frac("x")


# one row per way a rational is read: the short "p/q" form, and each form that takes Fraction's route
@pytest.mark.parametrize("text, want", [
    ("72/17", Fraction(72, 17)),
    ("-0/5", Fraction(0)),
    ("0006/0004", Fraction(3, 2)),
    ("+3/4", Fraction(3, 4)),
    (" 3/4", Fraction(3, 4)),
    ("1_0/3", Fraction(10, 3)),
    ("\u0663/4", Fraction(3, 4)),
    ("9" * 4300 + "/7", Fraction(10**4300 - 1, 7)),
    ("-" + "9" * 4300 + "/7", Fraction(1 - 10**4300, 7)),
    ("3/-4", "cannot parse rational '3/-4'"),
    ("3/0", "cannot parse rational '3/0'"),
    ("-0/0", "cannot parse rational '-0/0'"),
    ("\u00b2/4", "cannot parse rational '\u00b2/4'"),
    ("3/4/5", "cannot parse rational '3/4/5'"),
    ("9" * 4301 + "/7", None),
    ("7/" + "9" * 4301, None),
    # whitespace around the text is stripped; whitespace left inside is refused on every
    # Python version, although Fraction's own pattern reads "3 / 4" from 3.12 on
    ("3/4\n", Fraction(3, 4)),
    ("\t-3/4 ", Fraction(-3, 4)),
    ("\u00a03/4\u00a0", Fraction(3, 4)),
    (" 1.5e1 ", Fraction(15)),
    ("3 / 4", None),
    ("3/ 4", None),
    ("3 /4", None),
    ("3\u00a0/4", None),
    ("3\t/4", None),
    (" - 3/4", None),
    ("1 2", None),
    ("1. 5", None),
])
def test_rational_edge_cases(text, want):
    if isinstance(want, Fraction):
        assert parse_frac(text) == want
    else:
        with pytest.raises(ValueError) as exc:
            parse_frac(text)
        assert str(exc.value) == (want or f"cannot parse rational {text!r}")


def test_rational_digit_limit():
    # the reduced value may have up to MAX_RATIONAL_DIGITS digits
    assert functions.MAX_RATIONAL_DIGITS == 4300
    assert parse_frac("1e4299") == 10**4299
    assert parse_frac("1e-4299") == Fraction(1, 10**4299)
    assert parse_frac("5e-4300") == Fraction(1, 2 * 10**4299)
    assert parse_frac("1000e-4302") == Fraction(1, 10**4299)
    assert frac_str(parse_frac("1e-4299")) == "1/1" + "0" * 4299
    for text in ("1e4300", "-1e-4300", "3.5e4300", "1e-4301"):
        with pytest.raises(ValueError, match="4300-digit limit"):
            parse_frac(text)


def test_rational_exponent_refused_before_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction was called")

    monkeypatch.setattr(functions, "Fraction", no_fraction)
    for text in ("1e-1000000", "1e-10000000", "2.5E+10000000", "0e99999999"):
        with pytest.raises(ValueError, match="4300-digit limit"):
            parse_frac(text)
