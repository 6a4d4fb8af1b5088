"""Reiter ratios, Folner search, isoperimetric brute force, finite-group span."""

import json
import random
from fractions import Fraction

import pytest

from amencert import amenability, groups
from amencert.amenability import (
    FiniteH0Report,
    FolnerCertificate,
    FolnerFailure,
    finite_h0,
    folner_certificate_from_set,
    folner_search,
    indicator,
    isoperimetric_argmin,
    reiter_counts,
    reiter_ratio,
)
from amencert.cli import main
from amencert.functions import FinSuppFn
from amencert.groups import FiniteGroup, FreeAbelianGroup, FreeGroup, cyclic_group, cyclic_table
from amencert.sampling import random_element, random_finsupp, random_fraction
from conftest import dihedral_table, relabelled, s3_group, symmetric_table


def box(group, side):
    coords = [()]
    for _ in range(group.rank):
        coords = [c + (x,) for c in coords for x in range(side)]
    return coords


def symmetric_differences(group, members):
    """Set-level oracle: |sF diff F| for each letter on its own, by label."""
    fset = set(members)
    return {label: len({group.mul(s, g) for g in fset} ^ fset) for label, s in group.letters()}


def symmetric_difference_ratio(group, members):
    """Set-level oracle: sum of |sF diff F| over letters, divided by |F|."""
    return Fraction(sum(symmetric_differences(group, members).values()), len(set(members)))


def mixed_finite_groups():
    """Finite groups whose letters mix both kinds of inverse-pair block.

    Z/5 on [1, 2] has two pairs; Z/6 on [3, 1] starts with a self-inverse
    letter; D_5 on [5, 1, 6] (conftest's indices: 5 = s, 1 = r, 6 = rs) has
    a rotation pair between two reflections.
    """
    return (
        FiniteGroup(cyclic_table(5), generators=(1, 2)),
        FiniteGroup(cyclic_table(6), generators=(3, 1)),
        FiniteGroup(dihedral_table(5), generators=(5, 1, 6)),
    )


def abs_fn(f):
    return FinSuppFn(f.group, {k: abs(c) for k, c in f.items()})


def plain_l1(f):
    """||f||_1 as a plain Fraction sum of absolute values."""
    return sum((abs(c) for _, c in f.items()), Fraction(0))


def letter_differences(group, f):
    """||s.f - f||_1 per letter label of a nonnegative f, from reiter_counts."""
    d, diffs, _ = reiter_counts(group, f)
    return {label: Fraction(x, d) for label, x in diffs.items()}


def translate_oracle(group, f):
    """||s.f - f||_1 through the translate, a negation and a Fraction sum."""
    return {label: plain_l1(f.translate(s) - f) for label, s in group.letters()}


class TestReiterRatio:
    def test_box_example(self, z2):
        f = indicator(z2, box(z2, 10))
        assert reiter_ratio(z2, f) == Fraction(4, 5)
        assert symmetric_difference_ratio(z2, box(z2, 10)) == Fraction(4, 5)

    def test_whole_finite_group(self, z3):
        assert reiter_ratio(z3, indicator(z3, range(3))) == 0

    def test_free_ball_two(self, f2):
        members = f2.ball(2)
        assert reiter_ratio(f2, indicator(f2, members)) == Fraction(72, 17)
        assert symmetric_difference_ratio(f2, members) == Fraction(72, 17)

    def test_indicator_counts_a_repeated_member_once(self, f2, z2, z3):
        a, e = f2.gens[0], f2.identity
        f = indicator(f2, [a, a, e])
        assert f == indicator(f2, [a, e]) == FinSuppFn(f2, {a: 1, e: 1})
        assert reiter_ratio(f2, f) == 6 == symmetric_difference_ratio(f2, [a, e])
        # a bool is refused, not folded onto the int it equals
        for group, members in ((z3, [0, False]), (z2, [(0, 0), (False, 0)])):
            with pytest.raises(ValueError):
                indicator(group, members)

    def test_rejects_zero_and_signed(self, f2):
        with pytest.raises(ValueError):
            reiter_ratio(f2, FinSuppFn.zero(f2))
        with pytest.raises(ValueError):
            reiter_ratio(f2, FinSuppFn(f2, {f2.identity: -1}))

    def test_report_keeps_every_check(self, f2, z2):
        cases = [
            (indicator(z2, [(0, 0)]), "function is defined over a different group"),
            (FinSuppFn.zero(f2), "the Reiter ratio of the zero function is undefined"),
            (FinSuppFn(f2, {f2.identity: 1, f2.gens[0]: -1}), "the Reiter ratio requires a nonnegative function"),
        ]
        for f, message in cases:
            for fn in (reiter_counts, reiter_ratio):
                with pytest.raises(ValueError) as info:
                    fn(f2, f)
                assert str(info.value) == message

    def test_report_pairs_differences_with_ratio(self, f2):
        f = FinSuppFn(f2, {f2.identity: Fraction(1, 2), f2.gens[1]: 2})
        diffs, ratio = letter_differences(f2, f), reiter_ratio(f2, f)
        assert diffs == translate_oracle(f2, f)
        assert ratio == sum(diffs.values()) / plain_l1(f) == reiter_ratio(f2, f)

    def test_zero_only_for_invariant(self, z3, f2):
        assert reiter_ratio(z3, indicator(z3, range(3))) == 0
        assert reiter_ratio(f2, indicator(f2, f2.ball(3))) > 0

    def test_right_translation_invariance(self, all_groups, rng):
        # right multiplication commutes with every left translate, so the
        # ratio is exactly invariant for all families
        for group in all_groups:
            for _ in range(25):
                f = abs_fn(random_finsupp(rng, group))
                g = random_element(rng, group)
                shifted = FinSuppFn(group, {group.mul(k, g): c for k, c in f.items()})
                assert reiter_ratio(group, shifted) == reiter_ratio(group, f)

    def test_left_translation_invariance_abelian(self, z2, z3, rng):
        for group in (z2, z3):
            for _ in range(25):
                f = abs_fn(random_finsupp(rng, group))
                g = random_element(rng, group)
                assert reiter_ratio(group, f.translate(g)) == reiter_ratio(group, f)

    def test_left_translation_not_invariant_free(self, f2):
        # pinned counterexample: {e, b} against its a-translate {a, ab}
        f = indicator(f2, [f2.identity, f2.gens[1]])
        assert reiter_ratio(f2, f) == 6
        assert reiter_ratio(f2, f.translate(f2.gens[0])) == 8

    def test_box_ratios_decrease(self, z2):
        ratios = [reiter_ratio(z2, indicator(z2, box(z2, n))) for n in range(2, 17)]
        assert ratios == [Fraction(8, n) for n in range(2, 17)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestFolnerSearch:
    def test_z2_boxes_side_80(self, z2):
        result = folner_search(z2, Fraction(1, 10), strategy="boxes", max_radius=100)
        assert isinstance(result, FolnerCertificate)
        assert result.parameter == 80
        assert result.ratio == Fraction(1, 10)
        assert len(result.members) == 6400

    @pytest.mark.parametrize("eps", [0.1, True])
    def test_float_and_bool_eps_refused(self, z2, eps):
        # a float would print as a binary fraction, and True would count as 1
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            folner_search(z2, eps, strategy="boxes", max_radius=5)

    def test_finite_group_reaches_zero(self, z3, s3):
        for group in (z3, s3):
            result = folner_search(group, Fraction(1, 1000), strategy="balls", max_radius=10)
            assert isinstance(result, FolnerCertificate)
            assert result.ratio == 0
            assert len(result.members) == group.order

    def test_free_group_failure_report(self, f2):
        result = folner_search(f2, Fraction(1), strategy="balls", max_radius=6)
        assert isinstance(result, FolnerFailure)
        assert result.best_ratio == Fraction(8 * 3**6, 2 * 3**6 - 1)
        assert result.best_ratio > 4
        ratios = [ratio for _, _, ratio in result.attempts]
        assert ratios == [Fraction(8 * 3**r, 2 * 3**r - 1) for r in range(7)]
        best_so_far = [min(ratios[: i + 1]) for i in range(len(ratios))]
        assert all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))

    def test_certificate_revalidates(self, z2, tmp_path, capsys):
        spec = tmp_path / "z2.json"
        spec.write_text(json.dumps(z2.to_dict()))
        assert main(["folner", "--group", str(spec), "--eps", "1/4", "--strategy", "boxes", "--max-radius", "40"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from amencert.groups import group_from_dict

        group = group_from_dict(payload["group"])
        members = [group.elem_from_json(x) for x in payload["set"]]
        rebuilt = folner_certificate_from_set(group, members)
        assert str(rebuilt.ratio.numerator) + "/" + str(rebuilt.ratio.denominator) == payload["ratio"]
        assert rebuilt.differences == payload["generator-differences"]

    def test_box_strategy_needs_abelian(self, f2):
        with pytest.raises(ValueError):
            folner_search(f2, Fraction(1, 2), strategy="boxes", max_radius=5)

    def test_eps_validated(self, z2):
        with pytest.raises(ValueError):
            folner_search(z2, Fraction(0), strategy="balls")

    def test_rejects_bool_coordinates(self, z2):
        with pytest.raises(ValueError):
            folner_certificate_from_set(z2, [(True, 0), (0, 1)])

    def test_box_cap_fires_before_building(self, monkeypatch):
        def no_box(group, side):
            raise AssertionError("a box was built")

        monkeypatch.setattr(amenability, "_box", no_box)
        with pytest.raises(ValueError, match="cap"):
            folner_search(FreeAbelianGroup(4), Fraction(1, 2), strategy="boxes", max_radius=100)
        # the cap is inclusive: 100^3 = MAX_FOLNER_ELEMS passes the guard and reaches _box
        assert 100**3 == amenability.MAX_FOLNER_ELEMS
        with pytest.raises(AssertionError, match="a box was built"):
            folner_search(FreeAbelianGroup(3), Fraction(1, 2), strategy="boxes", max_radius=100)


    def test_ball_cap_fires_before_building(self, monkeypatch):
        def no_ball(group, radius):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(groups.GroupSpec, "ball", no_ball)
        # |B_11| = 354293 in F_2 and |B_8| = 585937 in F_3 pass the cap; one more radius does not
        for group, largest in ((FreeGroup(2), 11), (FreeGroup(3), 8)):
            with pytest.raises(ValueError, match="cap"):
                folner_search(group, Fraction(1, 10), max_radius=largest + 1)
            # every free ball is ruled out by its closed-form ratio, so none is built
            result = folner_search(group, Fraction(1, 10), max_radius=largest)
            assert isinstance(result, FolnerFailure)
            assert result.max_parameter == largest
        with pytest.raises(ValueError, match="cap"):
            folner_search(FreeAbelianGroup(64), Fraction(1, 10), max_radius=10)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_box_is_built_in_sort_key_order(self, rank):
        # the `_raw` route keeps the order it is given: a box in lexicographic order fails here
        group = FreeAbelianGroup(rank)
        for side in range(1, 13):
            assert amenability._box(group, side) == sorted(box(group, side), key=group.sort_key)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_raw_box_certificate_is_the_checked_one(self, rank):
        group = FreeAbelianGroup(rank)
        for side in range(1, 13):
            members = amenability._box(group, side)
            raw = folner_certificate_from_set(group, members, "boxes", side, _raw=True)
            assert raw == folner_certificate_from_set(group, members[::-1], "boxes", side)

    @pytest.mark.parametrize("group, largest", [
        (FreeGroup(1), 12), (FreeGroup(2), 5), (FreeGroup(3), 4),
        (FreeAbelianGroup(1), 12), (FreeAbelianGroup(2), 8), (FreeAbelianGroup(3), 5),
        (cyclic_group(12), 7), (FiniteGroup(dihedral_table(6), generators=(1, 6)), 5), (s3_group(), 3),
    ], ids=["f1", "f2", "f3", "z1", "z2", "z3", "c12", "d6", "s3"])
    def test_raw_ball_certificate_is_the_checked_one(self, group, largest):
        # radii past a finite group's diameter included: every ball, saturated or not
        for r in range(largest + 1):
            ball = group.ball(r)
            raw = folner_certificate_from_set(group, ball, "balls", r, _raw=True)
            assert raw == folner_certificate_from_set(group, ball[::-1], "balls", r)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_box_closed_form_matches_count(self, rank):
        group = FreeAbelianGroup(rank)
        closed_form = amenability._closed_form(group, "boxes")
        for side in range(1, 13):
            cert = folner_certificate_from_set(group, box(group, side))
            assert closed_form(side) == (len(cert.members), cert.ratio)

    # F_2 and F_3: every ball of at most 10^4 words. F_1 stops at radius 100:
    # counting a ball of F_1 costs a cube of its radius, as a product walks
    # the whole word.
    @pytest.mark.parametrize("rank, largest", [(1, 100), (2, 7), (3, 5)])
    def test_free_ball_closed_form_matches_count(self, rank, largest):
        group = FreeGroup(rank)
        closed_form = amenability._closed_form(group, "balls")
        for r in range(largest + 1):
            cert = folner_certificate_from_set(group, group.ball(r))
            assert closed_form(r) == (len(cert.members), cert.ratio)
        if rank > 1:
            assert groups.free_ball_size(rank, largest + 1, 10**6) > 10**4
        # 4(k - 1) + 4/|B_2|
        assert closed_form(2)[1] == {1: Fraction(4, 5), 2: Fraction(72, 17), 3: Fraction(300, 37)}[rank]

    def test_closed_form_disagreement_raises(self, monkeypatch, f2):
        # a closed form that accepts radius 0 with ratio 0, against the counted 8
        monkeypatch.setattr(amenability, "_closed_form", lambda group, strategy: lambda r: (1, Fraction(0)))
        with pytest.raises(RuntimeError, match="closed form"):
            folner_search(f2, Fraction(1, 10), max_radius=2)

    def test_finite_ball_bounded_by_order(self):
        # a finite group's ball never passes its order, so no radius hits the cap
        result = folner_search(cyclic_group(5), Fraction(1, 10), max_radius=10**30)
        assert isinstance(result, FolnerCertificate)
        assert result.parameter == 2 and result.ratio == 0


def shifted_table_argmin(group, radius):
    """The earlier enumeration, kept as an oracle: one shifted-mask table per letter."""
    ball = group.ball(radius)
    n = len(ball)
    if n > 18:
        raise ValueError(f"ball has {n} elements; subset enumeration is capped at 18")
    index = {g: i for i, g in enumerate(ball)}
    letters = [s for _, s in group.letters()]
    # images[s][i] = bit of s * ball[i], or 0 when the image leaves the ball
    # (an element outside the ball can never lie in a candidate subset).
    images = []
    for s in letters:
        bits = []
        for g in ball:
            j = index.get(group.mul(s, g))
            bits.append(0 if j is None else 1 << j)
        images.append(bits)
    # shifted[s][mask] = bitmask of the in-ball part of s * mask, built by
    # peeling the lowest bit so each entry costs O(1).
    shifted = []
    for bits in images:
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | bits[low.bit_length() - 1]
        shifted.append(table)
    best_num, best_den, best_mask = None, None, 0
    n_letters = len(letters)
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        lost = 0
        for table in shifted:
            lost += size - bin(table[mask] & mask).count("1")
        num = 2 * lost  # sum over letters of |sF symmetric-difference F|
        if best_num is None or num * best_den < best_num * size:
            best_num, best_den, best_mask = num, size, mask
    members = tuple(ball[i] for i in range(n) if (best_mask >> i) & 1)
    return Fraction(best_num, best_den), members


class TestIsoperimetricMin:
    def test_singleton(self, f2):
        assert isoperimetric_argmin(f2, 0)[0] == 8

    def test_radius_one(self, f2):
        ratio, members = isoperimetric_argmin(f2, 1)
        assert ratio == Fraction(24, 5)
        assert set(members) == set(f2.ball(1))

    def test_radius_one_matches_naive_enumeration(self, f2):
        ball = f2.ball(1)
        best = None
        for mask in range(1, 1 << len(ball)):
            members = [g for i, g in enumerate(ball) if (mask >> i) & 1]
            ratio = symmetric_difference_ratio(f2, members)
            assert ratio >= 4 + Fraction(4, len(members))  # tree isoperimetry
            best = ratio if best is None else min(best, ratio)
        assert best == isoperimetric_argmin(f2, 1)[0]

    def test_guard_rejects_large_balls(self, f2):
        # |B_9| = 39365 passes the output cap; |B_3| = 25 of Z^2 passes the enumeration cap
        with pytest.raises(ValueError, match="radius 9 has more than 14284 elements"):
            isoperimetric_argmin(f2, 9)
        with pytest.raises(ValueError, match="radius 7142 has more than 14284 elements"):
            isoperimetric_argmin(FreeGroup(1), 7142)  # 2r + 1 = 14285
        with pytest.raises(ValueError, match="radius 3 has 25 elements; subset enumeration is capped at 18"):
            isoperimetric_argmin(FreeAbelianGroup(2), 3)

    def test_guard_fires_before_the_ball_is_built(self, f2):
        # each ball is counted in closed form: B_40 of F_2 (about 3^40 words) is never grown
        z2 = FreeAbelianGroup(2)
        for group, radius in ((f2, 9), (f2, 40), (z2, 3), (z2, 10**9)):
            with pytest.raises(ValueError):
                isoperimetric_argmin(group, radius)
            assert group._levels == [(group.identity,)]

    def test_letter_cap_bounds_free_balls(self):
        # B_r of F_1 holds r(r + 1) letters: r = 3161 holds 9,995,082 and answers, r = 3162 holds
        # 10,001,406 and is refused, as is a folner scan to radius 499999 that the element cap admits
        f1 = FreeGroup(1)
        ratio, members = isoperimetric_argmin(f1, 3161)
        assert ratio == Fraction(4, 6323) and sum(map(len, members)) == 3161 * 3162 <= amenability.MAX_BALL_LETTERS
        for call in (lambda g: isoperimetric_argmin(g, 3162),
                     lambda g: folner_search(g, Fraction(1, 100000), max_radius=499999)):
            g = FreeGroup(1)
            with pytest.raises(ValueError, match="holds more than 10000000 letters"):
                call(g)
            assert g._levels == [(g.identity,)]

    def test_letter_count_is_the_sum_of_word_lengths(self):
        for rank, largest in ((1, 12), (2, 5), (3, 4)):
            group = FreeGroup(rank)
            for radius in range(largest + 1):
                letters = sum(map(len, group.ball(radius)))
                assert groups.free_ball_letters(rank, radius, 10**9) == letters
                if letters:
                    assert groups.free_ball_letters(rank, radius, letters - 1) > letters - 1

    def test_output_cap_is_the_largest_printable_subset_count(self):
        # 2^|B| - 1 has at most 4300 digits, the most str(int) writes by default
        cap = amenability.MAX_ISO_OUTPUT
        assert 10**4299 <= 2**cap - 1 < 10**4300 <= 2 ** (cap + 1) - 1

    def test_free_balls_answer_past_the_enumeration_cap(self):
        f2, f3 = FreeGroup(2), FreeGroup(3)
        assert isoperimetric_argmin(f2, 3) == (Fraction(216, 53), f2.ball(3))
        for group, radius, size in ((f2, 8, 13121), (f3, 5, 4687), (FreeGroup(1), 40, 81)):
            ratio, members = isoperimetric_argmin(group, radius)
            assert len(members) == size <= amenability.MAX_ISO_OUTPUT
            assert ratio == 4 * (group.rank - 1) + Fraction(4, size) and members == group.ball(radius)

    def test_saturated_ball_stops_growing(self):
        d8 = FiniteGroup(dihedral_table(8), generators=(1, 8))
        ratio, members = isoperimetric_argmin(d8, 10**9)
        assert ratio == 0 and len(members) == 16
        assert d8._saturated and len(d8._levels) < 10  # one level per distance, up to the diameter

    @pytest.mark.parametrize("radius", [True, 1.0, "1", -1])
    def test_rejects_non_integer_or_negative_radius(self, f2, radius):
        with pytest.raises(ValueError):
            isoperimetric_argmin(f2, radius)

    def test_matches_shifted_table_oracle(self):
        d8 = FiniteGroup(dihedral_table(8), generators=(1, 8))
        cases = [(FreeGroup(2), r) for r in (0, 1, 2)]
        cases += [(FreeGroup(3), r) for r in (0, 1)]
        cases += [(FreeAbelianGroup(2), r) for r in (0, 1, 2)]
        cases += [(FreeAbelianGroup(3), 1)]
        cases += [(d8, r) for r in range(6)]
        z6 = FiniteGroup(cyclic_table(6), generators=(1, 3))  # 3 is its own inverse
        cases += [(z6, r) for r in range(4)]
        # S_3 at radius 1 has two minimizers of ratio 2: the lower mask must win
        cases += [(s3_group(), r) for r in range(3)]
        for group, radius in cases:
            assert isoperimetric_argmin(group, radius) == shifted_table_argmin(group, radius), (group, radius)

    def test_ball_two_exhaustive_oracle_and_tree_bound(self, f2):
        # independent per-bit enumeration of all 2^17 - 1 subsets: cross-checks
        # the table-driven minimum and verifies the tree isoperimetric bound
        # sum_s |sF diff F| >= 4|F| + 4 on every subset
        ball = f2.ball(2)
        index = {g: i for i, g in enumerate(ball)}
        neighbours = [
            [index.get(f2.mul(s, g)) for _, s in f2.letters()] for g in ball
        ]
        best = None
        for mask in range(1, 1 << len(ball)):
            size = 0
            inside = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                size += 1
                for j in neighbours[i]:
                    if j is not None and (mask >> j) & 1:
                        inside += 1
            total = 2 * (4 * size - inside)  # sum over letters of |sF diff F|
            assert total >= 4 * size + 4
            ratio = Fraction(total, size)
            best = ratio if best is None else min(best, ratio)
        assert best == Fraction(72, 17) == isoperimetric_argmin(f2, 2)[0]

    def test_closed_forms_match_the_enumeration(self):
        # the forest count on free balls and G on saturated finite balls give
        # the enumeration's exact answer, ratio and member tuple
        cases = [(FreeGroup(1), r) for r in range(9)]
        cases += [(FreeGroup(2), r) for r in range(3)]
        cases += [(FreeGroup(3), r) for r in range(2)]
        for table, gens in ((dihedral_table(4), (1, 4)), (dihedral_table(8), (1, 8)), (cyclic_table(6), (1, 3))):
            cases += [(FiniteGroup(table, gens), None)]
        cases += [(s3_group(), None)]
        for group, radius in cases:
            if radius is None:  # every saturated ball: from the diameter on
                radius = max(group.dist(group.identity, g) for g in range(group.order))
                assert len(group.ball(radius)) == group.order
                assert len(group.ball(radius - 1)) < group.order
                expected = amenability._iso_enumerate(group, group.ball(radius))
                for r in (radius, radius + 1, 10**6):
                    assert isoperimetric_argmin(group, r) == expected, (group, r)
            else:
                expected = amenability._iso_enumerate(group, group.ball(radius))
                assert isoperimetric_argmin(group, radius) == expected, (group, radius)

    def test_forced_closed_forms_disagree_where_unproved(self, monkeypatch):
        # negative controls: the free formula on Z^2 and the saturated formula
        # on an unsaturated D_8 ball are wrong, and the dispatch enumerates them
        z2 = FreeAbelianGroup(2)
        d8 = FiniteGroup(dihedral_table(8), generators=(1, 8))
        forced = [(z2, 2, amenability._free_ball_ratio(z2.rank, len(z2.ball(2))))]
        forced += [(d8, r, Fraction(0)) for r in (2, 3)]
        for group, radius, ratio in forced:
            ball = group.ball(radius)
            enumerated = amenability._iso_enumerate(group, ball)
            assert enumerated != (ratio, ball), (group, radius)
            assert enumerated[0] != ratio and len(enumerated[1]) < len(ball)
            assert isoperimetric_argmin(group, radius) == enumerated
        real = amenability._iso_enumerate
        calls = []
        monkeypatch.setattr(amenability, "_iso_enumerate", lambda g, b: calls.append(len(b)) or real(g, b))
        for group, radius, _ in forced:
            isoperimetric_argmin(group, radius)
        enumerated_sizes = [13, 8, 12]  # |B_2| of Z^2; |B_2|, |B_3| of D_8 on (1, 8)
        assert calls == enumerated_sizes
        isoperimetric_argmin(FreeGroup(2), 2)
        isoperimetric_argmin(d8, 10**9)
        assert calls == enumerated_sizes

    def test_search_ratios_never_beat_four(self, f2):
        result = folner_search(f2, Fraction(4), strategy="balls", max_radius=5)
        assert isinstance(result, FolnerFailure)
        assert all(ratio >= 4 for _, _, ratio in result.attempts)


def rank_and_membership_oracle(group):
    """Textbook row-echelon oracle over the full difference matrix.

    Builds every row g.delta_h - delta_h, reduces the stacked matrix with
    the all-ones target appended, and reads off rank and membership; a
    different algorithm from the incremental pivot insertion oracle below.
    """
    n = group.order
    rows = []
    for g in range(n):
        for h in range(n):
            vec = [Fraction(0)] * n
            vec[group.mul(g, h)] += 1
            vec[h] -= 1
            if any(vec):
                rows.append(vec)
    target = [Fraction(1)] * n
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        if target[col]:
            c = target[col]
            target = [x - c * y for x, y in zip(target, rows[rank])]
        rank += 1
    return rank, all(x == 0 for x in target)


def pivot_insertion_report(group):
    """Oracle: the incremental pivot-insertion elimination finite_h0 once ran.

    Rows g.delta_h - delta_h are inserted into a reduced pivot basis one at
    a time; the rank caps at n - 1 because every row has coefficient sum
    zero, so insertion stops early once that rank is reached.
    """
    n = group.order
    pivots: dict[int, list[Fraction]] = {}

    def reduce(vec: list[Fraction]) -> list[Fraction]:
        for col, row in pivots.items():
            if vec[col]:
                c = vec[col]
                vec = [x - c * y for x, y in zip(vec, row)]
        return vec

    for g in range(n):
        if len(pivots) == n - 1:
            break
        for h in range(n):
            gh = group.mul(g, h)
            if gh == h:
                continue
            vec = [Fraction(0)] * n
            vec[gh] += 1
            vec[h] -= 1
            vec = reduce(vec)
            lead = next((i for i, x in enumerate(vec) if x), None)
            if lead is not None:
                inv = vec[lead]
                pivots[lead] = [x / inv for x in vec]
                if len(pivots) == n - 1:
                    break

    residual = reduce([Fraction(1)] * n)
    residual_l1 = sum((abs(x) for x in residual), Fraction(0))
    return FiniteH0Report(
        group=group,
        order=n,
        span_dimension=len(pivots),
        one_in_span=residual_l1 == 0,
        residual_l1=residual_l1,
    )


def shuffled_s4():
    table, _, _ = symmetric_table(4)
    perm = list(range(24))
    random.Random(4).shuffle(perm)
    return FiniteGroup(relabelled(table, perm))


def dihedral_group(n):
    """D_n of order 2n, element r^k s^f stored at index (2k + f + 3) mod 2n."""
    order = 2 * n

    def compose(a, b):
        (k, f), (m, e) = a, b
        return ((k + (-m if f else m)) % n, f ^ e)

    elems = [(k, f) for k in range(n) for f in (0, 1)]
    index = {x: (2 * x[0] + x[1] + 3) % order for x in elems}
    table = [[0] * order for _ in range(order)]
    for a in elems:
        for b in elems:
            table[index[a]][index[b]] = index[compose(a, b)]
    return FiniteGroup(table)


class TestFiniteH0:
    def test_matches_pivot_insertion_oracle(self, s3):
        d18 = dihedral_group(18)
        assert d18.identity != 0
        groups = (cyclic_group(1), cyclic_group(2), cyclic_group(5), s3, shuffled_s4(), d18)
        for group in groups:
            assert finite_h0(group) == pivot_insertion_report(group)

    def test_matches_row_echelon_oracle(self, z3, s3):
        for group in (z3, cyclic_group(2), cyclic_group(5), s3, shuffled_s4(), dihedral_group(6)):
            report = finite_h0(group)
            rank, member = rank_and_membership_oracle(group)
            assert report.span_dimension == rank
            assert report.one_in_span == member

    def test_z3(self, z3):
        report = finite_h0(z3)
        assert report.order == 3
        assert report.span_dimension == 2
        assert report.one_in_span is False
        assert report.residual_l1 > 0

    def test_z5(self):
        report = finite_h0(cyclic_group(5))
        assert report.span_dimension == 4
        assert report.one_in_span is False

    def test_s3(self, s3):
        report = finite_h0(s3)
        assert report.order == 6
        assert report.one_in_span is False

    def test_trivial_group(self):
        report = finite_h0(cyclic_group(1))
        assert report.span_dimension == 0
        assert report.one_in_span is False

    def test_abelian_span_dimension(self):
        for n in (2, 3, 4, 5, 7):
            assert finite_h0(cyclic_group(n)).span_dimension == n - 1

    def test_requires_finite_group(self, f2):
        with pytest.raises(ValueError):
            finite_h0(f2)

    def test_report_payload(self, z3, tmp_path, capsys):
        spec = tmp_path / "z3.json"
        spec.write_text(json.dumps(z3.to_dict()))
        assert main(["finite-h0", "--group", str(spec)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["one-in-span"] is False
        assert payload["residual-l1"] == "3/1"


class TestGeneratorDifferences:
    def test_labels_cover_letters(self, f2, z3):
        f = indicator(f2, f2.ball(1))
        diffs = letter_differences(f2, f)
        assert set(diffs) == {"a", "a^-1", "b", "b^-1"}
        g = indicator(z3, [0])
        assert set(letter_differences(z3, g)) == {"g1", "g1^-1"}

    def test_weighted_matches_translate_oracle(self, f2, z2, z3, s3, rng):
        for group in (f2, z2, z3, s3, *mixed_finite_groups()):
            for _ in range(60):
                terms = [(random_element(rng, group), random_fraction(rng)) for _ in range(rng.randint(1, 8))]
                f = abs_fn(FinSuppFn(group, terms))
                if f.is_zero:
                    continue
                assert letter_differences(group, f) == translate_oracle(group, f)

    def test_indicator_sets_match_translate_oracle(self, f2, z2, z3, s3, rng):
        for group in (f2, z2, z3, s3, *mixed_finite_groups()):
            for _ in range(60):
                # repeats are drawn on purpose: the certificate counts a set
                members = [random_element(rng, group) for _ in range(rng.randint(1, 12))]
                f = indicator(group, set(members))
                expected = translate_oracle(group, f)
                assert letter_differences(group, f) == expected
                cert = folner_certificate_from_set(group, members)
                assert cert.differences == {k: int(v) for k, v in expected.items()}
                # each letter counted on its own, in letters() order
                assert list(cert.differences.items()) == list(symmetric_differences(group, members).items())
                assert cert.ratio == sum(expected.values()) / len(set(members))
                assert cert.ratio == symmetric_difference_ratio(group, members)

    def test_one_translate_pass_per_inverse_pair(self, f2, z2, rng, monkeypatch):
        z6, d5 = mixed_finite_groups()[1:]
        # (group, letters, pairs): Z/6 on [3, 1] and D_5 on [5, 1, 6] have self-inverse letters
        for group, n_letters, n_pairs in ((f2, 4, 2), (z2, 4, 2), (z6, 3, 2), (d5, 4, 3)):
            assert (len(group.letters()), len(group.letter_pairs())) == (n_letters, n_pairs)
            shifts = []

            def counted(s, elems, base=group.left_translates):
                shifts.append(s)
                return base(s, elems)

            monkeypatch.setattr(group, "left_translates", counted)
            members = [random_element(rng, group) for _ in range(6)]
            cert = folner_certificate_from_set(group, members)
            assert shifts == [s for s, _ in group.letter_pairs()]
            shifts.clear()
            _, diffs, _ = reiter_counts(group, indicator(group, members))
            assert shifts == [s for s, _ in group.letter_pairs()]
            assert list(diffs) == list(cert.differences) == [label for label, _ in group.letters()]


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def weighted(rng, group, denominators, signed=False):
    """Distinct random elements carrying the given denominators."""
    elems = list(dict.fromkeys(random_element(rng, group) for _ in range(4 * len(denominators))))
    coeffs = {}
    for g, d in zip(elems, denominators):
        num = rng.randint(1, 60) * (rng.choice((-1, 1)) if signed else 1)
        coeffs[g] = Fraction(num, d)
    return FinSuppFn(group, coeffs)


def integer_route_cases(rng, group, signed=False):
    yield weighted(rng, group, PRIMES, signed)  # pairwise coprime denominators
    yield weighted(rng, group, [10**40, 10**40, 3, 10**40 + 1], signed)
    yield weighted(rng, group, [7], signed)  # one-element support
    yield FinSuppFn(group, {group.identity: Fraction(1, 10**40)})
    for _ in range(10):
        yield weighted(rng, group, [rng.choice(PRIMES) ** rng.randint(1, 3) for _ in range(9)], signed)


class TestIntegerRoute:
    """The integer count over one denominator against the Fraction oracle."""

    def test_reiter_matches_fraction_oracle(self, f2, z2, z3, s3, rng):
        for group in (f2, z2, z3, s3, *mixed_finite_groups()):
            for f in integer_route_cases(rng, group):
                expected = translate_oracle(group, f)
                assert Fraction(sum(map(abs, f.nums.values())), f.den) == plain_l1(f)
                assert letter_differences(group, f) == expected
                diffs, ratio = letter_differences(group, f), reiter_ratio(group, f)
                assert diffs == expected
                assert ratio == sum(expected.values(), Fraction(0)) / plain_l1(f)
                assert reiter_ratio(group, f) == ratio

    def test_signed_coefficients(self, f2, z2, z3, s3, rng):
        # translate_distances and the integer l1 sum assume no sign; only the Reiter ratio does
        for group in (f2, z2, z3, s3, *mixed_finite_groups()):
            for f in integer_route_cases(rng, group, signed=True):
                assert Fraction(sum(map(abs, f.nums.values())), f.den) == plain_l1(f)
                d, mass, dists = f.translate_distances(s for _, s in group.letters())
                assert Fraction(mass, d) == plain_l1(f)
                assert [Fraction(x, d) for x in dists] == list(translate_oracle(group, f).values())

    def test_one_denominator_is_the_lcm(self, f2):
        f = FinSuppFn(f2, {(): Fraction(1, 4), (1,): Fraction(5, 6), (2,): Fraction(-7, 10**40)})
        d, n = f.den, f.nums
        assert d == 3 * 10**40
        assert n == {(): 3 * 10**40 // 4, (1,): 25 * 10**39, (2,): -21}
        assert (FinSuppFn.zero(f2).den, FinSuppFn.zero(f2).nums) == (1, {})

    def test_counts_cancel_the_denominator(self, z2):
        f = FinSuppFn(z2, {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 6)})
        d, diffs, mass = reiter_counts(z2, f)
        assert (d, mass) == (6, 3)
        # n = 2 at (0,0) and 1 at (1,0): a.n - n is -2, 1, 1 on (0,0), (1,0), (2,0)
        assert diffs == {"a": 4, "a^-1": 4, "b": 6, "b^-1": 6}
        assert reiter_ratio(z2, f) == Fraction(20, 3)
