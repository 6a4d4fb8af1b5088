"""The bulk translation kernels against the per-point loops they replaced.

`GroupSpec.left_translates` gives s.h for a whole list of elements in one
pass per group family. `FinSuppFn.translate_distances` and
`folner_certificate_from_set` read it, one pass per letter. Their earlier
bodies, one `mul` call per (shift, point), are kept here as oracles: on
every drawn group, shift and support both must give the same values.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amencert.amenability import _box, folner_certificate_from_set
from amencert.functions import FinSuppFn
from amencert.groups import FiniteGroup, FreeAbelianGroup, FreeGroup, cyclic_group
from conftest import dihedral_table, s3_group

SETTINGS = dict(derandomize=True, database=None, deadline=None)

GROUPS = (
    [FreeGroup(r) for r in range(1, 5)]
    + [FreeAbelianGroup(r) for r in range(1, 5)]
    + [cyclic_group(n) for n in (1, 2, 5, 12)]
    + [FiniteGroup(dihedral_table(n), generators=(1, n)) for n in (3, 6)]
    + [s3_group()]
)


def elements(group):
    """Drawn elements: reduced words of up to 6 letters, vectors in [-4, 4]^d, or table indices."""
    if isinstance(group, FreeGroup):
        letters = st.sampled_from([k for k in range(-group.rank, group.rank + 1) if k])
        return st.lists(letters, max_size=6).map(lambda word: reduce(group.mul, ((k,) for k in word), ()))
    if isinstance(group, FreeAbelianGroup):
        return st.tuples(*[st.integers(-4, 4)] * group.rank)
    return st.integers(0, group.order - 1)


@st.composite
def group_shift_elems(draw):
    """A group, a shift (one of its letters or any element) and a list of elements."""
    group = draw(st.sampled_from(GROUPS))
    shift = draw(st.sampled_from([s for _, s in group.letters()] or [group.identity]) | elements(group))
    return group, shift, draw(st.lists(elements(group), max_size=30))


@st.composite
def group_functions(draw, min_size=0):
    """A group and a function on it with signed rational coefficients."""
    group = draw(st.sampled_from(GROUPS))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    support = draw(st.dictionaries(elements(group), coeffs, min_size=min_size, max_size=30))
    return group, FinSuppFn(group, support)


def oracle_translate_distances(f, shifts):
    """FinSuppFn.translate_distances as it made one mul call per support point and shift."""
    d, n = f.den, f.nums
    mass = sum(map(abs, n.values()))
    mul = f.group.mul
    out = []
    for g in shifts:
        total = mass
        for h, c in n.items():
            m = n.get(mul(g, h))
            total += abs(c) if m is None else abs(c - m) - abs(m)
        out.append(total)
    return d, mass, out


def oracle_differences(group, members):
    """folner_certificate_from_set's differences as it tested s.g in F for every letter and member."""
    inside = dict.fromkeys(members)
    return {label: 2 * sum(group.mul(s, g) not in inside for g in inside) for label, s in group.letters()}


@settings(max_examples=200, **SETTINGS)
@given(group_shift_elems())
def test_left_translates_is_mul_on_each_element(case):
    group, s, elems = case
    assert list(group.left_translates(s, elems)) == [group.mul(s, h) for h in elems]
    # an iterator of elements works as well as a list
    assert list(group.left_translates(s, iter(elems))) == [group.mul(s, h) for h in elems]


@pytest.mark.parametrize("group", GROUPS)
def test_left_translates_empty_and_identity(group):
    e = group.identity
    shifts = [e] + [s for _, s in group.letters()]
    for s in shifts:
        assert list(group.left_translates(s, [])) == []
        assert list(group.left_translates(s, [e])) == [s]
        assert list(group.left_translates(e, [s])) == [s]


@settings(max_examples=100, **SETTINGS)
@given(group_functions(), st.data())
def test_translate_distances_match_the_per_point_loop(case, data):
    group, f = case
    shifts = [s for _, s in group.letters()] + data.draw(st.lists(elements(group), max_size=3))
    d, mass, dists = f.translate_distances(shifts)
    assert (d, mass, dists) == oracle_translate_distances(f, shifts)
    # and the definition: D ||g.f - f||_1
    assert dists == [(f.translate(g) - f).l1_norm() * d for g in shifts]


def oracle_intersections(group, members):
    """folner_certificate_from_set's differences as it built the set F n sF once per inverse pair of letters."""
    inside = dict.fromkeys(members)
    keys = inside.keys()
    return {label: 2 * (len(inside) - len(keys & group.left_translates(s, inside)))
            for s, labels in group.letter_pairs() for label in labels}


@settings(max_examples=100, **SETTINGS)
@given(group_functions(min_size=1), st.randoms(use_true_random=False))
def test_folner_membership_count_is_the_intersection_count(case, rng):
    group, f = case
    members = [g for g, _ in f.items()]
    rng.shuffle(members)
    cert = folner_certificate_from_set(group, members + members[: len(members) // 2])  # repeats count once
    assert cert.differences == oracle_intersections(group, members)


@settings(max_examples=100, **SETTINGS)
@given(group_functions(min_size=1))
def test_folner_count_matches_the_per_point_loop(case):
    group, f = case
    members = [g for g, _ in f.items()]
    cert = folner_certificate_from_set(group, members)
    assert cert.differences == oracle_differences(group, members)
    assert cert.ratio == Fraction(sum(cert.differences.values()), len(members))


@settings(max_examples=40, **SETTINGS)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, {1: 60, 2: 20, 3: 8, 4: 5}[d]))))
def test_folner_count_on_boxes(case):
    d, side = case
    group = FreeAbelianGroup(d)
    box = _box(group, side)
    cert = folner_certificate_from_set(group, box, "boxes", side)
    assert cert.differences == oracle_differences(group, box)
    # each letter moves one face of side^(d - 1) points out of the box
    assert set(cert.differences.values()) == {2 * side ** (d - 1)}
