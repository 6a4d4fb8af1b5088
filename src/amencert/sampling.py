"""Seeded random instances for property checks.

Used by the test suite and by the CLI selftest; everything is driven by a
caller-supplied `random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import DUAL_FULL, KIND_L1, KIND_LINF, BoundedCochain, EquivariantChain, UfChain
from .functions import BoundedFn, FinSuppFn, TreeFlow
from .groups import Element, FiniteGroup, FreeAbelianGroup, FreeGroup, GroupSpec

MAX_DRAWS = 3  # each builder draws 1 to MAX_DRAWS terms or entries


def random_element(rng: random.Random, group: GroupSpec, max_len: int = 3) -> Element:
    if isinstance(group, FreeGroup):
        word: list[int] = []
        for _ in range(rng.randint(0, max_len)):
            choices = [s for s in range(-group.rank, group.rank + 1) if s and (not word or s != -word[-1])]
            word.append(rng.choice(choices))
        return tuple(word)
    if isinstance(group, FreeAbelianGroup):
        return tuple(rng.randint(-max_len, max_len) for _ in range(group.rank))
    assert isinstance(group, FiniteGroup)
    return rng.randrange(group.order)


def random_fraction(rng: random.Random, allow_zero: bool = False) -> Fraction:
    num = rng.randint(-3, 3)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 3))


def random_finsupp(rng: random.Random, group: GroupSpec, max_len: int = 3) -> FinSuppFn:
    """1 to MAX_DRAWS drawn (element, rational) terms; repeated elements sum."""
    terms = [(random_element(rng, group, max_len), random_fraction(rng)) for _ in range(rng.randint(1, MAX_DRAWS))]
    return FinSuppFn(group, terms)


def random_boundedfn(rng: random.Random, group: GroupSpec, max_len: int = 3) -> BoundedFn:
    """A constant (shape 0), a finite part (shape 1) or both (shape 2); on a
    free group, half the draws add a tree flow term c (s . TreeFlow(edge, ray))."""
    shape = rng.randrange(3)
    const = 0 if shape == 1 else random_fraction(rng, allow_zero=shape == 0)
    fn = FinSuppFn.zero(group) if shape == 0 else random_finsupp(rng, group, max_len=max_len)
    value = BoundedFn(group, const, fn)
    if isinstance(group, FreeGroup) and rng.randrange(2):
        edge = rng.choice([s for s in range(-group.rank, group.rank + 1) if s])
        flow = TreeFlow(group, edge, rng.randint(1, group.rank)).translate(random_element(rng, group, max_len))
        value += flow * random_fraction(rng)
    return value


def random_tuple(rng: random.Random, group: GroupSpec, length: int, max_len: int = 2) -> tuple:
    return tuple(random_element(rng, group, max_len) for _ in range(length))


def _entries(rng: random.Random, group: GroupSpec, length: int, max_len: int, value) -> dict:
    """1 to MAX_DRAWS drawn (length-tuple key, value(rng)) entries; each key is drawn before its value."""
    return {random_tuple(rng, group, length, max_len): value(rng) for _ in range(rng.randint(1, MAX_DRAWS))}


def random_l1_chain(rng: random.Random, group: GroupSpec, degree: int, max_len: int = 2) -> EquivariantChain:
    entries = _entries(rng, group, degree, max_len, lambda rng: random_finsupp(rng, group, max_len=max_len))
    return EquivariantChain(group, degree, KIND_L1, entries)


def random_linf_chain(rng: random.Random, group: GroupSpec, degree: int, max_len: int = 2) -> EquivariantChain:
    entries = _entries(rng, group, degree, max_len, lambda rng: random_boundedfn(rng, group, max_len))
    return EquivariantChain(group, degree, KIND_LINF, entries)


def random_cochain(rng: random.Random, group: GroupSpec, degree: int, max_len: int = 2) -> BoundedCochain:
    entries = _entries(rng, group, degree, max_len, lambda rng: random_finsupp(rng, group, max_len=max_len))
    return BoundedCochain(group, degree, DUAL_FULL, entries=entries)


def random_uf_chain(rng: random.Random, group: GroupSpec, degree: int, max_len: int = 2) -> UfChain:
    return UfChain(group, degree, _entries(rng, group, degree + 1, max_len, random_fraction))
