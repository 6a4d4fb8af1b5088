"""Seeded random instances for property checks, and the selftest that runs them.

`selftest` is the body of the CLI's `selftest` command, the one command
that imports this module; the test suite draws its instances from the
builders here. Everything is driven by a caller-supplied `random.Random`
(the selftest's is seeded from its argument), so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import (
    DUAL_FULL, KIND_L1, KIND_LINF, BoundedCochain, EquivariantChain, UfChain, connecting_lift_check, deflate, inflate
)
from .functions import BoundedFn, FinSuppFn, tree_flow
from .groups import Element, FiniteGroup, FreeAbelianGroup, FreeGroup, GroupSpec, cyclic_group
from .pairing import adjointness_values

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
    free group, half the draws add a tree flow term c (s . tree_flow(edge, ray))."""
    shape = rng.randrange(3)
    const = 0 if shape == 1 else random_fraction(rng, allow_zero=shape == 0)
    fn = FinSuppFn.zero(group) if shape == 0 else random_finsupp(rng, group, max_len=max_len)
    value = BoundedFn(group, const, fn)
    if isinstance(group, FreeGroup) and rng.randrange(2):
        edge = rng.choice([s for s in range(-group.rank, group.rank + 1) if s])
        flow = tree_flow(group, edge, rng.randint(1, group.rank)).translate(random_element(rng, group, max_len))
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


def _holds(ok: bool, broken: str) -> None:
    """A selftest check: AssertionError(broken) when ok is false, raised by code that `python -O`
    keeps; `broken` says which property fails, and the selftest writes it as the check's error."""
    if not ok:
        raise AssertionError(broken)


def selftest(seed: int, trials: int) -> list[tuple[str, int, str | None]]:
    """Seeded randomized property checks across the whole library, as (name, trials, error) rows.

    Each check runs `trials` times (at least once) over F_2, Z^2 and Z/3,
    drawn from random.Random(seed). A check that passes has error None; one
    that raises is recorded with 0 trials and its error text.
    """
    rng = random.Random(seed)
    trials = max(1, trials)
    specs = [FreeGroup(2), FreeAbelianGroup(2), cyclic_group(3)]
    checks = []

    def run(name, fn):
        try:
            checks.append((name, fn(), None))
        except Exception as exc:  # a failing property is a verified failure, not an input error
            checks.append((name, 0, str(exc)))

    def group_laws():
        n = 0
        for _ in range(trials):
            g = rng.choice(specs)
            a, b, c = (random_element(rng, g) for _ in range(3))
            _holds(g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c)), "multiplication is not associative")
            _holds(g.mul(a, g.identity) == a and g.mul(g.identity, a) == a, "the identity is not a two-sided unit")
            _holds(g.mul(a, g.inv(a)) == g.identity, "an element times its inverse is not the identity")
            n += 3
        return n

    def complex_axioms():
        n = 0
        for _ in range(trials):
            g = rng.choice(specs)
            chain = random_l1_chain(rng, g, rng.randint(2, 3))
            _holds(chain.boundary().boundary().is_zero, "boundary of a boundary of an l1 chain is not zero")
            uf = random_uf_chain(rng, g, rng.randint(2, 3))
            _holds(uf.boundary().boundary().is_zero, "boundary of a boundary of a uniformly finite chain is not zero")
            linf = random_linf_chain(rng, g, rng.randint(2, 3))
            _holds(linf.boundary().boundary().is_zero, "boundary of a boundary of a bounded chain is not zero")
            phi = random_cochain(rng, g, rng.randint(0, 1))
            dd = phi.coboundary().coboundary()
            for _ in range(3):
                key = tuple(random_element(rng, g, 2) for _ in range(dd.degree))
                _holds(dd.value_at(key).is_zero, "coboundary of a coboundary is not zero")
            n += 4
        return n

    def adjointness():
        n = 0
        for _ in range(trials):
            g = rng.choice(specs)
            m = rng.randint(0, 2)
            left, right = adjointness_values(random_cochain(rng, g, m), random_l1_chain(rng, g, m + 1))
            _holds(left == right, "the two adjointness routes disagree")
            n += 1
        return n

    def inflation():
        n = 0
        for _ in range(trials):
            g = rng.choice(specs)
            uf = random_uf_chain(rng, g, rng.randint(0, 2))
            _holds(deflate(inflate(uf)) == uf, "deflation does not undo inflation")
            if uf.degree >= 1:
                _holds(inflate(uf.boundary()) == inflate(uf).boundary(), "inflation does not commute with the boundary")
            n += 1
        return n

    def connecting():
        for g in specs:
            _holds(connecting_lift_check(g), "the coboundary of the lifted constant one is not Johnson's cocycle")
        return len(specs)

    run("group-laws", group_laws)
    run("complex-axioms", complex_axioms)
    run("adjointness", adjointness)
    run("inflation-isomorphism", inflation)
    run("connecting-map", connecting)
    return checks
