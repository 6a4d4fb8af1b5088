"""Amenability certificates: Reiter ratios, Folner search, exact obstructions.

The Reiter ratio of a nonnegative summable function f is

    sum over s in S u S^-1 of ||s.f - f||_1 / ||f||_1,

an exact rational; indicator functions of finite sets recover the usual
symmetric-difference Folner quotient, which a Folner certificate counts
in integers by set membership. A certificate holds the witness set and
its per-generator differences, from which it can be revalidated
independently. `folner_search` reads the size and ratio of boxes in Z^d
and of balls in free groups from closed forms, and builds and counts only
the set it returns, so a free group's failure report builds no ball;
balls of Z^d and of finite groups are built and counted one radius at a
time. The non-amenable side is backed by `isoperimetric_argmin`, the
minimum ratio over every nonempty subset of a ball with a set attaining
it. On a free group it is a theorem, the forest count: every finite set
has ratio above 4(rank - 1), and the ball itself is the unique minimizer;
a finite group's ball that has reached the group's order has the unique
minimizer G at ratio 0. Every other ball (Z^d, or a finite ball short of
the group) is enumerated subset by subset, scored by an incremental edge
count. On the finite-group side the
augmentation functional (the sum of the coordinates) is a closed-form
witness that the all-ones vector never lies in the span of translation
differences: it vanishes on the span and takes the value |G| on the
all-ones vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .functions import FinSuppFn, frac
from .groups import (
    Element, FiniteGroup, FreeAbelianGroup, FreeGroup, GroupSpec, _check_radius, free_ball_letters, free_ball_size,
)


def indicator(group: GroupSpec, members: Iterable[Element]) -> FinSuppFn:
    """1 on each member, 0 elsewhere; a repeated member counts once. The members are checked
    first, as dict.fromkeys would fold False onto 0, or (True,) onto (1,), unchecked."""
    return FinSuppFn._raw(group, 1, dict.fromkeys([group.check(g) for g in members], 1))


def _by_label(pairs: Sequence[tuple[Element, tuple[str, ...]]], values: Iterable[int]) -> dict[str, int]:
    """Each pair's value under every label of the pair: keys in letters() order."""
    return {label: x for (_, labels), x in zip(pairs, values) for label in labels}


def reiter_counts(group: GroupSpec, f: FinSuppFn) -> tuple[int, dict[str, int], int]:
    """The Reiter quantities of a nonnegative, nonzero f as integers over one denominator.

    Returns (D, diffs, mass): ||s.f - f||_1 = diffs[s] / D for every letter
    s, and ||f||_1 = mass / D. The ratio sum_s ||s.f - f||_1 / ||f||_1 is
    then sum(diffs) / mass, as D cancels, and mass > 0 as f is nonzero.

    One translate pass per inverse pair of letters (GroupSpec.letter_pairs):
    translation by s is a bijection of G, so an l1 isometry, and
    ||s^-1.f - f||_1 = ||s^-1.(f - s.f)||_1 = ||s.f - f||_1.
    """
    if f.group != group:
        raise ValueError("function is defined over a different group")
    if f.is_zero:
        raise ValueError("the Reiter ratio of the zero function is undefined")
    if min(f.nums.values()) < 0:  # f = nums / den with den > 0, and nums is nonempty as f is nonzero
        raise ValueError("the Reiter ratio requires a nonnegative function")
    pairs = group.letter_pairs()
    d, mass, dists = f.translate_distances(s for s, _ in pairs)
    return d, _by_label(pairs, dists), mass


def reiter_ratio(group: GroupSpec, f: FinSuppFn) -> Fraction:
    """Normalized generator-difference ratio of a nonnegative, nonzero f.

    No command calls it (the CLI reads `reiter_counts`); it stays public
    because `perfbench/tracing.py` looks it up by name for its
    `amenability.reiter` span, which therefore reads 0 on CLI runs.
    """
    _, diffs, mass = reiter_counts(group, f)
    return Fraction(sum(diffs.values()), mass)


class FolnerCertificate(NamedTuple):
    """A finite set whose generator translates move at most `ratio` of it."""

    group: GroupSpec
    strategy: str
    parameter: int
    members: tuple[Element, ...]
    differences: dict[str, int]
    ratio: Fraction


class FolnerFailure(NamedTuple):
    """Exhausted search: the best ratio seen at each parameter value."""

    group: GroupSpec
    strategy: str
    eps: Fraction
    max_parameter: int
    attempts: list[tuple[int, int, Fraction]]  # (parameter, set size, ratio)

    @property
    def best_ratio(self) -> Fraction:
        return min(ratio for _, _, ratio in self.attempts)


def folner_certificate_from_set(
    group: GroupSpec, members: Sequence[Element], strategy: str = "explicit", parameter: int = 0, *, _raw=False
) -> FolnerCertificate:
    """Build (or revalidate) a certificate directly from a candidate set.

    On the checked route every member is checked, repeats count once, and
    the members are sorted by `group.sort_key`. The `_raw` route takes the
    members as given, which must be distinct, valid, in canonical order:
    `folner_search` takes it for the sets it builds by group operations,
    `_box` and `group.ball`, both in `sort_key` order, as `FinSuppFn._raw`
    is taken for values built from checked parts.

    Counted in integers, one `GroupSpec.left_translates` pass per inverse
    pair of letters (GroupSpec.letter_pairs): |sF| = |F|, so
    |sF symmetric-difference F| = 2(|F| - |sF n F|). Left translation by s
    is injective and the members are distinct, so the translates s.g are
    distinct, and |sF n F| is the number of them that land in F: one
    membership test each, with no intersection set built. Translation by s
    is a bijection, so |s^-1 F n F| = |F n sF|: the count for s is also
    the count for s^-1.
    """
    inside = set(members if _raw else map(group.check, members))
    if not inside:
        raise ValueError("a Folner certificate needs a nonempty set")
    members = tuple(members if _raw else sorted(inside, key=group.sort_key))
    size, contains, translates, pairs = len(members), inside.__contains__, group.left_translates, group.letter_pairs()
    differences = _by_label(pairs, (2 * (size - sum(map(contains, translates(s, members)))) for s, _ in pairs))
    return FolnerCertificate(
        group=group,
        strategy=strategy,
        parameter=parameter,
        members=members,
        differences=differences,
        ratio=Fraction(sum(differences.values()), size),
    )


# the largest candidate set folner_search may build, ball or box
MAX_FOLNER_ELEMS = 10**6
# the most letters a free ball that folner_search or isoperimetric_argmin builds may hold:
# the element caps bound every rank but F_1, whose B_r holds r(r + 1) letters
MAX_BALL_LETTERS = 10**7


def _check_letters(group: GroupSpec, radius: int) -> None:
    """Refuse a free ball of more than MAX_BALL_LETTERS letters, counted before any level is built."""
    if isinstance(group, FreeGroup) and free_ball_letters(group.rank, radius, MAX_BALL_LETTERS) > MAX_BALL_LETTERS:
        raise ValueError(f"the ball of radius {radius} holds more than {MAX_BALL_LETTERS} letters")


def _box(group: FreeAbelianGroup, side: int) -> list[tuple[int, ...]]:
    """The box {0, ..., side - 1}^rank of Z^rank, in `sort_key` order.

    product(range(side), repeat=rank) yields the points in lexicographic
    order. FreeAbelianGroup.sort_key(a) is (l1 norm of a, a), and every
    coordinate here is >= 0, so the l1 norm is sum(a). A stable sort by
    sum keeps lexicographic order among points of equal sum, which is the
    order of the key's second part. So the points come out sorted by
    sort_key, as folner_certificate_from_set's `_raw` route requires.
    """
    return sorted(product(range(side), repeat=group.rank), key=sum)


def _free_ball_ratio(rank: int, size: int) -> Fraction:
    """The ratio 4(rank - 1) + 4/size of a ball of `size` elements in a free group.

    Proved in folner_search (the ball's edges form a tree) and in
    isoperimetric_argmin (the forest count).
    """
    return 4 * (rank - 1) + Fraction(4, size)


def _closed_form(group: GroupSpec, strategy: str):
    """parameter -> (set size, ratio) for boxes and free balls, else None; proofs in folner_search."""
    if strategy == "boxes":
        d = group.rank
        return lambda n: (n**d, Fraction(4 * d, n))
    if isinstance(group, FreeGroup):
        k = group.rank

        def ball(r: int) -> tuple[int, Fraction]:
            size = free_ball_size(k, r, MAX_FOLNER_ELEMS)
            return size, _free_ball_ratio(k, size)

        return ball
    return None


def folner_search(
    group: GroupSpec, eps: Fraction, strategy: str = "balls", max_radius: int = 10
) -> FolnerCertificate | FolnerFailure:
    """Scan balls (any family) or boxes (free-abelian) for ratio <= eps.

    Failure is a value, not an error: the report lists the ratio reached at
    every parameter tried, so the caller sees how the search degenerated.
    Before any candidate is built, the largest one is counted in closed
    form (side^rank for a box, GroupSpec.ball_size for a ball) and a
    count above MAX_FOLNER_ELEMS is refused, as is a free ball of more
    than MAX_BALL_LETTERS letters.

    Two families have every candidate's size and ratio in closed form, so
    no rejected candidate is built:

    - A box of side n in Z^d has n^d points and ratio 4d/n. For the letter
      s = +-e_i, s.g leaves the box exactly when g sits on the face
      x_i = n - 1 (or x_i = 0), which holds n^(d-1) points; so each of
      the 2d letters has |sF symmetric-difference F| = 2 n^(d-1).
    - A ball B_r in F_k has |B_r| = free_ball_size(k, r) and ratio
      4(k - 1) + 4/|B_r|. Dropping the first letter of a nonempty word in
      B_r gives a shorter one, so the edges {g, s.g} inside B_r connect it;
      the Cayley graph of F_k on a free basis is a tree, so there are
      |B_r| - 1 such edges, and 2(|B_r| - 1) of the 2k|B_r| pairs (s, g)
      stay inside. The other 2(k - 1)|B_r| + 2 pairs leave, and each
      counts twice in the differences. F_1 gives 4/(2r + 1); F_2 at
      r = 2 gives 72/17.

    Only the accepted set is built, and folner_certificate_from_set counts
    it on the `_raw` route, as every member is made by group operations; a
    count that disagrees with the closed form raises. So the returned
    certificate is counted, not assumed, and a search that fails
    builds nothing (every F_k with k >= 2 and eps <= 4(k - 1)). Balls of
    Z^d and of finite groups have no closed form here and are built and
    counted one radius at a time.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if strategy not in ("balls", "boxes"):
        raise ValueError(f"unknown search strategy {strategy!r}")
    if strategy == "boxes" and not isinstance(group, FreeAbelianGroup):
        raise ValueError("the box strategy only applies to free-abelian groups")
    if max_radius < (1 if strategy == "boxes" else 0):
        raise ValueError("max_radius leaves no candidate sets to try")
    if strategy == "boxes" and max_radius ** group.rank > MAX_FOLNER_ELEMS:
        raise ValueError(
            f"a box of side {max_radius} in rank {group.rank} exceeds the cap of {MAX_FOLNER_ELEMS} elements"
        )
    if strategy == "balls" and group.ball_size(max_radius, MAX_FOLNER_ELEMS) > MAX_FOLNER_ELEMS:
        raise ValueError(f"the ball of radius {max_radius} exceeds the cap of {MAX_FOLNER_ELEMS} elements")
    _check_letters(group, max_radius)

    if strategy == "boxes":
        parameters, build = range(1, max_radius + 1), partial(_box, group)
    else:
        parameters, build = range(max_radius + 1), group.ball
    closed_form = _closed_form(group, strategy)
    attempts = []
    for parameter in parameters:
        if closed_form is not None:
            size, ratio = closed_form(parameter)
            if ratio > eps:
                attempts.append((parameter, size, ratio))
                continue
        cert = folner_certificate_from_set(group, build(parameter), strategy, parameter, _raw=True)
        if closed_form is not None and (len(cert.members), cert.ratio) != (size, ratio):
            raise RuntimeError(
                f"{strategy} parameter {parameter}: counted {len(cert.members)} elements of ratio "
                f"{cert.ratio}, closed form {size} of ratio {ratio}"
            )
        if cert.ratio <= eps:
            return cert
        attempts.append((parameter, len(cert.members), cert.ratio))
    return FolnerFailure(group, strategy, eps, max_radius, attempts)


# the largest ball isoperimetric_argmin enumerates: 2^18 - 1 subsets
MAX_ISO_BALL = 18
# the largest ball isoperimetric_argmin answers at all: the certificate prints
# the ball and 2^|B| - 1, which has at most 4300 digits, all that str(int) writes
MAX_ISO_OUTPUT = 14284


def isoperimetric_argmin(group: GroupSpec, radius: int) -> tuple[Fraction, tuple[Element, ...]]:
    """Minimum Reiter ratio over every nonempty subset of ball(radius), and a minimizer.

    The ball is counted by `group.ball_size` before anything is built, and
    one of more than MAX_ISO_OUTPUT elements, or a free ball of more than
    MAX_BALL_LETTERS letters, is refused. Two cases then
    have a proved, unique minimizer, the whole ball B, and return it
    without enumeration; any other ball of more than MAX_ISO_BALL elements
    is refused, and the rest go to _iso_enumerate. Write k for the number
    of letters and internal[F] for the number of pairs (s, g) with g and
    s.g in F, so that sum_s |sF symmetric-difference F| = 2(k|F| - internal[F]).

    - Free group of rank n (the forest count; Lyons-Peres, Probability on
      Trees and Networks, ch. 6). The pairs {g, s.g} with both ends in F
      are edges of the Cayley tree, so they form a forest with
      e <= |F| - c edges, c >= 1 its components, and internal[F] = 2e.
      So sum_s |sF symmetric-difference F| = 4n|F| - 4e >= (4n - 4)|F| + 4c
      and the ratio is at least 4(n - 1) + 4c/|F| > 4(n - 1) on every
      finite F. Within B this is least exactly when c = 1 and |F| = |B|,
      that is F = B, which is connected (drop a word's first letter): the
      ratio is 4(n - 1) + 4/|B|.
    - Finite group whose ball has reached its order. F = G has ratio 0, and
      ratio 0 means sF = F for every letter s; the letters generate G, so
      a nonempty such F is G.

    The minimizer being unique, the lowest-mask tie rule of the
    enumeration never changes these answers.
    """
    _check_radius(radius)
    size = group.ball_size(radius, MAX_ISO_OUTPUT)
    if size > MAX_ISO_OUTPUT:
        raise ValueError(f"the ball of radius {radius} has more than {MAX_ISO_OUTPUT} elements, the iso-min cap")
    _check_letters(group, radius)
    if isinstance(group, FreeGroup):
        return _free_ball_ratio(group.rank, size), group.ball(radius)
    if isinstance(group, FiniteGroup) and size == group.order:
        return Fraction(0), group.ball(radius)
    if size > MAX_ISO_BALL:
        raise ValueError(
            f"the ball of radius {radius} has {size} elements; subset enumeration is capped at {MAX_ISO_BALL}"
        )
    return _iso_enumerate(group, group.ball(radius))


def _iso_enumerate(group: GroupSpec, ball: tuple[Element, ...]) -> tuple[Fraction, tuple[Element, ...]]:
    """Brute force over the 2^|ball| - 1 nonempty subsets of ball by an incremental edge count.

    internal[F] is the number of pairs (s, g) with g and s.g both in F, s
    running over the k letters. Then |sF n F| summed over s is internal[F],
    and as |sF| = |F|, sum_s |sF symmetric-difference F| = 2(k|F| - internal[F]).

    - nb[i] has the bit of s.ball[i] for every letter s whose product stays
      in the ball. letters() deduplicates its elements and s -> s.g is
      injective, so distinct letters give distinct bits and
      popcount(nb[i] & R) counts the pairs (s, ball[i]) with s.ball[i] in R.
    - Peeling the lowest member g = ball[i] of F leaves R = F - {g}. The
      pairs of F not inside R are the out-edges (s, g) with s.g in R, the
      in-edges (s, h) with h in R and s.h = g, and the self-loops (s, g)
      with s.g = g. The letter set is closed under inversion, so
      (s, h) -> (s^-1, g) maps the in-edges one to one onto the out-edges:
      together they give 2 popcount(nb[i] & R). No letter is the identity
      (FiniteGroup rejects an identity generator; free and free-abelian
      generators are never trivial), so there are no self-loops.

    Masks are visited in increasing order and a strictly smaller ratio
    replaces the best, so ties keep the lowest mask.
    """
    n = len(ball)
    index = {g: i for i, g in enumerate(ball)}
    mul = group.mul
    letters = [s for _, s in group.letters()]
    # products that leave the ball get no bit: no candidate subset holds them
    nb = []
    for g in ball:
        bits = 0
        for s in letters:
            j = index.get(mul(s, g))
            if j is not None:
                bits |= 1 << j
        nb.append(bits)
    k = len(letters)
    internal = [0] * (1 << n)
    best_num, best_den, best_mask = 1, 0, 0  # 1/0: beaten by the first mask
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        inside = internal[rest] + 2 * (nb[low.bit_length() - 1] & rest).bit_count()
        internal[mask] = inside
        size = mask.bit_count()
        num = 2 * (k * size - inside)  # sum over letters of |sF symmetric-difference F|
        if num * best_den < best_num * size:
            best_num, best_den, best_mask = num, size, mask
    members = tuple(ball[i] for i in range(n) if (best_mask >> i) & 1)
    return Fraction(best_num, best_den), members


class FiniteH0Report(NamedTuple):
    """Exact check that the all-ones vector avoids the translation-difference span."""

    group: GroupSpec
    order: int
    span_dimension: int
    one_in_span: bool
    residual_l1: Fraction


def finite_h0(group: FiniteGroup) -> FiniteH0Report:
    """The all-ones vector avoids span{g.delta_h - delta_h}: the augmentation witness.

    Let n = |G| and let eps(v) be the sum of the coordinates of v.

    - Every row delta_gh - delta_h has coefficient sum 0, so the span lies
      in ker eps and has rank at most n - 1; eps(1) = n != 0, so the
      all-ones vector 1 is not in the span.
    - The n - 1 rows with h = e are delta_g - delta_e for g != e. Each
      is the only one of them with a nonzero coordinate g, so they are
      independent and the rank is exactly n - 1.
    - Reducing 1 along those rows clears every coordinate g != e and, as
      each step preserves eps, leaves n.delta_e: residual l1 norm n.

    The span runs over all g in G, so none of this depends on the
    declared generators; it uses only the group axioms, which FiniteGroup
    validated on construction.
    """
    if not isinstance(group, FiniteGroup):
        raise ValueError("the exact span check requires a finite group")
    n = group.order
    return FiniteH0Report(group, n, n - 1, False, Fraction(n))
