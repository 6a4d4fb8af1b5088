"""The explicit free-group non-amenability witness.

Fix a free group with a boundary point p at the end of the ray generated
by one letter. Every group element g determines a geodesic from the
identity toward g.p, and the flow cycle assigns to each directed edge at
the identity the indicator of "this edge starts that geodesic", extended
to all edges by equivariance. The incoming flow at a vertex exceeds the
outgoing flow by a constant (2 rank - 2), and pairing the resulting cycle
against the degree-1 quotient-dual cocycle certifies non-amenability with
the exact value 2 rank - 2 (2 in rank 2).

The cycle's slice is supported on the 2 rank one-letter tuples: every
edge orbit of the Cayley tree has a representative starting at the
identity.

`verify_flow_cycle` checks those two sums at every pair of points of a
ball B_r. The sums at k^-1 g depend only on a finite type of that word,
so by default it evaluates them on a type table, B_2 and 2 rank - 1
words of length 3, which shows every type, and sweeps all of B_2r only
to list failures or to run an oracle passed as `flow=`.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, eq
from typing import Callable, NamedTuple

from .complexes import KIND_LINF, EquivariantChain, johnson_cocycle, one_lift_cochain
from .functions import ray_first_letter, tree_flow
from .groups import Element, FreeGroup, _check_radius, _check_rank, free_ball_size
from .pairing import PairingCertificate, make_pairing_certificate


class FlowCycleSpec:
    """Free group plus the ray letter defining the boundary point."""

    __slots__ = ("group", "ray")

    def __init__(self, group: FreeGroup, ray: int = 1):
        if not isinstance(group, FreeGroup):
            raise ValueError("flow cycles are only defined over free groups")
        if type(ray) is not int or not 1 <= ray <= group.rank:
            raise ValueError(f"ray letter {ray!r} is not a generator of the group")
        self.group = group
        self.ray = ray  # positive letter index; p is the endpoint of (ray^n)

    @property
    def ray_label(self) -> str:
        return self.group.gen_labels[self.ray - 1]


def flow_value(fs: FlowCycleSpec, s: int, g: Element) -> int:
    """1 when the edge from e labelled s starts the geodesic from e to g.p.

    g must be a reduced word of `fs.group`, as `ray_first_letter` assumes;
    it is not re-validated here. Words from outside go through
    `fs.group.check` first. This is the per-edge oracle for outside callers
    and for oracles handed to `verify_flow_cycle`; its default sweep reads
    `ray_first_letter` directly, on the words of the type table only, and
    makes no call here. It stays public because `perfbench/tracing.py`
    looks it up by name to count oracle calls, which therefore read 0 on
    the default sweep.
    """
    if s == 0 or abs(s) > fs.group.rank:
        raise ValueError(f"edge letter {s} is not a generator or inverse")
    return 1 if ray_first_letter(g, fs.ray) == s else 0


def flow_cycle(fs: FlowCycleSpec) -> EquivariantChain:
    """Degree-1 bounded chain with one tree-flow value per edge letter."""
    group = fs.group
    entries = {(word,): tree_flow(group, word[0], fs.ray) for _, word in group.letters()}
    return EquivariantChain(group, 1, KIND_LINF, entries)


class FlowVerification(NamedTuple):
    """Pointwise verification of the flow sums over a ball of base points."""

    fs: FlowCycleSpec
    radius: int
    points_checked: int
    outgoing_constant: int
    incoming_constant: int
    boundary_constant: int
    failures: list[tuple[Element, Element, int, int]]  # (base k, point g, outgoing, incoming) per failing pair

    @property
    def passed(self) -> bool:
        return not self.failures


# Work caps of the flow sweep, on top of the group rank cap MAX_RANK that
# groups._check_rank applies: the word count |B_2r| is the number of
# distinct h that the full sweep evaluates. The default route sweeps only
# the type table (B_2 and 2 rank - 1 words of length 3) when 2r >= 4, and
# runs the full sweep just when that finds a failure; the `flow=` route
# always runs it, so the caps bound those two, and with them the group's
# ball cache, which keeps the B_2r a full sweep reads.
# Past rank 1 the word cap already keeps 2r <= 10; the radius cap keeps
# rank-1 words (and the r^2 letters of their ball) short as well.
MAX_FLOW_WORDS = 10**6
MAX_FLOW_RADIUS = 256


def check_flow_sweep(rank: int, radius: int) -> int:
    """|B_2r| in the free group of rank `rank`; ValueError past the work caps.

    The count is free_ball_size's closed form, stopped as soon as it
    passes MAX_FLOW_WORDS.
    """
    _check_rank(rank, "free group")
    _check_radius(radius)
    if radius > MAX_FLOW_RADIUS:
        raise ValueError(f"radius {radius} is above the flow-sweep cap of {MAX_FLOW_RADIUS}")
    total = free_ball_size(rank, 2 * radius, MAX_FLOW_WORDS)
    if total > MAX_FLOW_WORDS:
        raise ValueError(
            f"the flow sweep at rank {rank}, radius {radius} checks more than"
            f" {MAX_FLOW_WORDS} words of length <= 2 radius"
        )
    return total


def _type_table(group: FreeGroup, ray: int) -> tuple[Element, ...]:
    """B_2 and (x, ray^-1, y0) for each letter x != ray: a word of every type T of the flow sums.

    y0 is the first letter of group.letters() other than ray and ray^-1; at
    rank 1 there is none, and the table is B_2. See verify_flow_cycle.
    """
    words = group.ball(2)
    others = [s for _, (s,) in group.letters() if abs(s) != ray]
    if not others:
        return words
    return words + tuple((x, -ray, others[0]) for _, (x,) in group.letters() if x != ray)


def _failing_words(
    fs: FlowCycleSpec, words: tuple[Element, ...], flow: Callable[[int, Element], int] | None, expect: list[int]
) -> dict:
    """{h: [outgoing, incoming]} for each h in `words` whose two flow sums are not `expect`.

    Without `flow` the sums are read from one head per word and incoming
    point; see verify_flow_cycle.
    """
    group = fs.group
    letters = [s for _, (s,) in group.letters()]
    rays = repeat(fs.ray)
    if flow is None:
        out_sums = [letters.count(x) for x in map(ray_first_letter, words, rays)]
    else:
        out_sums = [sum(flow(s, h) for s in letters) for h in words]
    in_sums = [0] * len(words)
    for e in letters:  # e = s^-1 for the incoming letter s: flow(e, e.h)
        points = group.left_translates((e,), words)
        if flow is None:
            hits = map(eq, map(ray_first_letter, points, rays), repeat(e))
        else:
            hits = map(flow, repeat(e), points)
        in_sums = list(map(add, in_sums, hits))
    return {h: sums for h, *sums in zip(words, out_sums, in_sums) if sums != expect}


def verify_flow_cycle(
    fs: FlowCycleSpec, radius: int, flow: Callable[[int, Element], int] | None = None
) -> FlowVerification:
    """Check the flow sums at every base point and evaluation point in a ball.

    For each pair (k, g) in ball(radius)^2 the outgoing edges at k must
    carry total flow 1, the incoming edges total flow 2 rank - 1 (computed
    through equivariance: the flow into k along s equals the flow out of e
    along s^-1 evaluated at the shifted point), hence the boundary value at
    every point is the constant 2 rank - 2. Failures are reported per point
    pair; `flow` may override the flow oracle (used by the negative-control
    test).

    The check at (k, g) sees only h = k^-1 g, and {k^-1 g : k, g in
    ball(radius)} is exactly the set of reduced words of length <= 2 radius,
    the ball B_2r. So the sums are evaluated once per such h, |B_2r| rounds
    instead of |B_r|^2; for any pure oracle the report is the one the pair
    loop gives. `points_checked` is |B_r|^2 by free_ball_size's closed
    form, and B_r is joined only to expand failing h back into (k, g) rows.

    Without `flow`, the sums are read from `ray_first_letter`, the tree
    flow's defining function, with no per-letter oracle: flow_value(s, h)
    is 1 exactly when ray_first_letter(h) = s, so the outgoing sum is the
    number of letters s equal to the one head of h, and the incoming sum
    compares the head of each incoming point with its edge letter. That is
    2 rank + 1 head evaluations per h instead of 4 rank oracle calls.

    The default route then sweeps only a type table when 2r >= 4, as the
    sums at h depend on a finite type of h, its cone type in the sense of
    Cannon (1984). Write t for the ray letter and pure(w) when every letter
    of w is t^-1; the empty word is pure.
    - head(w) = ray_first_letter(w) strips the trailing run of t^-1, so it
      is t if pure(w), else w[0]. The outgoing sum reads head(h).
    - The incoming point for s = h[0] is h[1:], whose head is t if
      pure(h[1:]), else h[1].
    - For any other s the incoming point is (-s,) + h, which is pure just
      when s = t and pure(h); its head is then t, else -s.
    - So both sums are a function of T(h) = (h[:2], pure(h), pure(h[1:])).
    - The table (`_type_table`) is B_2 and, past rank 1, the 2 rank - 1
      words (x, t^-1, y0), x a letter other than t, for one fixed letter
      y0 other than t and t^-1. Each is reduced: x != t, and y0 != t.
    - Every T of a word h of length >= 3 is the T of a table word. If
      pure(h), take (t^-1, t^-1). If pure(h[1:]) only, take h[:2]. If
      h[1] != t^-1, take h[:2] again: neither is pure. Else h = (x, t^-1,
      ..., t^-1, y, ...) with y the first letter after h[1] other than
      t^-1, so neither h nor h[1:] is pure; x != t, as t^-1 follows it.
      (x, t^-1, y0) has that T: its h[:2] is (x, t^-1), and y0 != t^-1
      keeps both it and its tail impure. Only this type needs length 3,
      and at rank 1 it does not occur, since there every word is a power
      of t.
    A word of length <= 2 is in B_2, so every T of B_2r is a T of the
    table; and for 2r >= 4 the table lies in B_2r. So the sums over the
    table take exactly the values that they take over B_2r, and if none
    fails the full sweep cannot fail either. If one fails, the same loop
    runs again over all of B_2r, so `failures` lists exactly the full
    sweep's rows. `points_checked` stays |B_r|^2: the pairs that the type
    argument covers. When 2r <= 2 the route sweeps B_2r itself, which the
    table need not lie in. The `flow=` route cannot assume that an oracle
    depends on T alone and always sweeps B_2r.

    Only the entry is validated (`check_flow_sweep`, `FlowCycleSpec`): the
    words swept are reduced words of the group, from `group.ball` or built
    reduced above, and the incoming points e.h are
    `group.left_translates((e,), words)`, one pass per edge letter
    e = s^-1; both are reduced words of the group, so no word is checked
    again.
    The edge letters are the 2 rank signed letters of group.letters(), in
    its order a, a^-1, b, b^-1, ..., so `flow_value`'s edge-letter check
    could never fire on them either. The table reads only B_2 from the
    group's ball cache, which keeps B_2r once the full sweep has run.
    """
    group = fs.group
    rank = group.rank
    check_flow_sweep(rank, radius)
    expect = [1, 2 * rank - 1]  # the outgoing and incoming sums at every h
    full = 2 * radius
    typed = flow is None and full >= 4
    bad = _failing_words(fs, _type_table(group, fs.ray) if typed else group.ball(full), flow, expect)
    if bad and typed:  # list the full sweep's rows
        bad = _failing_words(fs, group.ball(full), flow, expect)
    failures = []
    if bad:  # expand each failing h = k^-1 g back into its (k, g) rows
        ball = group.ball(radius)
        for k in ball:
            ki = group.inv(k)
            failures += [(k, g, *bad[h]) for g in ball if (h := group.mul(ki, g)) in bad]
    return FlowVerification(
        fs=fs,
        radius=radius,
        points_checked=free_ball_size(rank, radius, MAX_FLOW_WORDS) ** 2,
        outgoing_constant=expect[0],
        incoming_constant=expect[1],
        boundary_constant=expect[1] - expect[0],
        failures=failures,
    )


def flow_pairing_certificate(fs: FlowCycleSpec) -> PairingCertificate:
    """Pair the quotient-dual cocycle with the flow cycle; cross-check both routes.

    The value is 2 rank - 2, exactly; the adjointness witness records the
    same number computed as pair(lift, boundary(cycle)) through the chain
    route.
    """
    return make_pairing_certificate(
        johnson_cocycle(fs.group),
        flow_cycle(fs),
        cycle_id=f"tree-flow({fs.ray_label})",
        adjoint_of=one_lift_cochain(fs.group),
    )
