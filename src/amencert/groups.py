"""Finitely generated groups with exact normal forms.

Three families are supported: free groups (reduced words over signed
generator indices), free-abelian groups (integer exponent vectors) and
finite groups given by a full multiplication table that is validated on
construction. Elements are plain hashable values -- tuples for the two
infinite families, table indices for the finite one -- and every group
operation lives on the group object, so values can be used directly as
dictionary keys in the function and chain modules.

Balls come from one breadth-first walk of the Cayley graph per group,
whose levels, in the canonical order, are the only ball cache; a free
group's walk appends letters, and a finite group runs it to saturation
to read off its word metric. The order is part of the contract because
certificates serialize support sets and must be byte-for-byte reproducible.

Each group declares its generators once, as `gens` with `gen_labels`;
`GroupSpec.__init__` builds the letter set from them, each generator and
then its inverse, and `letters()` returns that one tuple to every caller:
balls, word metrics and the flow cycle. `letter_pairs()` gives the same
letters once per inverse pair, for the Reiter and Folner differences.
Free and free-abelian groups share the rank, the labels and `to_dict`
through `_RankedGroup`; each family supplies only its basis. Each family
has one element text form, written by `elem_to_json` and read by
`elem_from_json`: files, certificates and reprs all use it.

Every JSON input file of the library and the CLI is read through
`load_json` and checked with `json_field`, `json_pairs` and `json_check`.
"""

from __future__ import annotations

import json
import operator
import re
import threading
from itertools import chain, groupby, repeat
from math import comb
from typing import Iterable, Iterator, Sequence, Union

# the builtin SHA-256 (_sha2 from Python 3.12, _sha256 before): hashlib would load OpenSSL's
# _hashlib, several milliseconds of import in every CLI process for one hash of one group spec
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

Element = Union[tuple, int]  # reduced word / exponent vector / table index

# Work caps checked before anything is allocated: the rank sets the length
# of every free-abelian vector and of the label tuple, validating a table
# of order n costs O(n^2 log n), and each token of a word string is expanded to
# its run of letters as it is read. 256 admits S_5 (order 120) with room.
MAX_RANK = 64
MAX_TABLE_ORDER = 256
MAX_WORD_LETTERS = 10**6

_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# a label is the whole string: fullmatch, as `$` would also match before a final newline
_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DEFAULT_LETTERS = "abcdfghijklmnopqrstuvwxyz"


def _check_labels(labels: Sequence[str], count: int) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(labels) != count:
        raise ValueError(f"expected {count} generator labels, got {len(labels)}")
    for lab in labels:
        if type(lab) is not str or not _LABEL_RE.fullmatch(lab):
            raise ValueError(f"invalid generator label {lab!r}")
        if lab == "e":
            raise ValueError("label 'e' is reserved for the identity")
    if len(set(labels)) != len(labels):
        raise ValueError("generator labels must be distinct")
    return labels


def _check_rank(rank: int, what: str) -> int:
    """rank itself when it is an int (not a bool) in 1..MAX_RANK."""
    json_check(rank, int, f"{what} rank")
    if rank < 1:
        raise ValueError(f"{what} rank must be >= 1")
    if rank > MAX_RANK:
        raise ValueError(f"{what} rank {rank} is above the cap of {MAX_RANK}")
    return rank


def _check_radius(radius: int) -> None:
    """ValueError unless radius is an int (not a bool) and nonnegative."""
    if type(radius) is not int:
        raise ValueError(f"radius must be an integer, got {radius!r}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")


def _default_labels(rank: int) -> tuple[str, ...]:
    """a, b, c, d, f, ... up to rank 25, then x0, x1, ...: never "e", the identity's word."""
    if rank <= len(_DEFAULT_LETTERS):
        return tuple(_DEFAULT_LETTERS[:rank])
    return tuple(f"x{i}" for i in range(rank))


class GroupSpec:
    """Base class: a finitely generated group with a fixed generating set.

    A family sets `gens` (the declared generators) and `gen_labels` (one
    label each), and whatever `inv` needs, before calling this __init__.

    `_grow_levels` walks the Cayley graph breadth first, as far as asked,
    under one lock: `_levels[r]` holds the elements at word distance r in
    canonical order, and `ball(r)` joins `_levels[:r + 1]`. Each level
    comes from the last through `_next_level`: here by multiplying and
    sorting, in FreeGroup by appending letters.
    """

    family = "?"
    gens: tuple[Element, ...]
    gen_labels: tuple[str, ...]

    def __init__(self) -> None:
        # Each declared generator, then its inverse labelled "^-1", skipping
        # an element already listed: a self-inverse generator, or one that
        # is the inverse of an earlier one, appears once. The letters one
        # generator adds form one block, and each nonempty block is one
        # inverse pair (see letters()).
        letters: list[tuple[str, Element]] = []
        pairs: list[tuple[Element, tuple[str, ...]]] = []
        seen: set[Element] = set()
        for g, lab in zip(self.gens, self.gen_labels):
            block = []
            for label, x in ((lab, g), (lab + "^-1", self.inv(g))):
                if x not in seen:
                    seen.add(x)
                    block.append((label, x))
            if block:
                letters += block
                pairs.append((block[0][1], tuple(label for label, _ in block)))
        self._letters = tuple(letters)
        self._letter_pairs = tuple(pairs)
        # The canonical JSON of the spec, built once: it decides equality,
        # hashing and the spec hash.
        self._canonical = self._canonical_text()
        # The walk's state. The lock keeps concurrent ball() calls from
        # appending a level twice; everything else is immutable, except
        # FreeGroup's token table. Each of its entries is a function of its
        # key, so two racing writers store equal values, and it holds no
        # more entries than the distinct valid tokens the group has read.
        self._levels: list[tuple[Element, ...]] = [(self.identity,)]
        self._seen: set[Element] = {self.identity}  # every element reached by the generic walk
        self._saturated = False
        self._lock = threading.Lock()

    # -- core operations, provided by each family ------------------------

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def left_translates(self, s: Element, elems: Iterable[Element]) -> Iterator[Element]:
        """s.h for each h in elems, in order: one `mul` call each here, one bulk pass in a family."""
        return map(self.mul, repeat(s), elems)

    def check(self, a: Element) -> Element:
        """Validate that `a` is a canonical element of this group.

        Integer parts must be exact ints: a bool is rejected, not read as 0/1.
        """
        raise NotImplementedError

    def sort_key(self, a: Element):
        raise NotImplementedError

    def dist(self, a: Element, b: Element) -> int:
        """Word metric d(a, b) with respect to the generating set."""
        raise NotImplementedError

    def elem_to_json(self, a: Element):
        raise NotImplementedError

    def elem_from_json(self, data) -> Element:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _canonical_text(self) -> str:  # to_dict() as compact, key-sorted JSON; a family may write it faster
        return _canonical_json(self.to_dict())

    # -- shared machinery -------------------------------------------------

    def letters(self) -> tuple[tuple[str, Element], ...]:
        """Generators and their inverses as (label, element), deduplicated.

        Built once in __init__. In a free or free-abelian group of rank n
        the 2n letters are distinct -- a generator is a one-letter word
        (+k,) or a unit vector, its inverse (-k,) or the negated unit
        vector, and no two of these coincide -- so nothing is skipped and
        the order is a, a^-1, b, b^-1, ... This order is the key order of
        every "generator-differences" object.

        The letters come in blocks, one per declared generator g: g then
        g^-1, g alone when g = g^-1, or nothing. So each inverse pair of
        letters is adjacent, as letter_pairs() records.

        - Free and free-abelian groups: each generator is followed by its
          own inverse, distinct from it and from every other letter.
        - Finite groups: a generator g that is already listed was listed
          as h^-1 for an earlier generator h (g = h would be a duplicate,
          which FiniteGroup refuses), so g^-1 = h is listed too and g adds
          nothing. A new g with g^-1 != g is always followed by g^-1.
          Suppose g^-1 had been listed earlier. If it was an earlier
          generator h, then g = h^-1 was listed right after h. If it was
          h^-1 for an earlier generator h, then g = h, a duplicate.
        """
        return self._letters

    def letter_pairs(self) -> tuple[tuple[Element, tuple[str, ...]], ...]:
        """Each inverse pair of letters once, as (s, labels), in letters() order.

        labels holds the labels of s and s^-1, or s's alone when s = s^-1;
        running over every pair's labels in turn gives the labels of
        letters() in order. A quantity that is the same for s and s^-1,
        such as ||s.f - f||_1 or |sF n F|, is counted once per pair.
        """
        return self._letter_pairs

    def _grow_levels(self, radius: int) -> None:
        """Extend the walk to levels 0..radius, or until a level comes out empty."""
        with self._lock:
            levels = self._levels
            while len(levels) <= radius and not self._saturated:
                nxt = self._next_level()
                if nxt:
                    levels.append(nxt)
                else:
                    self._saturated = True

    def _next_level(self) -> tuple[Element, ...]:
        """The products x.s, x in the last level and s a letter, not seen before, sorted by value."""
        seen, mul = self._seen, self.mul
        nxt = []
        for x in self._levels[-1]:
            for _, s in self._letters:
                y = mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        nxt.sort()
        return tuple(nxt)

    def ball(self, radius: int) -> tuple[Element, ...]:
        """All elements at word distance <= radius from e, canonically ordered."""
        _check_radius(radius)
        self._grow_levels(radius)
        return tuple(chain.from_iterable(self._levels[: radius + 1]))

    def ball_size(self, radius: int, cap: int) -> int:
        """|ball(radius)| counted without building it; past cap, any larger number."""
        raise NotImplementedError

    def spec_hash(self) -> str:
        return sha256(self._canonical.encode()).hexdigest()

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, GroupSpec) and self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_dict()}>"


class _RankedGroup(GroupSpec):
    """A group on `rank` free generators: the free and free-abelian families.

    Both check the rank and the labels the same way, take generator i from
    the family's `_basis(i)` and serialize as family, rank and labels. Each
    family's own __init__ names it in rank errors (`what`).
    """

    def __init__(self, rank: int, labels: Sequence[str] | None, what: str) -> None:
        self.rank = _check_rank(rank, what)
        self.gen_labels = _check_labels(_default_labels(rank) if labels is None else labels, rank)
        self.gens = tuple(self._basis(i) for i in range(rank))
        super().__init__()

    def _basis(self, i: int) -> tuple[int, ...]:
        raise NotImplementedError

    def to_dict(self):
        return {"family": self.family, "rank": self.rank, "generators": list(self.gen_labels)}


class FreeGroup(_RankedGroup):
    """Free group; elements are reduced words of signed 1-based letters.

    Letter +k stands for generator k-1, letter -k for its inverse. Words
    never contain an adjacent cancelling pair, so equality of elements is
    equality of tuples.

    The walk grows its own levels, with no product, no membership test
    and no sort: level r + 1 is each word x of level r, in order, followed
    by each letter s in rank order a, a^-1, b, ..., except the inverse of
    x's last letter. Every such x + (s,) is reduced and of length r + 1,
    and every reduced word of length r + 1 is made once, from its prefix.
    Let level r be in canonical order (the letter ranks, left to right),
    as level 0 = (e) is; then level r + 1 comes out ordered by prefix,
    then by last letter: in canonical order.
    """

    family = "free"

    def __init__(self, rank: int, labels: Sequence[str] | None = None) -> None:
        super().__init__(rank, labels, "free group")
        self._label_letter = {lab: i + 1 for i, lab in enumerate(self.gen_labels)}
        # raw token text -> (signed letter, count >= 0), filled by elem_from_json
        self._tokens: dict[str, tuple[int, int]] = {}
        letters = tuple(x for _, x in self.letters())
        # each letter's place in letters(): a < a^-1 < b < b^-1 < ..., the word order of sort_key
        self._letter_rank = {x[0]: i for i, x in enumerate(letters)}
        # a word's last letter, () for e -> the letters that may follow it, in order: all
        # but its inverse, which is letters[i ^ 1] for letters[i] in that order
        self._followers = {(): letters}
        self._followers.update((x, letters[: i ^ 1] + letters[(i ^ 1) + 1 :]) for i, x in enumerate(letters))

    def _basis(self, i):
        return (i + 1,)

    def _next_level(self):
        followers = self._followers
        return tuple(x + s for x in self._levels[-1] for s in followers[x[-1:]])

    @property
    def identity(self) -> tuple[int, ...]:
        return ()

    def mul(self, a, b):
        """The product of two reduced words, cancelled only at the junction.

        No adjacent pair cancels inside a or inside b, so the free reduction
        of a followed by b only removes the longest run of a's last letters
        that are the inverses of b's first letters, i of each. What is left
        is reduced: its one new adjacent pair, a[n - i - 1] next to b[i],
        does not cancel, or the run would be longer.
        """
        n = len(a)
        i, stop = 0, min(n, len(b))
        while i < stop and a[n - 1 - i] == -b[i]:
            i += 1
        return a[: n - i] + b[i:]

    def left_translates(self, s, elems):
        """s.h for each h in elems; a one-letter s = (k,) needs no junction walk.

        This is mul(s, h) when s has one letter. In mul's junction rule the
        run of cancelling pairs has length i <= min(len(s), len(h)) <= 1, and
        it is 1 exactly when h is nonempty and h[0] = -k. Then mul returns
        s[:0] + h[1:] = h[1:], else s + h.
        Once k has cancelled h[0] no letter of s is left, and h is reduced,
        so only h[0] can cancel; both results are reduced: h[1:] is a suffix
        of h, and s + h has one new adjacent pair, (k, h[0]), which does not
        cancel. Any other s (the identity, or two letters or more) takes the
        base method.
        """
        if len(s) != 1:
            return super().left_translates(s, elems)
        back = -s[0]
        return (h[1:] if h and h[0] == back else s + h for h in elems)

    def inv(self, a):
        return tuple(-letter for letter in reversed(a))

    def check(self, a):
        if not isinstance(a, tuple):
            raise ValueError(f"free-group element must be a tuple, got {_short(a)}")
        for i, letter in enumerate(a):
            if type(letter) is not int or letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"invalid letter {_short(letter)} in word {_short(a)}")
            if i and a[i - 1] == -letter:
                raise ValueError(f"word {_short(a)} is not reduced")
        return a

    def sort_key(self, a):
        return (len(a), tuple(map(self._letter_rank.__getitem__, a)))

    def dist(self, a, b):
        """|a| + |b| - 2|p| for p the longest common prefix. With a = p a' and b = p b', a^-1 b is
        a'^-1 b', reduced: its one junction pair (-a'[0], b'[0]) would cancel only if a'[0] = b'[0],
        which the maximality of p excludes."""
        i, stop = 0, min(len(a), len(b))
        while i < stop and a[i] == b[i]:
            i += 1
        return len(a) + len(b) - 2 * i

    def ball_size(self, radius, cap):
        return free_ball_size(self.rank, radius, cap)

    def elem_to_json(self, a) -> str:
        if not a:
            return "e"
        labels = self.gen_labels
        parts = []
        for letter, run in groupby(a):
            lab = labels[abs(letter) - 1]
            exp = len(list(run)) if letter > 0 else -len(list(run))
            parts.append(lab if exp == 1 else f"{lab}^{exp}")
        return "*".join(parts)

    def elem_from_json(self, data):
        """The reduced word written as `a^2*b^-1` (or `e`).

        Each token is `label` or `label^n`, read by _read_token on its
        first appearance in any word the group reads; the token table
        keeps the result, a signed letter and a count, under the raw token
        text, so a token read again costs one dict lookup. A token that
        raises is never stored, and raises the same error each time.

        The running sum of the counts is checked against MAX_WORD_LETTERS
        before each token is expanded, so nothing is allocated for a word
        past the cap, even one that would reduce to a short word.

        Expansion reduces on a stack, and a token cancels only where it
        meets the stack: when the top of the stack is the inverse of its
        letter. A one-letter token that does not cancel is appended, and
        any other is extended by its run. The result is the free reduction
        of the whole expanded word. Free reduction does not depend on the
        order in which pairs cancel, so it is enough that each token turns
        the reduced word w on the stack into the reduction of w x^n, for x
        the token's letter and n >= 0 its count:
        - if w does not end in x^-1, w x^n is already reduced: its one new
          adjacent pair (w's last letter, x) does not cancel, and x next to x
          does not either. So the run is pushed whole;
        - else w = u (x^-1)^m with m >= 1 as large as it goes. Popping
          min(m, n) letters leaves u (x^-1)^(m - n) when n <= m, and pushing
          the rest gives u x^(n - m) when n > m. Both are reduced: u does
          not end in x^-1 (m is maximal) nor in x (w is reduced).
        """
        if not isinstance(data, str):
            raise ValueError(f"free-group element must serialize as a string, got {_short(data)}")
        s = data.strip()
        if s in ("e", ""):
            return ()
        tokens = self._tokens
        word: list[int] = []
        count = 0
        for token in s.split("*"):
            entry = tokens.get(token)
            if entry is None:
                entry = tokens[token] = self._read_token(token)
            letter, n = entry
            count += n
            if count > MAX_WORD_LETTERS:
                raise ValueError(f"word token {_short(token.strip())} passes the cap of {MAX_WORD_LETTERS} letters")
            if word and word[-1] == -letter:
                while n and word and word[-1] == -letter:
                    word.pop()
                    n -= 1
                word += [letter] * n
            elif n == 1:
                word.append(letter)
            else:
                word += [letter] * n
        return tuple(word)

    def _read_token(self, token: str) -> tuple[int, int]:
        """(signed letter, count >= 0) of one word token: `label^-n` is (-k, n) for generator k.

        The token is `label` or `label^n`, n an optional "-" and decimal
        digits: the strings `str.isdecimal` accepts are those `\\d+` matches,
        and `int` reads each of them. A token that is not of this form cannot
        be parsed; a well-formed one whose label is not a generator names an
        unknown generator. The labels all match `_LABEL_RE` whole, so a label
        that names a letter needs no pattern, and the pattern only words the
        error on a token that fails.

        A count with more digits than MAX_WORD_LETTERS, leading zeros (of any
        script) dropped, is past the cap, and is refused with the cap error
        before `int` runs: `int` reads at most 4300 digits, and would refuse
        more with an error of its own. So `int` only ever reads the last
        digits, as many as the cap has; any before them are zeros.
        """
        lab, caret, exp_s = token.strip().partition("^")
        letter = self._label_letter.get(lab)
        digits = exp_s[1:] if exp_s[:1] == "-" else exp_s
        if caret and not digits.isdecimal() or letter is None and not _LABEL_RE.fullmatch(lab):
            raise ValueError(f"cannot parse word token {_short(token)}")
        if letter is None:
            raise ValueError(f"unknown generator {_short(lab)}")
        if not caret:
            return letter, 1
        width = len(str(MAX_WORD_LETTERS))
        if any(map(int, digits[:-width])):
            raise ValueError(f"word token {_short(token.strip())} passes the cap of {MAX_WORD_LETTERS} letters")
        n = int(digits[-width:])
        return (-letter, n) if exp_s[:1] == "-" else (letter, n)


class FreeAbelianGroup(_RankedGroup):
    """Free-abelian group Z^d; elements are integer exponent vectors."""

    family = "free-abelian"

    def __init__(self, rank: int, labels: Sequence[str] | None = None) -> None:
        super().__init__(rank, labels, "free-abelian")

    def _basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @property
    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def left_translates(self, s, elems):
        """s + h for each h in elems, built column by column in C.

        Column i is map(itemgetter(i), elems), one pass over elems, so a
        one-pass iterable is made a list first; each column with s[i] != 0 is
        shifted by s[i], and zip(*cols) rebuilds the tuples. An empty elems
        gives empty columns and so no output.
        """
        if iter(elems) is elems:
            elems = list(elems)
        cols = (map(operator.itemgetter(i), elems) for i in range(len(s)))
        return zip(*[col if x == 0 else map(operator.add, col, repeat(x)) for col, x in zip(cols, s)])

    def inv(self, a):
        return tuple(-x for x in a)

    def check(self, a):
        if not isinstance(a, tuple) or len(a) != self.rank:
            raise ValueError(f"expected an integer vector of length {self.rank}, got {_short(a)}")
        for x in a:
            if type(x) is not int:
                raise ValueError(f"non-integer coordinate in {_short(a)}")
        return a

    def sort_key(self, a):
        return (sum(map(abs, a)), a)

    def dist(self, a, b):
        return sum(abs(y - x) for x, y in zip(a, b))

    def ball_size(self, radius, cap):
        """Sum over i of 2^i C(rank, i) C(radius, i), stopped once it passes cap.

        A point with exactly i nonzero coordinates and l1 norm <= radius is
        a choice of the i coordinates, of their signs, and of i absolute
        values >= 1 summing to at most radius: C(radius, i) of those.
        """
        total = 0
        for i in range(min(self.rank, radius) + 1):
            total += 2**i * comb(self.rank, i) * comb(radius, i)
            if total > cap:
                break
        return total

    def elem_to_json(self, a):
        return list(a)

    def elem_from_json(self, data):
        """The point [x1, ..., xd] as a tuple, checked in one pass that tests exact types.

        The value must be exactly a list of length rank, each coordinate
        exactly an int (a bool or a float is refused), and the errors are
        check's, naming the value as a tuple.
        """
        if type(data) is not list:
            raise ValueError(f"free-abelian element must serialize as a list, got {_short(data)}")
        if len(data) != self.rank:
            raise ValueError(f"expected an integer vector of length {self.rank}, got {_short(tuple(data))}")
        for x in data:
            if type(x) is not int:
                raise ValueError(f"non-integer coordinate in {_short(tuple(data))}")
        return tuple(data)


class FiniteGroup(GroupSpec):
    """Finite group given by a full multiplication table.

    The table is validated eagerly, in this order: entries in range, a
    two-sided identity, two-sided inverses, associativity by Light's test
    (n |L| row comparisons for a set L of at most log2 n letters, see
    _validate_table), then the declared generators. These must generate
    the whole group; they default to all non-identity elements.
    """

    family = "finite"

    def __init__(self, table: Sequence[Sequence[int]], generators: Sequence[int] | None = None) -> None:
        if len(table) > MAX_TABLE_ORDER:
            raise ValueError(f"table order {len(table)} is above the cap of {MAX_TABLE_ORDER}")
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self._validate_table()
        if generators is None:
            generators = tuple(i for i in range(self.order) if i != self._identity)
        self.gens = tuple(map(self.check, generators))
        if self._identity in self.gens:
            raise ValueError("identity cannot be a declared generator")
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("declared generators must be distinct")
        self.gen_labels = tuple(f"g{i}" for i in self.gens)
        super().__init__()
        # The shared walk, run to saturation, gives every word distance.
        self._grow_levels(self.order)
        if len(self._seen) < self.order:
            raise ValueError("declared generators do not generate the group")
        dist = self._distances = [0] * self.order
        for d, level in enumerate(self._levels):
            for x in level:
                dist[x] = d

    def _validate_table(self) -> None:
        """Entries in range, a two-sided identity, two-sided inverses, then Light's test.

        Light's associativity test (Clifford-Preston, The Algebraic Theory
        of Semigroups I, 1.2): if (x.s).y = x.(s.y) for all x, y and every
        s in a set L whose left-normed products ((e.s1).s2)...sk reach every
        element, the table is associative. Proof: A = {a : (x.a).y = x.(a.y)
        for all x, y} holds e and L. For a, b in A,
        (x.(a.b)).y = ((x.a).b).y = (x.a).(b.y) = x.(a.(b.y)) = x.((a.b).y),
        using a, b, a and then b in A (the last with x = a). So A is closed
        under products and holds every left-normed product: A is everything.

        L comes from _light_letters, at most log2 n letters for a group, so
        the check is n |L| row comparisons: O(n^2 log n) where all triples
        were n^3. A failing comparison names a triple (x, s, y) with
        (x.s).y != x.(s.y), a witness that holds whatever L was.
        """
        n = self.order
        if n == 0:
            raise ValueError("empty multiplication table")
        for row in self.table:
            if len(row) != n:
                raise ValueError("multiplication table must be square")
            # a per-row screen in C (set(map(type, row)), min, max) ahead of this loop made it slower
            for x in row:
                if type(x) is not int or not 0 <= x < n:
                    raise ValueError(f"table entry {x!r} must be an index 0..{n - 1}")
        table, full = self.table, tuple(range(n))
        ident = next((i for i in range(n) if table[i] == full and all(table[j][i] == j for j in range(n))), None)
        if ident is None:
            raise ValueError("table has no two-sided identity")
        self._identity = ident
        self._inverses = []
        for i, row in enumerate(table):
            # the first j with i.j = e = j.i
            try:
                j = row.index(ident)
                while table[j][i] != ident:
                    j = row.index(ident, j + 1)
            except ValueError:
                raise ValueError(f"element {i} has no two-sided inverse") from None
            self._inverses.append(j)
        for s in self._light_letters():
            # row_x -> (x.(s.y) for y); a tuple, as L is nonempty only when n >= 2
            pick = operator.itemgetter(*table[s])
            for x, row_x in enumerate(table):
                left = table[row_x[s]]
                if left != pick(row_x):
                    y = next(y for y in range(n) if left[y] != row_x[table[s][y]])
                    raise ValueError(f"table is not associative at ({x},{s},{y})")

    def _light_letters(self) -> list[int]:
        """A greedy L for Light's test: e's left-normed products over L reach every element.

        Start from the reached set {e}; while some element is unreached, add
        the lowest one (no inverse: Light's lemma does not use them) to L and
        close the reached set under right multiplication by L. For a group
        the reached set is the submonoid generated by L, which in a finite
        group is a subgroup; each new letter lies outside it, so by Lagrange
        the next subgroup is at least twice as large: |L| <= log2 n. A table
        that is not a group still stops, as each step reaches its new letter.
        """
        reached = [False] * self.order
        reached[self._identity] = True
        found = [self._identity]
        letters: list[int] = []
        for a in range(self.order):
            if not reached[a]:
                letters.append(a)
                stack = list(found)  # the new letter acts on everything reached so far
                while stack:
                    row = self.table[stack.pop()]
                    for s in letters:
                        y = row[s]
                        if not reached[y]:
                            reached[y] = True
                            found.append(y)
                            stack.append(y)
        return letters

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def left_translates(self, s, elems):
        return map(self.table[s].__getitem__, elems)

    def inv(self, a):
        return self._inverses[a]

    def check(self, a):
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError(f"finite-group element must be an index 0..{self.order - 1}, got {_short(a)}")
        return a

    def sort_key(self, a):
        return (self._distances[a], a)

    def dist(self, a, b):
        return self._distances[self.table[self._inverses[a]][b]]

    def ball_size(self, radius, cap):
        return sum(d <= radius for d in self._distances)

    def elem_to_json(self, a):
        return a

    def elem_from_json(self, data):
        return self.check(data)

    def to_dict(self):
        return {"family": "finite", "table": [list(row) for row in self.table], "generators": list(self.gens)}

    def _canonical_text(self):
        """_canonical_json(self.to_dict()) from one list of digit strings: keys sort family < generators
        < table, and json writes each entry and generator, an int in [0, n), as str(i) = texts[i]. A
        one-index itemgetter returns a bare text: the order-1 row (0,) joins the one character of "0"
        back to "0", but a lone generator "17" would split, so the generators go through map."""
        texts = [str(i) for i in range(self.order)]
        rows = "],[".join([",".join(operator.itemgetter(*row)(texts)) for row in self.table])
        gens = ",".join(map(texts.__getitem__, self.gens))
        return f'{{"family":"finite","generators":[{gens}],"table":[[{rows}]]}}'


# -- constructors ---------------------------------------------------------


def free_ball_size(rank: int, radius: int, cap: int) -> int:
    """|B_radius| in the free group of rank `rank`, counted in closed form.

    Level j >= 1 holds 2 rank (2 rank - 1)^(j - 1) reduced words. From
    rank 2 on the sum stops as soon as it passes cap, so no count grows
    past the cap whatever the radius.
    """
    if rank == 1:
        return 2 * radius + 1
    total, level = 1, 2 * rank
    for _ in range(radius):
        total += level
        if total > cap:
            break
        level *= 2 * rank - 1
    return total


def free_ball_letters(rank: int, radius: int, cap: int) -> int:
    """The letters of all the words of B_radius in the free group of rank `rank`, counted in closed form.

    Level j >= 1 holds 2 rank (2 rank - 1)^(j - 1) words of j letters; the
    sum stops as soon as it passes cap. B_radius of F_1 holds
    radius (radius + 1) letters.
    """
    total, level = 0, 2 * rank
    for j in range(1, radius + 1):
        total += j * level
        if total > cap:
            break
        level *= 2 * rank - 1
    return total


def cyclic_table(n: int) -> list[list[int]]:
    """Multiplication table of Z/n under addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(cyclic_table(n), generators=(1,) if n > 1 else ())


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _short(value) -> str:
    """repr(value) for an error text, or reprlib's shortened form of it when that leaves something out.

    reprlib is imported only when an error text is built. Its text marks
    every cut with "...", and one with no cut is repr's except that it
    sorts a dict's keys, so repr itself is used then: it is as short, and
    names a short value as repr always did.
    """
    from reprlib import repr as short

    text = short(value)
    return text if "..." in text else repr(value)


def json_check(value, kind: type, what: str):
    """value itself when its type is exactly kind: a bool or a float never passes as an int."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {_JSON_KINDS.get(type(value)) or repr(value)}")
    return value


def json_field(data, name: str, kind: type, what: str, default=...):
    """Field `name` of the JSON object `data`, of exactly type kind; default when absent, if given."""
    json_check(data, dict, what)
    if name not in data:
        if default is ...:
            raise ValueError(f"missing field {name!r}")
        return default
    return json_check(data[name], kind, f"{what} field {name!r}")


def json_pairs(data, what: str) -> list:
    """data checked to be a list of two-item lists, each unpackable as (key, value).

    Each item costs one type test and one length test; the error text is
    built only for the first item refused, and names its index and its
    value, shortened by reprlib. That index is data.index(item): an earlier
    item equal to it would be no two-item list either, and so refused first.
    """
    for item in json_check(data, list, what):
        if type(item) is not list or len(item) != 2:
            raise ValueError(f"{what} item {data.index(item)} must be a [key, value] pair, got {_short(item)}")
    return data


def group_from_dict(data: dict) -> GroupSpec:
    """Rebuild a group from its canonical dictionary form."""
    family = json_field(data, "family", str, "group spec")
    if family in ("free", "free-abelian"):
        rank = json_field(data, "rank", int, f"{family} group")
        gens = json_field(data, "generators", list, f"{family} group", None)
        return (FreeGroup if family == "free" else FreeAbelianGroup)(rank, gens)
    if family == "finite":
        rows = json_field(data, "table", list, "finite group")
        table = [json_check(row, list, "each finite group table row") for row in rows]
        return FiniteGroup(table, json_field(data, "generators", list, "finite group", None))
    raise ValueError(f"unknown group family {family!r}")


def load_json(path: str):
    """The JSON value in the file at path; a file json cannot read is a ValueError that names the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past int's 4300-digit limit
            raise ValueError(f"{path}: {exc}") from None
