"""Plain-Python group arithmetic shared by the input generator and the validator.

This module imports nothing from `amencert`: it re-implements, from the
group spec dictionaries alone, just enough arithmetic to generate inputs
and to recount certificates independently of the library.

Elements use the same shapes as the JSON formats: free-group words are
tuples of signed 1-based letters, free-abelian elements are integer
tuples and finite-group elements are table indices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def spec_hash(spec: dict) -> str:
    """sha256 of the canonical spec dictionary, as certificates record it."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class PlainGroup:
    """Word arithmetic for one group spec dictionary."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.family = spec["family"]
        # letters: generators and inverses, deduplicated, in the order the
        # library reports them; letter_labels: their names, as in certificates
        if self.family == "finite":
            self.table = [list(row) for row in spec["table"]]
            n = len(self.table)
            self.identity = next(i for i in range(n) if self.table[i] == list(range(n)))
            self.inverse = [row.index(self.identity) for row in self.table]
            self.labels = [f"g{g}" for g in spec["generators"]]
            named = [(x, name) for g, lab in zip(spec["generators"], self.labels)
                     for x, name in ((g, lab), (self.inverse[g], lab + "^-1"))]
        else:
            self.rank = spec["rank"]
            self.labels = list(spec["generators"])
            if self.family == "free":
                self.identity = ()
                gens = [((i,), (-i,)) for i in range(1, self.rank + 1)]
            else:
                self.identity = (0,) * self.rank
                gens = [(u, tuple(-c for c in u)) for u in
                        (tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))]
            named = [(x, name) for (g, gi), lab in zip(gens, self.labels)
                     for x, name in ((g, lab), (gi, lab + "^-1"))]
        seen: dict = {}
        for x, name in named:
            seen.setdefault(x, name)
        self.letters = list(seen)
        self.letter_labels = list(seen.values())

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a, b):
        if self.family == "finite":
            return self.table[a][b]
        if self.family == "free-abelian":
            return tuple(x + y for x, y in zip(a, b))
        word = list(a)
        for x in b:
            if word and word[-1] == -x:
                word.pop()
            else:
                word.append(x)
        return tuple(word)

    def inv(self, a):
        if self.family == "finite":
            return self.inverse[a]
        if self.family == "free-abelian":
            return tuple(-x for x in a)
        return tuple(-x for x in reversed(a))

    def ball(self, radius: int) -> set:
        seen = {self.identity}
        frontier = [self.identity]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                for s in self.letters:
                    y = self.mul(x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def length(self, a) -> int:
        """Word length of `a` with respect to the declared generators."""
        if self.family == "free":
            return len(a)
        if self.family == "free-abelian":
            return sum(abs(x) for x in a)
        if not hasattr(self, "_dist"):
            dist = {self.identity: 0}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in self.letters:
                        y = self.table[x][s]
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            self._dist = dist
        return self._dist[a]

    # -- JSON forms ---------------------------------------------------------

    def parse(self, data):
        if self.family == "finite":
            if isinstance(data, bool) or not isinstance(data, int) or not 0 <= data < len(self.table):
                raise ValueError(f"bad finite element {data!r}")
            return data
        if self.family == "free-abelian":
            if not isinstance(data, list) or len(data) != self.rank:
                raise ValueError(f"bad free-abelian element {data!r}")
            return tuple(int(x) for x in data)
        if data == "e":
            return ()
        word: list[int] = []
        for token in data.split("*"):
            m = _TOKEN.match(token)
            if not m or m.group(1) not in self.labels:
                raise ValueError(f"bad word token {token!r}")
            letter = self.labels.index(m.group(1)) + 1
            exp = int(m.group(2) or 1)
            if exp == 0:
                raise ValueError(f"zero exponent in {data!r}")
            word.extend([letter if exp > 0 else -letter] * abs(exp))
        reduced = self.mul((), tuple(word))
        if reduced != tuple(word):
            raise ValueError(f"word {data!r} is not reduced")
        return reduced

    def dump(self, a):
        if self.family == "finite":
            return a
        if self.family == "free-abelian":
            return list(a)
        if not a:
            return "e"
        parts = []
        for letter, run in itertools.groupby(a):
            exp = len(list(run)) * (1 if letter > 0 else -1)
            lab = self.labels[abs(letter) - 1]
            parts.append(lab if exp == 1 else f"{lab}^{exp}")
        return "*".join(parts)


def boundary_count(group: PlainGroup, members: set) -> list[int]:
    """|sF symmetric-difference F| for every letter, in `letters` order."""
    out = []
    for s in group.letters:
        moved = {group.mul(s, x) for x in members}
        out.append(len(moved ^ members))
    return out


def free_ball_size(rank: int, radius: int) -> int:
    """|B_r| in the free group of the given rank: 1 + sum of 2n(2n-1)^(k-1)."""
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


# -- finite tables --------------------------------------------------------


def symmetric_table(n: int) -> tuple[list[list[int]], dict]:
    """S_n on lexicographically ordered permutations; (p*q)(k) = p(q(k))."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return table, index


def dihedral_table(n: int) -> list[list[int]]:
    """D_n of order 2n: index k is r^k, index n + k is r^k s, with s r = r^-1 s."""

    def split(i):
        return (i, 0) if i < n else (i - n, 1)

    table = []
    for a in range(2 * n):
        i, x = split(a)
        row = []
        for b in range(2 * n):
            j, y = split(b)
            k = (i + (-j if x else j)) % n
            row.append(k + n * ((x + y) % 2))
        table.append(row)
    return table


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# -- chain arithmetic -------------------------------------------------------
#
# A summable value is a dict element -> Fraction with no zero entries; a
# bounded value is a pair (constant, summable part). Chains map slice keys
# (tuples of elements) to values; uniformly finite chains map tuples to
# Fractions. Every operation returns fresh dicts without zero entries.


def accumulate(out: dict, key, value: Fraction) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def translate(group: PlainGroup, f: dict, g) -> dict:
    """Left translate (g.f)(h) = f(g^-1 h)."""
    return {group.mul(g, k): c for k, c in f.items()}


def slice_boundary(group: PlainGroup, chain: dict, degree: int, bounded: bool = False) -> dict:
    """Insertion-sum boundary of an equivariant chain given by its slice.

    The key (g1..gm) contributes g1^-1 . value at (g1^-1 g2, .., g1^-1 gm)
    and (-1)^(i+1) . value at the key with coordinate i deleted.
    """
    parts: dict[tuple, list] = {}
    for key, value in chain.items():
        g1i = group.inv(key[0])
        terms = [(tuple(group.mul(g1i, g) for g in key[1:]), 1, g1i)]
        terms += [(key[:i] + key[i + 1 :], -1 if i % 2 == 0 else 1, None) for i in range(degree)]
        for face, sign, shift in terms:
            const, fn = value if bounded else (0, value)
            if shift is not None:
                fn = translate(group, fn, shift)
            slot = parts.setdefault(face, [0, {}])
            slot[0] += sign * const
            for g, c in fn.items():
                accumulate(slot[1], g, sign * c)
    out = {}
    for face, (const, fn) in parts.items():
        if bounded and (const or fn):
            out[face] = (const, fn)
        elif not bounded and fn:
            out[face] = fn
    return out


def uf_boundary(chain: dict) -> dict:
    """Face-deletion boundary of a uniformly finite chain, sign (-1)^i."""
    out: dict[tuple, Fraction] = {}
    for key, c in chain.items():
        for i in range(len(key)):
            accumulate(out, key[:i] + key[i + 1 :], c if i % 2 == 0 else -c)
    return out


def coboundary_value(group: PlainGroup, cochain: dict, key: tuple) -> dict:
    """(d phi)(key) = key0 . phi(key0^-1 key[1:]) + sum_i (-1)^(i+1) phi(key - i)."""
    k0i = group.inv(key[0])
    out = dict(translate(group, cochain.get(tuple(group.mul(k0i, g) for g in key[1:]), {}), key[0]))
    for i in range(len(key)):
        sign = -1 if i % 2 == 0 else 1
        for g, c in cochain.get(key[:i] + key[i + 1 :], {}).items():
            accumulate(out, g, sign * c)
    return out


def pair_value(cochain_value, chain: dict) -> Fraction:
    """sum over keys of sum_g phi(key)(g) c(key)(g); `cochain_value` maps a key to a dict."""
    total = Fraction(0)
    for key, fn in chain.items():
        phi = cochain_value(key)
        total += sum((c * phi.get(g, 0) for g, c in fn.items()), Fraction(0))
    return total


def inflate(group: PlainGroup, chain: dict) -> dict:
    """Slice of the bounded chain inflated from a uniformly finite chain."""
    out: dict[tuple, dict] = {}
    for key, c in chain.items():
        t0i = group.inv(key[0])
        out.setdefault(tuple(group.mul(t0i, g) for g in key[1:]), {})[t0i] = c
    return out
