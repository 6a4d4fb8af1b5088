"""Coefficient modules: summable and bounded functions on a group.

The summable side is `FinSuppFn`: an exact finitely supported map from
group elements to rationals (Dirac deltas, slices of summable chains,
values of bounded cochains), held in one canonical form: integer
numerators over one common denominator, which is the lcm of the reduced
denominators of its values. Sums, shifts, file reading and pairings of
these values run on integers; a `Fraction` is formed only for a single
number, such as `evaluate`'s value or a pairing. The bounded side is
`BoundedFn`, one class holding one normal form: a constant plus a
finitely supported part (either may be zero) plus rational multiples of
translated leaves, such as the tree-flow indicator `TreeFlow` of the
free-group witness, its one subclass. Terms with the same shift and leaf
merge, so sums that cancel are structurally zero. Bounded functions are
never truncated to vectors; pairings only ever evaluate them at the
finitely many points of a summable support, so every number in the
pipeline stays an exact rational.

Each family has one n-ary sum, `combine`. Every operator on its values is
one call of it, and so are the boundaries and coboundaries of `complexes`.
`FinSuppFn.combine` adds integer numerators by `_lcm_sum`, which builds
and checks the lcm of the denominators before it scales any numerator;
the file reader does the same in two passes, and `complexes.deflate`,
whose keys never meet, writes each scaled numerator once.

Translation is the left action (g.f)(h) = f(g^-1 h) throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .groups import Element, FreeGroup, GroupSpec, json_field, json_pairs

Rational = Union[Fraction, int]
_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x: Rational) -> Fraction:
    """x as a Fraction; only an int (not a bool) or a Fraction passes, as a float is not exact."""
    if isinstance(x, Fraction):
        return x
    if type(x) is not int:
        raise ValueError(f"a coefficient must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def frac_str(q: Rational) -> str:
    q = frac(q)
    return f"{q.numerator}/{q.denominator}"


def _ratio_str(n: int, d: int) -> str:
    """frac_str(Fraction(n, d)) for d > 0, reduced by one gcd and no Fraction."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return f"{n}/{d}"


# CPython converts no integer of more than 4300 digits to or from a string,
# so frac_str can print no rational with a longer numerator or denominator;
# and no value's common denominator may have more digits either (_check_den)
MAX_RATIONAL_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_RATIONAL_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\Z")


def parse_ratio(s: str) -> tuple[int, int]:
    """(p, q) with q > 0 and p/q the exact rational s names: "p/q", an integer, a decimal or an exponent form.

    The short form is ASCII "p/q" with an optional "-" before p, p and q
    nonempty runs of the digits 0-9, q not zero, and at most
    MAX_RATIONAL_DIGITS characters on either side of the "/". It is read by
    one partition and two int calls, and (p, q) is returned unreduced. Every
    such string is one that Fraction's pattern reads as p/q -- sign "-" or
    none, numerator and denominator plain digit runs, no whitespace -- and
    Fraction then takes int of each side, negates p on "-", and divides both
    by their gcd, which is what Fraction(int(p), int(q)) does. At most 4300
    characters hold at most 4300 digits, which int reads under the default
    limit (a lowered limit raises inside the same try, with the same error).
    So the short form names Fraction's value on every string it takes. Every
    other string -- a "+" sign, "_", a non-ASCII digit, a decimal, an
    exponent, a zero denominator, a longer side -- is stripped and takes
    Fraction's route, unless whitespace is left inside: Fraction reads
    "3 / 4" from Python 3.12 on but not on 3.11, so it is refused on every
    version. That route returns the reduced numerator and denominator.

    Fraction builds 10^|e| for an exponent e before it reduces, so
    "1e-10000000" would cost seconds before frac_str refused it. The
    mantissa has fewer than len(text) digits, so when it is nonzero and
    |e| > MAX_RATIONAL_DIGITS + len(text), the reduced numerator or
    denominator has more than MAX_RATIONAL_DIGITS digits: such an exponent
    is refused before Fraction runs. Below that bound 10^|e| is cheap, and
    the reduced value is checked instead. The "p/q" form needs no guard:
    int() already refuses a string of more than 4300 digits.
    """
    if type(s) is not str:
        raise ValueError(f'a rational must be a "p/q" string, got {s!r}')
    num, slash, den = s.partition("/")
    try:
        if (slash and s.isascii() and len(num) <= MAX_RATIONAL_DIGITS and len(den) <= MAX_RATIONAL_DIGITS
                and (num[1:] if num[:1] == "-" else num).isdigit() and den.isdigit()):
            d = int(den)
            if d:
                return int(num), d
        text = s.strip()
        if any(map(str.isspace, text)):
            raise ValueError("whitespace inside a rational")
        exp = _EXPONENT.search(text)
        too_long = exp is not None and abs(int(exp.group(1))) > MAX_RATIONAL_DIGITS + len(text)
        q = None if too_long else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {s!r}") from exc
    if too_long or exp and max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"rational {s!r} passes the {MAX_RATIONAL_DIGITS}-digit limit")
    return q.numerator, q.denominator


def parse_frac(s: str) -> Fraction:
    """The rational `parse_ratio` reads, as one Fraction."""
    return Fraction(*parse_ratio(s))


def parse_once(table: dict, s) -> tuple[int, int]:
    """parse_ratio(s), parsed on s's first occurrence in one input file and read from `table` after.

    Each file reader makes one table and hands it to every value of the
    file, so a string repeated across the file is parsed once; the table
    lives for that one read. A string that raises is never stored. A value
    that is not a str goes straight to parse_ratio, which refuses it with
    its own one-line error (a list would not even hash).
    """
    if type(s) is not str:
        return parse_ratio(s)
    value = table.get(s)
    if value is None:
        value = table[s] = parse_ratio(s)
    return value


def _check_den(den: int) -> int:
    """den, refused with one ValueError line past MAX_RATIONAL_DIGITS digits.

    A value's common denominator can grow to the product of its distinct
    denominators, and every numerator grows with it; about 1,230 distinct
    primes reach the limit. Callers check each lcm as it grows, before any
    numerator is scaled by it.
    """
    if den >= _DIGIT_BOUND:
        raise ValueError(f"a common denominator passes the {MAX_RATIONAL_DIGITS}-digit limit")
    return den


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) divided by gcd(den, *nums): the canonical form of nums / den, nums holding no zero."""
    if den != 1:
        if not nums:
            return 1, nums
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return den, nums


def _lcm_sum(parts: Sequence) -> tuple[int, dict]:
    """The canonical (D, nums) of the sum of the parts (p, q, items), each (p / q) * items.

    items is a one-pass iterable of (key, n) with distinct keys and nonzero
    n, and p is nonzero. D, the lcm of the q, is built and checked
    (`_check_den`) before any numerator is scaled; then each part adds
    n * p * (D / q) at its keys, and the first fills the sum with no lookup.
    Cancelled sums can leave a common factor, which `_reduced` divides out.
    """
    den = 1
    for _, q, _ in parts:
        if den % q:
            den = _check_den(lcm(den, q))
    nums = None
    for p, q, items in parts:
        f = p * (den // q)
        if f != 1:
            items = ((k, n * f) for k, n in items)
        if nums is None:
            nums = dict(items)
        else:
            _add_terms(nums, items)
    return _reduced(den, nums or {})


def _integer_form(terms: Iterable) -> tuple[int, dict]:
    """The canonical (D, nums) of the sum of the terms (key, p, q), q > 0, in two passes.

    The first pass reads the terms and builds D, the lcm of their reduced
    denominators: a p/q whose q divides D so far is kept as it is, and any
    other is reduced first; if q still does not divide D, D grows to
    lcm(D, q), checked by `_check_den`. The second scales each numerator
    once, by D / q, into the sum; a key whose sum reaches zero is removed,
    and `_reduced` divides out what cancellation leaves.
    """
    den, read = 1, []
    for key, p, q in terms:
        if den % q:
            g = gcd(p, q)
            p, q = p // g, q // g
            if den % q:
                den = _check_den(den * (q // gcd(den, q)))
        read.append((key, p, q))
    return _reduced(den, _add_terms({}, ((key, p * (den // q)) for key, p, q in read)))


def _rational_form(terms: Iterable) -> tuple[int, dict]:
    """`_integer_form` of (key, c) terms, each c an int or a Fraction (`frac` refuses the rest)."""
    return _integer_form((key, q.numerator, q.denominator) for key, q in ((k, frac(c)) for k, c in terms))


def _add_terms(out: dict, terms: Iterable) -> dict:
    """out, with each (key, value) of terms added into it; a key whose sum reaches zero is removed.

    Values are rationals or functions; each is false exactly when it is zero
    (a function by its structural `is_zero`), so a zero term adds nothing.
    """
    for key, value in terms:
        old = out.get(key)
        if old is None:
            if value:
                out[key] = value
        else:
            total = old + value
            if total:
                out[key] = total
            else:
                del out[key]
    return out


class _Linear:
    """translate, +, -, negation and scaling, each one call of the family's n-ary `combine`.

    A family is the classes that share one static combine: `FinSuppFn`, or
    `BoundedFn` and its subclasses. Any other operand gives NotImplemented.
    """

    __slots__ = ()

    def translate(self, g: Element):
        """(g.f)(h) = f(g^-1 h): the left action."""
        return self.combine(self.group, ((1, g, self),))

    def _sum(self, other, sign: int):
        if getattr(type(other), "combine", None) is not self.combine:
            return NotImplemented
        if self.group != other.group:
            raise ValueError("cannot add functions over different groups")
        return self.combine(self.group, ((1, None, self), (sign, None, other)))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.combine(self.group, ((-1, None, self),))

    def __mul__(self, scalar: Rational):
        return self.combine(self.group, ((frac(scalar), None, self),))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return not self.is_zero


class FinSuppFn(_Linear):
    """Finitely supported exact-rational function on a group: integer numerators over one denominator.

    f = nums / den: `den` > 0, and `nums` a dict from canonical element keys
    to nonzero ints, with gcd(den, *nums) = 1 (den = 1 for the zero
    function). So den is the lcm of the reduced denominators of f's values,
    and the form is canonical: equal functions have equal fields.
    Instances are treated as immutable values.
    """

    __slots__ = ("group", "den", "nums")

    def __init__(self, group: GroupSpec, coeffs: Mapping[Element, Rational] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self.group = group
        self.den, self.nums = _rational_form((group.check(g), c) for g, c in items)

    @classmethod
    def _raw(cls, group: GroupSpec, den: int, nums: dict) -> "FinSuppFn":
        """A function from a form that is already canonical, over checked keys."""
        obj = object.__new__(cls)
        obj.group = group
        obj.den = den
        obj.nums = nums
        return obj

    @classmethod
    def zero(cls, group: GroupSpec) -> "FinSuppFn":
        return cls._raw(group, 1, {})

    @staticmethod
    def combine(group: GroupSpec, terms: Sequence) -> "FinSuppFn":
        """sum c * (g . v) over the terms (c, g, v), g None for no shift, as integers over one lcm:
        g . v moves the numerator of v at k to g k. A lone term (1, None, v) is v itself.

        The term c * v is (c.numerator * v.nums) / (c.denominator * v.den),
        one part of `_lcm_sum`; a shifted term's keys come from one
        `left_translates` pass."""
        if len(terms) == 1 and terms[0][:2] == (1, None):
            return terms[0][2]
        return FinSuppFn._raw(group, *_lcm_sum([
            (c.numerator, c.denominator * v.den,
             zip(v.nums if g is None else group.left_translates(g, v.nums), v.nums.values()))
            for c, g, v in terms if c and v.nums
        ]))

    def evaluate(self, g: Element) -> Fraction:
        n = self.nums.get(g)
        return _ZERO if n is None else Fraction(n, self.den)

    def items(self):
        """(element, coefficient) pairs, each coefficient a Fraction."""
        den = self.den
        return {g: Fraction(n, den) for g, n in self.nums.items()}.items()

    def support(self) -> tuple[Element, ...]:
        return tuple(sorted(self.nums, key=self.group.sort_key))

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def translate_distances(self, shifts: Iterable[Element]) -> tuple[int, int, list[int]]:
        """D, D ||f||_1 and every D ||g.f - f||_1: integers over one denominator.

        With f = n / D, |x / D| = |x| / D as D > 0, so D ||g.f - f||_1 =
        sum_k |n(g^-1 k) - n(k)| exactly. Only points k in supp f or in
        g.supp f contribute. Split them:

        - k = g.h for h in supp f adds |n(h) - n(g.h)|;
        - k in supp f outside g.supp f adds |n(k)|, and these sum to
          ||n||_1 minus |n(g.h)| over the h in supp f with g.h in supp f.

        So the translates g.h of the whole support, one
        `GroupSpec.left_translates` pass per shift, give the whole sum, and
        neither the numerators nor ||n||_1 depend on g: both are read once
        for all shifts. Signs are not assumed.
        """
        n = self.nums
        mass = sum(map(abs, n.values()))
        translates = self.group.left_translates
        out = []
        for g in shifts:
            total = mass
            for c, m in zip(n.values(), map(n.get, translates(g, n))):
                total += abs(c) if m is None else abs(c - m) - abs(m)
            out.append(total)
        return self.den, mass, out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinSuppFn)
            and self.group == other.group
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        nums, den = self.nums, self.den
        terms = ", ".join(f"{self.group.elem_to_str(g)}: {Fraction(nums[g], den)}" for g in self.support())
        return f"FinSuppFn({{{terms}}})"

    def to_pairs(self) -> list:
        nums, den, write = self.nums, self.den, self.group.elem_to_json
        return [[write(g), _ratio_str(nums[g], den)] for g in self.support()]

    @classmethod
    def from_pairs(cls, group: GroupSpec, pairs: list, ratios: dict | None = None) -> "FinSuppFn":
        """The function a file's [element, "p/q"] pairs name; repeated elements sum. Each pair is
        read straight into integers and summed as it is read (`_integer_form`); the readers return
        checked elements, so nothing is checked twice. Each distinct "p/q" string is parsed once,
        through `ratios`: the table of the file being read (`parse_once`), or a new one."""
        ratios = {} if ratios is None else ratios
        terms = ((group.elem_from_json(e), *parse_once(ratios, c))
                 for e, c in json_pairs(pairs, "function"))
        return cls._raw(group, *_integer_form(terms))


def delta(group: GroupSpec, g: Element) -> FinSuppFn:
    """Dirac delta at g: coefficient 1 at g, zero elsewhere."""
    return FinSuppFn._raw(group, 1, {group.check(g): 1})


# -- bounded functions ------------------------------------------------------


class BoundedFn(_Linear):
    """Bounded function on a group, in one normal form: const + fn + sum c * (shift . leaf).

    `const` is a Fraction, `fn` a `FinSuppFn` and `terms` a dict
    {(shift, leaf): c} with no zero c; the constructor builds a value with
    no terms, and only `combine` sets them. A leaf is a subclass that
    evaluates itself (`TreeFlow`) to 0 or 1, an indicator, so `pair_eval`
    sums integers against it. A leaf is its own one term (e, leaf) with
    coefficient 1, so it must be hashable. `combine` is
    the one sum, and every operator goes through it: equal terms merge, so
    a sum that cancels term by term is structurally zero, and equality does
    not depend on the order of the terms. The file formats hold every value
    with no terms: the fundamental class is the constant 1, and inflated
    uniformly finite chains are finitely supported.
    """

    __slots__ = ("group", "const", "fn", "terms")

    def __init__(self, group: GroupSpec, const: Rational = 0, fn: FinSuppFn | None = None):
        self.group = group
        self.const = frac(const)
        self.fn = FinSuppFn.zero(group) if fn is None else fn
        self.terms = {}

    @staticmethod
    def combine(group: GroupSpec, terms: Sequence) -> "BoundedFn":
        """sum c * (g . v) over the terms (c, g, v), g None for no shift: the constants, the finite
        parts (by `FinSuppFn.combine`) and the (shift, leaf) terms are each summed once; a shift g
        moves a term's shift s to g s and fixes a constant. A lone term (1, None, v) is v itself,
        and a sum whose only part is (e, leaf) with coefficient 1 is that leaf."""
        if len(terms) == 1 and terms[0][:2] == (1, None):
            return terms[0][2]
        terms = [term for term in terms if term[0]]
        const = sum((c * v.const for c, _, v in terms if v.const), _ZERO)
        fn = FinSuppFn.combine(group, [(c, g, v.fn) for c, g, v in terms])
        leaves = _add_terms({}, (
            ((s if g is None else group.mul(g, s), leaf), c * ci)
            for c, g, v in terms for (s, leaf), ci in v.terms.items()
        ))
        if len(leaves) == 1 and not const and not fn:
            ((shift, leaf), c), = leaves.items()
            if c == 1 and shift == group.identity:
                return leaf
        value = BoundedFn(group, const, fn)
        value.terms = leaves
        return value

    def evaluate(self, g: Element) -> Fraction:
        value = self.const + self.fn.evaluate(g)
        if self.terms:
            group = self.group
            value += sum((c * leaf.evaluate(group.mul(group.inv(s), g)) for (s, leaf), c in self.terms.items()),
                         Fraction(0))
        return value

    @property
    def is_zero(self) -> bool:
        """Structural zero test; False does not prove a value with terms nonzero."""
        return not self.const and not self.fn and not self.terms

    def translate(self, g):
        return super().translate(g) if self.fn or self.terms else self  # a constant is fixed by every shift

    def __eq__(self, other):
        return (
            isinstance(other, BoundedFn)
            and self.group == other.group
            and self.const == other.const
            and self.fn == other.fn
            and self.terms == other.terms
        )

    def __repr__(self):
        word = self.group.elem_to_str
        terms = "".join(f", {c} * {word(s)}.{leaf!r}" for (s, leaf), c in self.terms.items())
        return f"BoundedFn({self.const}, {self.fn!r}{terms})"

    def to_json(self) -> dict:
        """The shortest of the three serialized forms that holds a value with no terms."""
        if self.terms:
            raise ValueError("a bounded value with tree-flow terms has no serialized form")
        if self.fn.is_zero:
            return {"constant": frac_str(self.const)}
        if not self.const:
            return {"finite": self.fn.to_pairs()}
        return {"constant-plus-finite": {"constant": frac_str(self.const), "finite": self.fn.to_pairs()}}


class TreeFlow(BoundedFn):
    """Indicator that a fixed edge at the identity starts the geodesic to gp.

    Defined over a free group with a boundary point p given by an
    eventually-constant generator ray. evaluate(g) is 1 exactly when the
    first letter of the reduced infinite word g * ray^infinity equals the
    edge letter, else 0. A leaf of the normal form: a zero constant and
    finite part, and itself as its one term (`terms`).
    """

    __slots__ = ("edge", "ray")

    def __init__(self, group: FreeGroup, edge: int, ray: int):
        if not isinstance(group, FreeGroup):
            raise ValueError("tree flows are only defined over free groups")
        if type(edge) is not int:
            raise ValueError(f"edge letter must be an integer, got {edge!r}")
        if type(ray) is not int:
            raise ValueError(f"ray letter must be an integer, got {ray!r}")
        if edge == 0 or abs(edge) > group.rank:
            raise ValueError(f"edge letter {edge} out of range")
        if not 1 <= ray <= group.rank:
            raise ValueError(f"ray letter {ray} must be a positive generator index")
        self.group = group
        self.const = _ZERO
        self.fn = FinSuppFn.zero(group)
        self.edge = edge
        self.ray = ray

    @property
    def terms(self) -> dict:
        """The leaf's one term, built on each read: a stored dict holding the leaf itself would make
        every leaf a reference cycle, alive with its group until the cyclic collector runs."""
        return {(self.group.identity, self): _ONE}

    def evaluate(self, g):
        return _ONE if ray_first_letter(g, self.ray) == self.edge else _ZERO

    def __eq__(self, other):
        return (
            isinstance(other, TreeFlow)
            and self.group == other.group
            and self.edge == other.edge
            and self.ray == other.ray
        )

    def __hash__(self):
        return hash((self.edge, self.ray))

    def _labels(self) -> tuple[str, str]:
        """The edge and ray letters as the group writes one-letter words: ("b^-1", "a")."""
        word = self.group.elem_to_str
        return word((self.edge,)), word((self.ray,))

    def __repr__(self):
        return "TreeFlow(edge={}, ray={})".format(*self._labels())

    def to_json(self):
        edge, ray = self._labels()
        return {"tree-flow": {"edge": edge, "ray": ray}}


def ray_first_letter(word: tuple[int, ...], ray: int) -> int:
    """First letter of the reduced infinite word `word * ray^infinity`.

    Only the maximal trailing run of ray^-1 letters can cancel into the
    ray, so strip it; if nothing remains the word heads straight down the
    ray, otherwise the leading letter is unchanged.
    """
    i = len(word)
    while i and word[i - 1] == -ray:
        i -= 1
    return word[0] if i else ray


def bounded_from_json(group: GroupSpec, data: dict, ratios: dict | None = None) -> BoundedFn:
    """The bounded value a file's one-field object names; its rationals, the constant included,
    are parsed through `ratios`, the table of the file being read (`parse_once`), or a new one."""
    if type(data) is not dict or len(data) != 1:
        raise ValueError("a bounded value must be an object with exactly one field")
    ratios = {} if ratios is None else ratios
    (kind, payload), = data.items()
    if kind == "constant":
        return BoundedFn(group, Fraction(*parse_once(ratios, payload)))
    if kind == "finite":
        return BoundedFn(group, 0, FinSuppFn.from_pairs(group, payload, ratios))
    if kind == "constant-plus-finite":
        const = Fraction(*parse_once(ratios, json_field(payload, "constant", str, kind)))
        finite = FinSuppFn.from_pairs(group, json_field(payload, "finite", list, kind), ratios)
        return BoundedFn(group, const, finite)
    if kind == "tree-flow":
        if not isinstance(group, FreeGroup):
            raise ValueError("tree-flow values require a free group")
        edge_word = group.elem_from_str(json_field(payload, "edge", str, kind))
        ray_word = group.elem_from_str(json_field(payload, "ray", str, kind))
        if len(edge_word) != 1 or len(ray_word) != 1 or ray_word[0] < 0:
            raise ValueError("tree-flow edge/ray must be single letters (ray positive)")
        return TreeFlow(group, edge_word[0], ray_word[0])
    raise ValueError(f"unknown bounded-function kind {kind!r}")


# -- evaluation pairing ------------------------------------------------------


def pair_eval(phi: FinSuppFn, v: FinSuppFn | BoundedFn) -> Fraction:
    """Evaluation pairing <phi, v> = sum_g phi(g) v(g) over supp(phi), summed on integers.

    With phi = n / D and a finite part m / E, the finite part gives the
    integer dot product of n and m over D E; a constant c gives c sum(n) / D;
    a term c (s . leaf) gives c / D times the sum of n(g) over the g in
    supp(phi) where the leaf, an indicator, is 1 at s^-1 g. So each nonzero
    part forms one Fraction.
    """
    if phi.group != v.group:
        raise ValueError("pairing requires functions over the same group")
    fn = v if isinstance(v, FinSuppFn) else v.fn
    small, large = (phi.nums, fn.nums) if len(phi.nums) <= len(fn.nums) else (fn.nums, phi.nums)
    dot = sum(n * m for g, n in small.items() if (m := large.get(g)) is not None)
    total = Fraction(dot, phi.den * fn.den) if dot else _ZERO
    if fn is v:
        return total
    nums, den = phi.nums, phi.den
    parts = [(v.const, sum(nums.values()))] if v.const else []
    if v.terms:
        group = v.group
        for (s, leaf), c in v.terms.items():
            hits = map(leaf.evaluate, group.left_translates(group.inv(s), nums))
            parts.append((c, sum(n for n, hit in zip(nums.values(), hits) if hit)))
    for c, acc in parts:
        if acc:
            total += Fraction(c.numerator * acc, c.denominator * den)
    return total
