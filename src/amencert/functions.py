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
translated tree flows, the indicators of the free-group witness, each
held as a plain (shift, edge, ray) term (`tree_flow` builds one). Terms
with the same shift, edge and ray merge, so sums that cancel are
structurally zero. Bounded functions are never truncated to vectors;
pairings only ever evaluate them at the finitely many points of a
summable support, so every number in the pipeline stays an exact
rational.

Each family has one n-ary sum, `combine`. Every operator on its values is
one call of it, and so are the boundaries and coboundaries of `complexes`.
`FinSuppFn.combine` adds integer numerators in one loop, after it builds
and checks the lcm of the denominators and before it scales any
numerator; the file reader does the same in two passes, each distinct
coefficient of a value parsed, reduced and scaled once in one table of
the value (`_integer_form`), and `complexes.deflate`, whose keys never
meet, writes each scaled numerator once.

Translation is the left action (g.f)(h) = f(g^-1 h) throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .groups import Element, FreeGroup, GroupSpec, _short, json_field, json_pairs

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
        raise ValueError(f'a rational must be a "p/q" string, got {_short(s)}')
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
        raise ValueError(f"cannot parse rational {_short(s)}") from exc
    if too_long or exp and max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"rational {_short(s)} passes the {MAX_RATIONAL_DIGITS}-digit limit")
    return q.numerator, q.denominator


def parse_frac(s: str) -> Fraction:
    """The rational `parse_ratio` reads, as one Fraction."""
    return Fraction(*parse_ratio(s))


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
    """(den, nums) divided by gcd(den, *nums): the canonical form of nums / den, nums holding no zero.

    The sum of the numerators is an integer combination of them, so it
    leaves the gcd as it is; read second, it usually brings the gcd to 1,
    and from there `gcd` reads no further argument.
    """
    if den != 1:
        if not nums:
            return 1, nums
        vals = nums.values()
        g = gcd(den, sum(vals), *vals)
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return den, nums


def _integer_form(terms: Iterable, read) -> tuple[int, dict]:
    """The canonical (D, nums) of the sum of the terms (key, c), in two passes: each distinct
    coefficient c is read once, to (p, q) = read(c) with q > 0 and p/q its value, and scaled once.

    The table of the call is keyed by c exactly as the terms give it: a
    "p/q" string of a file, or a (p, q) pair. Write p'/q' for p/q in lowest
    terms. The first pass reads and keeps the terms in order, and reads the
    first occurrence of each coefficient into the table and folds it into D:
    a q that divides D so far leaves D as it is, and any other is reduced
    first; if q' still does not divide D, D grows to lcm(D, q'), checked by
    `_check_den` at that term. A coefficient that raises is never stored. A
    repeated coefficient could not grow D, as its q' already divides it, so
    D and the term at which the check fires are those of a fold over every
    term. The second pass scales each distinct coefficient once, to the
    integer p D / q = p' (D / q'), and maps each key to its coefficient's
    numerator.

    The result is canonical. D is the lcm of the q', and each numerator is
    D times its value. With distinct keys and no zero coefficient, the map
    holds no zero, and each value is one p'/q'. A prime power r^a that
    exactly divides D then exactly divides some q', whose numerator
    p' (D / q') is prime to r, as r does not divide p'; so gcd(D, *nums) is
    1. A repeated key or a zero coefficient instead sums the terms by
    `_add_terms`, which drops the keys whose sum reaches zero, and
    `_reduced` divides out what cancellation leaves.
    """
    den, scale, kept = 1, {}, []
    for term in terms:
        c = term[1]
        if c not in scale:
            p, q = scale[c] = read(c)
            if den % q:
                q //= gcd(p, q)
                if den % q:
                    den = _check_den(den * (q // gcd(den, q)))
        kept.append(term)
    for c, (p, q) in scale.items():
        scale[c] = p * den // q
    nums = {key: scale[c] for key, c in kept}
    if len(nums) == len(kept) and all(scale.values()):
        return den, nums
    return _reduced(den, _add_terms({}, ((key, scale[c]) for key, c in kept)))


def _rational_form(terms: Iterable) -> tuple[int, dict]:
    """`_integer_form` of (key, c) terms, each c an int or a Fraction (`frac` refuses the rest),
    keyed by c's (numerator, denominator) pair, which `tuple` reads as itself."""
    pairs = ((key, (q.numerator, q.denominator)) for key, q in ((k, frac(c)) for k, c in terms))
    return _integer_form(pairs, tuple)


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

    A family is one class with its static combine: `FinSuppFn` or
    `BoundedFn`. Any other operand gives NotImplemented.
    """

    __slots__ = ()

    def translate(self, g: Element):
        """(g.f)(h) = f(g^-1 h): the left action."""
        return self.combine(self.group, ((1, g, self),))

    def _sum(self, other, sign: int):
        if type(other) is not type(self):
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
        c an int or a Fraction. The first pass folds each q = c.denominator *
        v.den of a nonzero term into D, their lcm, checked (`_check_den`) as it
        grows and before any numerator is scaled. The second adds n *
        c.numerator * (D / q) in place at k, or at g k from one
        `left_translates` pass over v's keys, which are distinct, as g . v
        moves distinct keys to distinct keys; a key whose sum reaches zero is
        deleted, so no zero is kept. Each numerator is then D times its value,
        and `_reduced` divides out the common factor that cancellation can
        leave, which makes the form canonical."""
        if len(terms) == 1 and terms[0][:2] == (1, None):
            return terms[0][2]
        den = 1
        for c, _, v in terms:
            if c and v.nums:
                q = c.denominator * v.den
                if den % q:
                    den = _check_den(lcm(den, q))
        nums = {}
        get = nums.get
        for c, g, v in terms:
            if c and v.nums:
                f = c.numerator * (den // (c.denominator * v.den))
                src = v.nums
                for k, n in zip(src if g is None else group.left_translates(g, src), src.values()):
                    total = get(k, 0) + n * f
                    if total:
                        nums[k] = total
                    else:
                        del nums[k]
        return FinSuppFn._raw(group, *_reduced(den, nums))

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
        terms = ", ".join(f"{self.group.elem_to_json(g)}: {Fraction(nums[g], den)}" for g in self.support())
        return f"FinSuppFn({{{terms}}})"

    def to_pairs(self) -> list:
        nums, den, write = self.nums, self.den, self.group.elem_to_json
        return [[write(g), _ratio_str(nums[g], den)] for g in self.support()]

    @classmethod
    def from_pairs(cls, group: GroupSpec, pairs: list) -> "FinSuppFn":
        """The function a value's [element, "p/q"] pairs name; repeated elements sum. Each pair is
        read straight into integers, with no Fraction, by `_integer_form`: each distinct "p/q"
        string of the value parsed, reduced and scaled once, and the result canonical by the proof
        in its docstring. A coefficient that is not a str is refused by `parse_ratio` before it
        reaches that table, so a list gives that one-line error and not a TypeError for a key that
        does not hash. The readers return checked elements, so nothing is checked twice. The pairs
        are read in order, and the first bad one is named: its element, then its coefficient, then
        the common denominator past the digit limit."""
        terms = ((group.elem_from_json(e), c if type(c) is str else parse_ratio(c))
                 for e, c in json_pairs(pairs, "function"))
        return cls._raw(group, *_integer_form(terms, parse_ratio))


def delta(group: GroupSpec, g: Element) -> FinSuppFn:
    """Dirac delta at g: coefficient 1 at g, zero elsewhere."""
    return FinSuppFn._raw(group, 1, {group.check(g): 1})


# -- bounded functions ------------------------------------------------------


class BoundedFn(_Linear):
    """Bounded function on a group, in one normal form: const + fn + sum c * (shift . flow(edge, ray)).

    `const` is a Fraction, `fn` a `FinSuppFn` and `terms` a dict
    {(shift, edge, ray): c} with no zero c, each key a translated tree flow
    (`tree_flow`): an indicator, so `pair_eval` sums integers against it.
    The constructor builds a value with no terms; `combine` and `tree_flow`
    build theirs through `_raw`. `combine` is the one sum, and every operator goes through
    it: equal terms merge, so a sum that cancels term by term is
    structurally zero, and equality does not depend on the order of the
    terms. The file formats hold every value with no terms and the
    unshifted tree flow: the fundamental class is the constant 1, and
    inflated uniformly finite chains are finitely supported.
    """

    __slots__ = ("group", "const", "fn", "terms")

    def __init__(self, group: GroupSpec, const: Rational = 0, fn: FinSuppFn | None = None):
        self.group = group
        self.const = frac(const)
        self.fn = FinSuppFn.zero(group) if fn is None else fn
        self.terms = {}

    @classmethod
    def _raw(cls, group: GroupSpec, const: Fraction, fn: FinSuppFn, terms: dict) -> "BoundedFn":
        """A value from parts that are already in normal form: a Fraction constant, a function over
        group and a {(shift, edge, ray): c} dict with no zero c."""
        obj = object.__new__(cls)
        obj.group = group
        obj.const = const
        obj.fn = fn
        obj.terms = terms
        return obj

    @staticmethod
    def combine(group: GroupSpec, terms: Sequence) -> "BoundedFn":
        """sum c * (g . v) over the terms (c, g, v), g None for no shift: the constants, the finite
        parts (by `FinSuppFn.combine`) and the (shift, edge, ray) terms are each summed once; a shift
        g moves a term's shift s to g s and fixes a constant. A lone term (1, None, v) is v itself."""
        if len(terms) == 1 and terms[0][:2] == (1, None):
            return terms[0][2]
        terms = [term for term in terms if term[0]]
        const = sum((c * v.const for c, _, v in terms if v.const), _ZERO)
        fn = FinSuppFn.combine(group, [(c, g, v.fn) for c, g, v in terms])
        return BoundedFn._raw(group, const, fn, _add_terms({}, (
            ((s if g is None else group.mul(g, s), edge, ray), c * ci)
            for c, g, v in terms for (s, edge, ray), ci in v.terms.items()
        )))

    def evaluate(self, g: Element) -> Fraction:
        value = self.const + self.fn.evaluate(g)
        if self.terms:
            group = self.group
            value += sum((c for (s, edge, ray), c in self.terms.items()
                          if ray_first_letter(group.mul(group.inv(s), g), ray) == edge), _ZERO)
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
        word = self.group.elem_to_json
        terms = "".join(f", {c} * {word(s)}.flow({word((edge,))}, {word((ray,))})"
                        for (s, edge, ray), c in self.terms.items())
        return f"BoundedFn({self.const}, {self.fn!r}{terms})"

    def to_json(self) -> dict:
        """The shortest of the three serialized forms that holds a value with no terms, or the
        tree-flow form of a value that is exactly one unit unshifted tree flow."""
        if self.terms:
            (s, edge, ray), c = next(iter(self.terms.items()))
            if len(self.terms) > 1 or c != 1 or s != self.group.identity or self.const or self.fn:
                raise ValueError("a bounded value with tree-flow terms has no serialized form")
            word = self.group.elem_to_json  # each letter as a one-letter word: "b^-1", "a"
            return {"tree-flow": {"edge": word((edge,)), "ray": word((ray,))}}
        if self.fn.is_zero:
            return {"constant": frac_str(self.const)}
        if not self.const:
            return {"finite": self.fn.to_pairs()}
        return {"constant-plus-finite": {"constant": frac_str(self.const), "finite": self.fn.to_pairs()}}


def tree_flow(group: FreeGroup, edge: int, ray: int) -> BoundedFn:
    """Indicator that a fixed edge at the identity starts the geodesic to gp.

    Defined over a free group with a boundary point p given by an
    eventually-constant generator ray: the value at g is 1 exactly when the
    first letter of the reduced infinite word g * ray^infinity equals the
    edge letter, else 0. Its one term is (e, edge, ray) with coefficient 1.
    """
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
    return BoundedFn._raw(group, _ZERO, FinSuppFn.zero(group), {(group.identity, edge, ray): _ONE})


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


def bounded_from_json(group: GroupSpec, data: dict) -> BoundedFn:
    """The bounded value a file's one-field object names; a constant is read by `parse_frac`, and
    a finite part by `FinSuppFn.from_pairs`."""
    if type(data) is not dict or len(data) != 1:
        raise ValueError("a bounded value must be an object with exactly one field")
    (kind, payload), = data.items()
    if kind == "constant":
        return BoundedFn(group, parse_frac(payload))
    if kind == "finite":
        return BoundedFn(group, 0, FinSuppFn.from_pairs(group, payload))
    if kind == "constant-plus-finite":
        const = parse_frac(json_field(payload, "constant", str, kind))
        finite = FinSuppFn.from_pairs(group, json_field(payload, "finite", list, kind))
        return BoundedFn(group, const, finite)
    if kind == "tree-flow":
        if not isinstance(group, FreeGroup):
            raise ValueError("tree-flow values require a free group")
        edge, ray = json_field(payload, "edge", str, kind), json_field(payload, "ray", str, kind)
        edge_word, ray_word = group.elem_from_json(edge), group.elem_from_json(ray)
        if len(edge_word) != 1:
            raise ValueError(f"tree-flow edge must be one letter, got {_short(edge)}")
        if len(ray_word) != 1 or ray_word[0] < 0:
            raise ValueError(f"tree-flow ray must be one positive letter, got {_short(ray)}")
        return tree_flow(group, edge_word[0], ray_word[0])
    raise ValueError(f"unknown bounded-function kind {_short(kind)}")


# -- evaluation pairing ------------------------------------------------------


def pair_eval(phi: FinSuppFn, v: FinSuppFn | BoundedFn) -> Fraction:
    """Evaluation pairing <phi, v> = sum_g phi(g) v(g) over supp(phi), as one Fraction of `_pair_ratio`."""
    return Fraction(*_pair_ratio(phi, v))


def _pair_ratio(phi: FinSuppFn, v: FinSuppFn | BoundedFn) -> tuple[int, int]:
    """<phi, v> as (p, q), q > 0 and gcd(p, q) = 1, summed on integers with no Fraction.

    With phi = n / D and a finite part m / E, the finite part gives the
    integer dot product of n and m over E; a constant c gives c sum(n); a
    term c (s . flow(edge, ray)) gives c times the sum of n(g) over the g in
    supp(phi) where the ray head of s^-1 g (`ray_first_letter`) is the
    edge. Those parts are summed as p / Q, Q the lcm of E and the parts'
    denominators, and the value is p / (Q D), reduced by one gcd. Each of
    the few denominators is that of a checked value or of one rational
    coefficient, so Q is not checked here; `pairing.pair` checks the lcm
    of the values it sums.
    """
    if phi.group != v.group:
        raise ValueError("pairing requires functions over the same group")
    fn = v if isinstance(v, FinSuppFn) else v.fn
    small, large = (phi.nums, fn.nums) if len(phi.nums) <= len(fn.nums) else (fn.nums, phi.nums)
    num = sum(n * m for g, n in small.items() if (m := large.get(g)) is not None)
    den = fn.den if num else 1
    if fn is not v:
        nums = phi.nums
        parts = [(v.const, sum(nums.values()))] if v.const else []
        if v.terms:
            group = v.group
            for (s, edge, ray), c in v.terms.items():
                heads = map(ray_first_letter, group.left_translates(group.inv(s), nums), repeat(ray))
                parts.append((c, sum(n for n, head in zip(nums.values(), heads) if head == edge)))
        for c, acc in parts:
            if acc:
                q = c.denominator
                if den % q:
                    common = lcm(den, q)
                    num *= common // den
                    den = common
                num += c.numerator * acc * (den // q)
    if not num:
        return 0, 1
    den *= phi.den
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    return num, den
