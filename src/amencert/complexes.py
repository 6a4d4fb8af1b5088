"""Chain and cochain complexes at truncation scale.

Four complexes share this module:

* summable equivariant chains ("l1" kind, `FinSuppFn` values) and bounded
  equivariant chains ("linf" kind, `BoundedFn` values), both stored by
  their slice on {e} x G^m with finite support, with the insertion-sum
  boundary operator;
* bounded cochains with summable-function values, stored either as a
  finite slice map or as an evaluation rule (the coboundary of almost any
  cochain has infinite slice support, so cochains must be lazy), with the
  face-deletion coboundary;
* uniformly finite chains: plain finitely supported functions on tuples
  with a support-diameter bound, with the face-deletion boundary;
* the inflation isomorphism between uniformly finite chains and bounded
  equivariant chains, in both directions.

Values are checked where they enter: the public constructors check every
degree, key, value and diameter bound. Internal operations (boundaries and
inflation) build their results through the private `_raw` constructors,
each with the reason no check can fail there. `_read` and `_write` own the
chain and cochain file format. `_read` checks each key element as it reads
it, and each value is made by a reader over the file's group, so
`from_json` checks each element once: it makes the constructor's other
checks, in its order and with its texts (the degree, then key lengths,
zero values and repeated keys by `_slice_map`, and `UfChain`'s bound by
`_checked`), so every error text past the file's own fields is the
constructor's.

An equivariant degree-m chain is recovered from its slice by
c(g0,...,gm) = g0 . slice(g0^-1 g1, ..., g0^-1 gm).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping

from .groups import GroupSpec, _short, group_from_dict, json_check, json_field, json_pairs
from .functions import (
    BoundedFn,
    FinSuppFn,
    _ZERO,
    _add_terms,
    _check_den,
    _integer_form,
    _rational_form,
    _ratio_str,
    _reduced,
    bounded_from_json,
    delta,
    parse_ratio,
)

KIND_L1 = "l1"
KIND_LINF = "linf"

DUAL_QUOTIENT = "quotient-dual"  # functionals on bounded functions mod constants
DUAL_FULL = "full-dual"          # functionals on all bounded functions
DUAL_SCALAR = "scalar"           # scalar coefficients, embedded via delta at e


def _sized(key: tuple, length: int) -> tuple:
    """key, refused unless it holds `length` elements."""
    if len(key) != length:
        raise ValueError(f"expected a {length}-tuple slice key, got {key!r}")
    return key


def _tuple_key(group: GroupSpec, key, length: int) -> tuple:
    """key as a `length`-tuple of checked elements of group."""
    return tuple(map(group.check, _sized(tuple(key), length)))


def _check_kind(kind) -> str:
    if kind not in (KIND_L1, KIND_LINF):
        raise ValueError(f"unknown chain kind {_short(kind)}")
    return kind


def _check_degree(degree, what: str) -> None:
    json_check(degree, int, f"{what} degree")
    if degree < 0:
        raise ValueError(f"{what} degree must be >= 0")


def _checked_entries(group: GroupSpec, degree: int, entries, value_type: type, bad_type: str, bad_group: str):
    """The (key, value) entries a constructor is given, each key checked as a `degree`-tuple of
    group elements and each value as a value_type over group, one entry at a time."""
    for key, value in entries.items() if isinstance(entries, Mapping) else entries:
        key = _tuple_key(group, key, degree)
        if not isinstance(value, value_type):
            raise ValueError(bad_type)
        if value.group != group:
            raise ValueError(bad_group)
        yield key, value


def _slice_map(degree: int, entries: Iterable, what: str) -> dict:
    """The dict of (key, value) entries whose elements and values are checked: each key a
    `degree`-tuple, zero values dropped, duplicate keys refused."""
    out: dict[tuple, object] = {}
    for key, value in entries:
        _sized(key, degree)
        if value:
            if key in out:
                raise ValueError(f"duplicate {what} key {key!r}")
            out[key] = value
    return out


def _read(data, what: str, read_value) -> tuple[GroupSpec, int, list]:
    """(group, degree, entries) of a chain or cochain file; read_value(group, value) reads each value.

    Each key element is read by the group and each value by read_value over
    the same group. Every key is read before any is checked further: the
    degree, key lengths, zero values and repeated keys are left to
    `from_json`, which checks them as the constructor does.
    """
    group = group_from_dict(json_field(data, "group", dict, what))
    degree = json_field(data, "degree", int, what)
    entries = []
    for key, value in json_pairs(json_field(data, "entries", list, what), f"{what} entries"):
        if type(key) is not list:
            json_check(key, list, f"{what} key")  # raises, naming the key's type
        key = tuple(map(group.elem_from_json, key))
        entries.append((key, read_value(group, value)))
    return group, degree, entries


def _write(group: GroupSpec, degree: int, fields: dict, entries: Mapping, write_value) -> dict:
    """The file form read by `_read`: group, degree, fields, then entries in canonical key order."""
    return {
        "group": group.to_dict(),
        "degree": degree,
        **fields,
        "entries": [
            [list(map(group.elem_to_json, key)), write_value(entries[key])]
            for key in sorted(entries, key=lambda k: tuple(map(group.sort_key, k)))
        ],
    }


def _read_l1(group: GroupSpec, value) -> FinSuppFn:
    if type(value) is not dict or list(value) != ["l1"]:
        raise ValueError('an l1 chain value must be an object whose one field is "l1"')
    return FinSuppFn.from_pairs(group, value["l1"])


class EquivariantChain:
    """Equivariant chain stored by its finitely supported slice on {e} x G^m."""

    __slots__ = ("group", "degree", "kind", "slice")

    def __init__(self, group: GroupSpec, degree: int, kind: str, entries: Mapping | Iterable = ()):
        _check_degree(degree, "chain")
        value_type = FinSuppFn if _check_kind(kind) == KIND_L1 else BoundedFn
        self.group = group
        self.degree = degree
        self.kind = kind
        self.slice = _slice_map(degree, _checked_entries(
            group, degree, entries, value_type,
            f"{kind} chains take {value_type.__name__} values", "chain value over the wrong group",
        ), "slice")

    @classmethod
    def _raw(cls, group, degree, kind, slice_map):
        obj = object.__new__(cls)
        obj.group = group
        obj.degree = degree
        obj.kind = kind
        obj.slice = slice_map
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.slice

    def support_radius(self) -> int:
        """Largest word length appearing in a slice key (0 for degree 0)."""
        e = self.group.identity
        radius = 0
        for key in self.slice:
            for g in key:
                radius = max(radius, self.group.dist(e, g))
        return radius

    def boundary(self) -> "EquivariantChain":
        """Insertion-sum boundary, pushed forward through the slice support.

        Summing insertions of every group element against a finitely
        supported equivariant chain reduces to one face per stored key:
        insertion at the front contributes through the orbit representative
        (translate by the inverse of the first key entry), insertions
        elsewhere delete one key coordinate with an alternating sign. Each
        output value is one `combine` of the (sign, shift, value) faces on its key.
        """
        if self.degree == 0:
            raise ValueError("boundary of a degree-0 chain is undefined")
        group = self.group
        faces: dict[tuple, list] = {}
        for key, value in self.slice.items():
            g1i = group.inv(key[0])
            faces.setdefault(tuple(group.mul(g1i, g) for g in key[1:]), []).append((1, g1i, value))
            for i in range(self.degree):
                faces.setdefault(key[:i] + key[i + 1 :], []).append((1 if i % 2 else -1, None, value))
        combine = (FinSuppFn if self.kind == KIND_L1 else BoundedFn).combine
        out = {key: value for key, terms in faces.items() if (value := combine(group, terms))}
        return EquivariantChain._raw(group, self.degree - 1, self.kind, out)

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantChain)
            and self.group == other.group
            and self.degree == other.degree
            and self.kind == other.kind
            and self.slice == other.slice
        )

    def __repr__(self):
        return f"EquivariantChain(degree={self.degree}, kind={self.kind}, entries={len(self.slice)})"

    def to_json(self) -> dict:
        write = (lambda v: {"l1": v.to_pairs()}) if self.kind == KIND_L1 else (lambda v: v.to_json())
        return _write(self.group, self.degree, {"kind": self.kind}, self.slice, write)

    @classmethod
    def from_json(cls, data: dict) -> "EquivariantChain":
        """The chain a file names; its kind is checked before any entry is read, as it picks the value reader."""
        kind = _check_kind(json_field(data, "kind", str, "chain"))
        group, degree, entries = _read(data, "chain", _read_l1 if kind == KIND_L1 else bounded_from_json)
        _check_degree(degree, "chain")
        return cls._raw(group, degree, kind, _slice_map(degree, entries, "slice"))


class BoundedCochain:
    """Equivariant bounded cochain with summable-function values.

    Values are reported through `value_at(key)` for the slice key
    (g1,...,gm), i.e. the cochain evaluated at (e,g1,...,gm). A cochain is
    backed either by a finite map (serializable) or by an evaluation rule;
    coboundaries are always rule-backed. Quotient-dual cochains must
    produce zero-sum values, which is enforced on every access.
    """

    __slots__ = ("group", "degree", "dual", "label", "_entries", "_rule")

    def __init__(self, group, degree, dual, *, entries=None, rule=None, label=None):
        _check_degree(degree, "cochain")
        if dual not in (DUAL_QUOTIENT, DUAL_FULL, DUAL_SCALAR):
            raise ValueError(f"unknown dual flag {_short(dual)}")
        if (entries is None) == (rule is None):
            raise ValueError("exactly one of entries/rule must be given")
        self.group = group
        self.degree = degree
        self.dual = dual
        self.label = label
        self._rule = rule
        self._entries = None
        if entries is not None:
            bad = "cochain values must be FinSuppFn over the same group"
            self._take(_checked_entries(group, degree, entries, FinSuppFn, bad, bad))

    def _take(self, entries: Iterable) -> None:
        """Back the cochain by the map of (key, value) entries whose elements and values are checked."""
        self._entries = _slice_map(self.degree, entries, "cochain")
        for value in self._entries.values():
            self._check_value(value)

    def _check_value(self, value: FinSuppFn) -> None:
        if self.dual == DUAL_QUOTIENT and sum(value.nums.values()):
            raise ValueError("quotient-dual cochain produced a value with nonzero coefficient sum")

    def value_at(self, key) -> FinSuppFn:
        return self._value(_tuple_key(self.group, key, self.degree))

    def _value(self, key: tuple) -> FinSuppFn:
        """`value_at` at a key that is already a `degree`-tuple of checked elements."""
        if self._entries is not None:
            return self._entries.get(key, FinSuppFn.zero(self.group))
        value = self._rule(key)
        self._check_value(value)
        return value

    def coboundary(self) -> "BoundedCochain":
        """Face-deletion coboundary, rule-backed: each value is one `combine` of its m + 2 faces."""
        group = self.group
        m = self.degree

        def rule(key: tuple) -> FinSuppFn:
            h1i = group.inv(key[0])
            # every key read is made from the checked key by group operations or is a slice of it
            front = (1, key[0], self._value(tuple(group.mul(h1i, g) for g in key[1:])))
            faces = [(1 if i % 2 else -1, None, self._value(key[:i] + key[i + 1 :])) for i in range(m + 1)]
            return FinSuppFn.combine(group, [front, *faces])

        label = f"coboundary({self.label})" if self.label else None
        return BoundedCochain(group, m + 1, self.dual, rule=rule, label=label)

    def equal_on(self, other: "BoundedCochain", keys: Iterable) -> bool:
        """Exact value equality over an explicit finite family of keys."""
        if (self.group, self.degree) != (other.group, other.degree):
            return False
        return all(self.value_at(k) == other.value_at(k) for k in keys)

    def __repr__(self):
        backing = "rule" if self._entries is None else "map"
        return f"BoundedCochain(degree={self.degree}, dual={self.dual}, backing={backing})"

    def to_json(self) -> dict:
        if self._entries is None:
            raise ValueError("only map-backed cochains have a serialized form")
        out = _write(self.group, self.degree, {"dual": self.dual}, self._entries, FinSuppFn.to_pairs)
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BoundedCochain":
        group, degree, entries = _read(data, "cochain", FinSuppFn.from_pairs)
        dual = json_field(data, "dual", str, "cochain", DUAL_FULL)
        label = json_field(data, "label", str, "cochain", None)
        cochain = cls(group, degree, dual, entries=(), label=label)
        cochain._take(entries)
        return cochain


def _diameter(group: GroupSpec, keys: Iterable[tuple]) -> int:
    """The largest word distance between two coordinates of one key (0 with no key)."""
    return max((group.dist(a, b) for key in keys for i, a in enumerate(key) for b in key[i + 1 :]), default=0)


class UfChain:
    """Bounded chain with controlled support: finitely supported tuples
    of diameter at most `diameter_bound` in the word metric.

    Held as `FinSuppFn` holds a function: integer numerators `nums` over
    one denominator `den`, in the same canonical form, keyed by tuples."""

    __slots__ = ("group", "degree", "den", "nums", "diameter_bound")

    def __init__(self, group, degree, coeffs: Mapping | Iterable = (), diameter_bound: int | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self.den, self.nums, self.diameter_bound = self._checked(
            group, degree, diameter_bound,
            lambda length: _rational_form((_tuple_key(group, key, length), c) for key, c in items))
        self.group = group
        self.degree = degree

    @staticmethod
    def _checked(group, degree, diameter_bound, read) -> tuple[int, dict, int]:
        """(den, nums, bound) after the constructor's checks, in its order: the degree, the bound,
        then read(degree + 1), the canonical (den, nums) of the terms with each key checked as a
        tuple of that length, and last the realised support diameter against the bound."""
        _check_degree(degree, "chain")
        if diameter_bound is not None and (type(diameter_bound) is not int or diameter_bound < 0):
            raise ValueError(f"diameter bound must be an integer >= 0, got {diameter_bound!r}")
        den, nums = read(degree + 1)
        # the bound is the realised support diameter when none is declared, and may not be passed
        realized = _diameter(group, nums)
        if diameter_bound is None:
            diameter_bound = realized
        elif realized > diameter_bound:
            raise ValueError(
                f"support diameter {realized} exceeds the declared bound {diameter_bound}"
            )
        return den, nums, diameter_bound

    @classmethod
    def _raw(cls, group, degree, den, nums, diameter_bound):
        """A chain from parts that are already valid: `degree + 1`-tuple keys of
        group elements, a canonical (den, nums) form, support diameter at
        most diameter_bound."""
        obj = object.__new__(cls)
        obj.group = group
        obj.degree = degree
        obj.den = den
        obj.nums = nums
        obj.diameter_bound = diameter_bound
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def boundary(self) -> "UfChain":
        """Face-deletion boundary, built unchecked under the same bound and denominator.

        A face drops one coordinate of a tuple, so its pairwise distances
        are some of the tuple's: a face of a tuple of diameter <= K has
        diameter <= K. Its coordinates are already group elements, the
        faces' numerators are +-1 times the chain's over the same den, and
        `_add_terms` keeps only nonzero sums; `_reduced` divides out a
        factor that cancellation leaves.
        """
        if self.degree == 0:
            raise ValueError("boundary of a degree-0 chain is undefined")
        out: dict[tuple, int] = {}
        for key, n in self.nums.items():
            _add_terms(out, ((key[:i] + key[i + 1 :], -n if i % 2 else n) for i in range(self.degree + 1)))
        return UfChain._raw(self.group, self.degree - 1, *_reduced(self.den, out), self.diameter_bound)

    def __eq__(self, other):
        # The diameter bound is metadata, not part of the chain's identity.
        return (
            isinstance(other, UfChain)
            and self.group == other.group
            and self.degree == other.degree
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self):
        return f"UfChain(degree={self.degree}, entries={len(self.nums)}, K={self.diameter_bound})"

    def to_json(self) -> dict:
        den = self.den
        return _write(self.group, self.degree, {"diameter-bound": self.diameter_bound}, self.nums,
                      lambda n: _ratio_str(n, den))

    @classmethod
    def from_json(cls, data: dict) -> "UfChain":
        """The chain a file names, with the constructor's checks; each coefficient is parsed as its
        entry is read (`parse_ratio`), so a bad one is named before the degree and the bound are
        checked, and the (p, q) pairs are summed by `_integer_form`, as `FinSuppFn.from_pairs`
        sums its pairs, with no Fraction."""
        group, degree, coeffs = _read(data, "uniformly finite chain", lambda group, c: parse_ratio(c))
        bound = json_field(data, "diameter-bound", int, "uniformly finite chain", None)
        return cls._raw(group, degree, *cls._checked(group, degree, bound, lambda length: _integer_form(
            ((_sized(key, length), c) for key, c in coeffs), tuple)))


# -- complex-level operations -------------------------------------------------


def inflate(phi: UfChain) -> EquivariantChain:
    """Equivariant bounded chain with slice values g -> phi(g^-1 . tuple).

    Each supported tuple t lands in the orbit of (e, t0^-1 t1, ...); its
    numerator appears in that slice value as a delta at t0^-1, over phi's
    denominator. The result is built unchecked: every key and point is
    made by group operations from phi's checked keys, and t = t0 . (e,
    orbit key) is fixed by t0 and its orbit key, so each delta point is
    written once with its nonzero numerator and no slice value is zero.
    Each slice value holds some of phi's numerators, so `_reduced` brings
    it to canonical form.
    """
    group = phi.group
    builders: dict[tuple, dict] = {}
    for key, n in phi.nums.items():
        t0i = group.inv(key[0])
        orbit_key = tuple(group.mul(t0i, g) for g in key[1:])
        builders.setdefault(orbit_key, {})[t0i] = n
    den = phi.den
    entries = {
        key: BoundedFn._raw(group, _ZERO, FinSuppFn._raw(group, *_reduced(den, nums)), {})
        for key, nums in builders.items()
    }
    return EquivariantChain._raw(group, phi.degree, KIND_LINF, entries)


def deflate(chain: EquivariantChain) -> UfChain:
    """Inverse of `inflate`; requires slice values with a zero constant part.

    Each numerator n of the slice value at key k, at point h, over that
    value's denominator d, is written once as the tuple (h^-1, h^-1 k) with
    numerator n * (D / d), D the lcm of the slice denominators, checked
    (`_check_den`) before any numerator is scaled. The tuple fixes both k
    (drop its first coordinate, then shift by its inverse) and h (invert
    that coordinate), so no tuple is written twice and no sum is needed.

    The form is canonical with no gcd: for each prime power p^a that
    exactly divides D, some slice denominator d has p^a dividing it. That
    value is canonical, so one of its numerators is prime to p, and so is
    D / d; their product is prime to p. Every prime of D misses some
    numerator, so gcd(D, *nums) = 1. The chain's bound is the realised
    support diameter.
    """
    if chain.kind != KIND_LINF:
        raise ValueError("deflate expects a bounded-coefficient chain")
    group = chain.group
    values = chain.slice.items()
    den = 1
    for _, value in values:
        if value.terms or value.const:
            raise ValueError(f"cannot deflate a chain with value {value!r} (not of finite type)")
        if den % value.fn.den:
            den = _check_den(lcm(den, value.fn.den))
    inv, mul = group.inv, group.mul
    nums = {}
    for key, value in values:
        f = den // value.fn.den
        for h, n in value.fn.nums.items():
            hi = inv(h)
            nums[(hi,) + tuple(mul(hi, g) for g in key)] = n * f
    return UfChain._raw(group, chain.degree, den, nums, _diameter(group, nums))


def johnson_cocycle(group: GroupSpec) -> BoundedCochain:
    """Degree-1 quotient-dual cocycle whose slice value at (g) is delta_g - delta_e."""
    e = group.identity

    def rule(key: tuple) -> FinSuppFn:
        return delta(group, key[0]) - delta(group, e)

    return BoundedCochain(group, 1, DUAL_QUOTIENT, rule=rule, label="johnson-cocycle")


def fundamental_cycle(group: GroupSpec) -> EquivariantChain:
    """Degree-0 bounded chain with slice value the constant function 1."""
    return EquivariantChain(group, 0, KIND_LINF, {(): BoundedFn(group, 1)})


def one_lift_cochain(group: GroupSpec) -> BoundedCochain:
    """Degree-0 full-dual cochain sending g to delta_g (slice value delta_e).

    This is the lift of the constant-one scalar cochain through evaluation
    functionals; its coboundary has the same values as the degree-1
    quotient-dual cocycle above.
    """
    return BoundedCochain(group, 0, DUAL_FULL, entries={(): delta(group, group.identity)}, label="one-lift")


def one_cochain(group: GroupSpec) -> BoundedCochain:
    """The constant-one scalar cochain, represented through its canonical lift."""
    return BoundedCochain(group, 0, DUAL_SCALAR, entries={(): delta(group, group.identity)}, label="one")


def one_l1_cycle(group: GroupSpec) -> EquivariantChain:
    """Degree-0 summable chain with scalar value 1, embedded as delta_e."""
    return EquivariantChain(group, 0, KIND_L1, {(): delta(group, group.identity)})


def connecting_lift_check(group: GroupSpec) -> bool:
    """Coboundary of the delta lift equals the quotient-dual cocycle on the slices of the radius-3 ball."""
    lifted = one_lift_cochain(group).coboundary()
    target = johnson_cocycle(group)
    keys = [(g,) for g in group.ball(3)]
    return lifted.equal_on(target, keys)
