"""The file readers against the pattern-based readers they replaced.

`parse_frac` reads the short "p/q" form with `partition` and `int`, and
`FreeGroup.elem_from_json` reads its tokens with `str` tests. The earlier
bodies, which ran a pattern on every string, are kept here as oracles: on
every drawn string both must give the same value or the same error text.

The module-level `GROUP` carries its token table across all 150 drawn
words, so most tokens are read from the table that earlier words filled,
and a token that raised is read afresh each time it appears.

Each weights, chain or cochain file is read with one rational table of its
own: the last tests count `parse_ratio` calls per file, and check that a
malformed coefficient among repeated strings gives the same one-line error
as a reader with no table. The uniformly finite chain reader, which sums
integers and forms no Fraction, is checked against the Fraction-taking
constructor it replaced on fixed and drawn files, malformed ones included.
The weights reader reduces and scales each distinct coefficient once, but
still reads a file pair by pair: a bad element, a bad coefficient and a
common denominator past the digit limit, placed anywhere, are named in the
order a reader of one pair at a time meets them.
"""

import contextlib
import io
import json
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amencert import complexes, functions
from amencert.cli import main
from amencert.complexes import UfChain
from amencert.functions import MAX_RATIONAL_DIGITS, parse_frac, parse_once, parse_ratio
from amencert.groups import MAX_WORD_LETTERS, FreeAbelianGroup, FreeGroup, json_field

SETTINGS = dict(derandomize=True, database=None, deadline=None)

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\Z")
_DIGIT_BOUND = 10**MAX_RATIONAL_DIGITS
_TOKEN_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def oracle_frac(s):
    """parse_frac as it read every string through Fraction's pattern, whitespace inside refused
    as Python 3.11's pattern refuses it."""
    if type(s) is not str:
        raise ValueError(f'a rational must be a "p/q" string, got {s!r}')
    text = s.strip()
    exp = _EXPONENT.search(text)
    try:
        if any(map(str.isspace, text)):
            raise ValueError("whitespace inside a rational")
        too_long = exp is not None and abs(int(exp.group(1))) > MAX_RATIONAL_DIGITS + len(text)
        q = None if too_long else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {s!r}") from exc
    if too_long or exp and max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"rational {s!r} passes the {MAX_RATIONAL_DIGITS}-digit limit")
    return q


def oracle_word(group, s):
    """FreeGroup.elem_from_json as it matched a pattern per token, then reduced the expanded word."""
    index = {lab: i for i, lab in enumerate(group.gen_labels)}
    s = s.strip()
    if s in ("e", ""):
        return ()
    letters = []
    for token in s.split("*"):
        m = _TOKEN_RE.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse word token {token!r}")
        lab, exp_s = m.group(1), m.group(2)
        if lab not in index:
            raise ValueError(f"unknown generator {lab!r}")
        exp = int(exp_s) if exp_s is not None else 1
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise ValueError(f"word token {token.strip()!r} passes the cap of {MAX_WORD_LETTERS} letters")
        letter = index[lab] + 1
        letters.extend([letter if exp > 0 else -letter] * abs(exp))
    word = []
    for letter in letters:
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


def outcome(read, *args):
    """("value", v) or ("error", text): what a reader gives."""
    try:
        return "value", read(*args)
    except ValueError as exc:
        return "error", str(exc)


def joined(*choices):
    """One piece from each (valid, odd) pair of lists, joined; a piece is valid three times in four."""
    return st.tuples(*(st.sampled_from(valid * 3 + odd) for valid, odd in choices)).map("".join)


# "٣" is ARABIC-INDIC DIGIT THREE, a decimal digit; "²" is SUPERSCRIPT TWO, a digit that is not decimal
RATIONAL_ALPHABET = "0123456789-+/_.eE \n٣²"
DIGITS = (["0", "7", "12", "007", "4300"], ["", "٣", "²", "1_0", " 3", "4\n"])
NEAR_RATIONALS = joined((["", "-"], ["+", "--", " "]), DIGITS, (["/"], ["", ".", "e", "e-", "/-", "//", " / "]), DIGITS)
RATIONALS = st.text(RATIONAL_ALPHABET, max_size=8) | NEAR_RATIONALS | NEAR_RATIONALS
WORD_ALPHABET = "abcex_19*^- \n٣²"
# short exponents keep every drawn word far below the letter cap
TOKENS = joined(
    (["a", "b", "x_1"], ["c", "e", "", "a ", "x_", "B"]),
    (["", "^2", "^-1", "^13", "^-0"], ["^", "^+2", "^٣", "^²", "^--1", "^ 2", "^2\n", "^1^2"]),
)
NEAR_WORDS = st.lists(TOKENS, min_size=1, max_size=3).map("*".join)
# words that cancel where tokens meet: up to six tokens over the letters and their inverses, the
# exponents short, of either sign, or 0, so a token often meets the inverse of the stack's top
CANCELLING = joined((["a", "b", "x_1"], []), (["", "^-1", "^0", "^-0", "^2", "^-2", "^3", "^-3"], []))
CANCELLING_WORDS = st.lists(CANCELLING, min_size=1, max_size=6).map("*".join)
WORDS = st.text(WORD_ALPHABET, max_size=8) | NEAR_WORDS | NEAR_WORDS | CANCELLING_WORDS | CANCELLING_WORDS
GROUP = FreeGroup(3, ("a", "b", "x_1"))


@settings(max_examples=150, **SETTINGS)
@given(text=RATIONALS)
def test_parse_frac_matches_the_pattern_reader(text):
    got, want = outcome(parse_frac, text), outcome(oracle_frac, text)
    assert got == want
    if got[0] == "value":
        assert type(got[1]) is Fraction


@settings(max_examples=250, **SETTINGS)
@given(text=WORDS)
@example(text="a*b*b^-1*a^-1").via("cancels back to e")
@example(text="a^2*a^-3").via("a run cancels and the rest is pushed")
@example(text="b^0*a^-1*a").via("a zero count, then a cancel")
@example(text="x_1^-2*b*b^-1*x_1^3*a").via("a cancel that uncovers the token's inverse")
def test_elem_from_json_matches_the_pattern_reader(text):
    assert outcome(GROUP.elem_from_json, text) == outcome(oracle_word, GROUP, text)


def oracle_point(group, data):
    """FreeAbelianGroup.elem_from_json as it tested isinstance, then ran check on the tuple."""
    if not isinstance(data, list):
        raise ValueError(f"free-abelian element must serialize as a list, got {data!r}")
    a = tuple(data)
    if not isinstance(a, tuple) or len(a) != group.rank:
        raise ValueError(f"expected an integer vector of length {group.rank}, got {a!r}")
    for x in a:
        if type(x) is not int:
            raise ValueError(f"non-integer coordinate in {a!r}")
    return a


# short values, which the error texts print whole: bools, floats, strings, None, objects and lists
SCALARS = (st.booleans() | st.floats(width=32) | st.text("ab1 ", max_size=4) | st.none()
           | st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2))
COORDINATES = st.integers(-50, 50) | st.integers() | SCALARS | st.lists(st.integers(-3, 3) | SCALARS, max_size=3)
POINTS = (st.lists(st.integers(-50, 50), min_size=3, max_size=3) | st.lists(COORDINATES, min_size=3, max_size=3)
          | st.lists(COORDINATES, max_size=6) | SCALARS)
Z3 = FreeAbelianGroup(3)


@settings(max_examples=250, **SETTINGS)
@given(data=POINTS)
def test_point_reader_matches_isinstance_and_check(data):
    got = outcome(Z3.elem_from_json, data)
    assert got == outcome(oracle_point, Z3, data)
    if got[0] == "value":
        assert type(got[1]) is tuple



F2 = {"family": "free", "rank": 2, "generators": ["a", "b"]}
# strings repeated within each file and shared between the files
WEIGHTS = [["a", "1/2"], ["b", "1/3"], ["a*b", "1/2"], ["b^-1", "2"], ["e", "1/3"], ["a^2", "1/2"]]
COCHAIN = {"group": F2, "degree": 1, "dual": "full-dual", "entries": [
    [["a"], [["a", "1/2"], ["b", "-1/3"]]], [["b"], [["e", "1/2"], ["a", "2"]]], [["a*b"], [["b", "-1/3"]]]]}
LINF = {"group": F2, "degree": 1, "kind": "linf", "entries": [
    [["a"], {"constant": "1/2"}], [["b"], {"finite": [["a", "1/2"], ["b", "5/7"]]}],
    [["b^-1"], {"constant-plus-finite": {"constant": "5/7", "finite": [["a", "1/2"], ["e", "-1/3"]]}}]]}
UF = {"group": F2, "degree": 1, "entries": [
    [["e", "a"], "1/2"], [["a", "b"], "-1/3"], [["b", "e"], "1/2"], [["e", "b"], "-1/3"]]}
JOHNSON = {"builtin": "johnson", "group": F2}
FUNDAMENTAL = {"builtin": "fundamental", "group": F2}


def rationals_of(doc):
    """Every "p/q" string of a file, with repeats: the coefficients of its [element, "p/q"] pairs and constants."""
    if isinstance(doc, dict):
        return [x for key, value in doc.items() if key != "group"
                for x in ([value] if key == "constant" else rationals_of(value))]
    if isinstance(doc, list):
        if len(doc) == 2 and isinstance(doc[1], str) and isinstance(doc[0], (str, list)):
            return [doc[1]]
        return [x for item in doc for x in rationals_of(item)]
    return []


def cli(tmp_path, command, **files):
    """(exit code, stdout, stderr) of one command over files written from JSON documents."""
    argv = [command]
    for flag, doc in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def parsed(monkeypatch):
    """The list of strings parse_ratio is called on, in order, by every reader that calls it."""
    calls = []

    def counting(s):
        calls.append(s)
        return parse_ratio(s)

    monkeypatch.setattr(functions, "parse_ratio", counting)
    return calls


def test_each_distinct_string_is_parsed_once_per_file(tmp_path, parsed):
    assert len(rationals_of(WEIGHTS)) == 6 and len(set(rationals_of(WEIGHTS))) == 3
    assert cli(tmp_path, "reiter", group=F2, set=WEIGHTS)[0] == 0
    assert Counter(parsed) == Counter(set(rationals_of(WEIGHTS)))
    # a second read of the same file starts from a new table
    assert cli(tmp_path, "reiter", group=F2, set=WEIGHTS)[0] == 0
    assert Counter(parsed) == Counter(2 * sorted(set(rationals_of(WEIGHTS))))

    # the cochain and the cycle are two files: each parses its own distinct strings once, a
    # constant and a pair coefficient that share a string included
    parsed.clear()
    assert cli(tmp_path, "pair", cochain=COCHAIN, cycle=LINF)[0] == 0
    assert Counter(parsed) == Counter(set(rationals_of(COCHAIN))) + Counter(set(rationals_of(LINF)))
    assert len(rationals_of(LINF)) == 6 and len(set(rationals_of(LINF))) == 3

    parsed.clear()
    chain = UfChain.from_json(UF)
    assert Counter(parsed) == Counter(set(rationals_of(UF))) and len(rationals_of(UF)) == 4
    assert chain == UfChain(FreeGroup(2), 1, {((), (1,)): Fraction(1, 2), ((1,), (2,)): Fraction(-1, 3),
                                              ((2,), ()): Fraction(1, 2), ((), (2,)): Fraction(-1, 3)})


@pytest.mark.parametrize("bad", [[1], 3, None, "1/0"])
def test_a_bad_coefficient_among_repeated_strings_gives_the_one_line_error(tmp_path, bad):
    want = "cannot parse rational '1/0'" if bad == "1/0" else f'a rational must be a "p/q" string, got {bad!r}'
    cochain = json.loads(json.dumps(COCHAIN))
    cochain["entries"][1][1].append(["a*b", bad])
    cochain["entries"].append([["b^2"], [["a", bad]]])
    linf = json.loads(json.dumps(LINF))
    linf["entries"][1][1]["finite"].append(["a*b", bad])
    constant = {"group": F2, "degree": 1, "kind": "linf", "entries": [
        [["a"], {"finite": [["a", "1/2"]]}], [["b"], {"constant": "1/2"}], [["a*b"], {"constant": bad}]]}
    for files in [dict(cochain=cochain, cycle=LINF), dict(cochain=JOHNSON, cycle=linf),
                  dict(cochain=JOHNSON, cycle=constant)]:
        assert cli(tmp_path, "pair", **files) == (1, "", f"error: {want}\n")
    # one [element, str] pair makes a weights file weighted, so the bad coefficient is named
    weights = WEIGHTS + [["a*b", bad], ["b", "1/2"], ["a*b", bad]]
    assert cli(tmp_path, "reiter", group=F2, set=weights) == (1, "", f"error: {want}\n")
    uf = json.loads(json.dumps(UF))
    uf["entries"] += [[["a", "a*b"], bad], [["b", "a*b"], bad]]
    with pytest.raises(ValueError) as info:
        UfChain.from_json(uf)
    assert str(info.value) == want


def test_a_string_that_raises_is_never_stored():
    table = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot parse rational '1/0'"):
            parse_once(table, "1/0")
    assert table == {}
    assert parse_once(table, "2/4") == (2, 4) and table == {"2/4": (2, 4)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("weights")


# coefficients no reader accepts: values that are not strings, and strings that name no rational
BAD_COEFFICIENTS = [[1], [], {}, 3, 1.5, True, None, "1/0", "a/b", "", "1 / 2", "--1"]
ELEMENTS = ["e", "a", "b^-1", "a*b", "a^2*b^-3"]


@settings(max_examples=60, **SETTINGS)
@given(
    pairs=st.lists(st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(["1/2", "-1/3", "2", "0/5", "3/6"])),
                   min_size=1, max_size=8),
    bad=st.sampled_from(BAD_COEFFICIENTS), element=st.sampled_from(ELEMENTS), data=st.data())
def test_one_bad_pair_anywhere_in_a_weights_file_names_its_coefficient(workdir, pairs, bad, element, data):
    weights = [list(pair) for pair in pairs]
    weights.insert(data.draw(st.integers(0, len(weights)), label="at"), [element, bad])
    error = outcome(parse_ratio, bad)
    assert error[0] == "error" and repr(bad) in error[1]
    assert cli(workdir, "reiter", group=F2, set=weights) == (1, "", f"error: {error[1]}\n")


# items that are no [key, value] pair, and the text the refusal names each by
BAD_ITEMS = [("a", "'a'"), (["a"], "['a']"), (["a", "1/2", "1/3"], "['a', '1/2', '1/3']"), (3, "3"),
             (None, "None"), ({"a": "1/2"}, "{'a': '1/2'}"), (list(range(40)), "[0, 1, 2, 3, 4, 5, ...]")]


@settings(max_examples=40, **SETTINGS)
@given(pairs=st.lists(st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(["1/2", "-1/3", "2"])),
                     min_size=1, max_size=8),
       bad=st.sampled_from(BAD_ITEMS), data=st.data())
def test_an_item_that_is_no_pair_is_named_by_index_and_value(workdir, pairs, bad, data):
    item, text = bad
    weights = [list(pair) for pair in pairs]
    at = data.draw(st.integers(0, len(weights)), label="at")
    weights.insert(at, item)
    want = f"error: function item {at} must be a [key, value] pair, got {text}\n"
    assert cli(workdir, "reiter", group=F2, set=weights) == (1, "", want)
    # the same item as a cochain value, and then as a cochain entry
    cochain = {**COCHAIN, "entries": [[["a"], [list(pair) for pair in pairs]], [["b"], weights]]}
    assert cli(workdir, "pair", cochain=cochain, cycle=FUNDAMENTAL) == (1, "", want)
    at %= 3
    cochain["entries"].insert(at, item)
    want = f"error: cochain entries item {at} must be a [key, value] pair, got {text}\n"
    assert cli(workdir, "pair", cochain=cochain, cycle=FUNDAMENTAL) == (1, "", want)


def uf_by_constructor(data):
    """UfChain.from_json as it read each coefficient into a Fraction and handed the entries to the constructor."""
    group, degree, coeffs = complexes._read(data, "uniformly finite chain", lambda group, c, ratios: parse_frac(c))
    return UfChain(group, degree, coeffs, json_field(data, "diameter-bound", int, "uniformly finite chain", None))


def uf_outcome(read, data):
    kind, value = outcome(read, data)
    return (kind, value) if kind == "error" else (kind, (value.degree, value.den, value.nums, value.diameter_bound))


@pytest.mark.parametrize("bad", [None, *BAD_COEFFICIENTS])
@pytest.mark.parametrize("case", ["plain", "bound-1", "bound-0", "bound--1", "degree-2", "degree--1", "short-key"])
def test_uf_reader_matches_the_constructor(case, bad):
    doc = json.loads(json.dumps(UF))
    if bad is not None:
        doc["entries"] += [[["a", "a*b"], bad], [["b", "a*b"], "1/2"]]
    if case.startswith("bound"):
        doc["diameter-bound"] = int(case[len("bound-"):])
    elif case.startswith("degree"):
        doc["degree"] = int(case[len("degree-"):])
    elif case == "short-key":
        doc["entries"].insert(1, [["a"], "1/2"])
    assert uf_outcome(UfChain.from_json, doc) == uf_outcome(uf_by_constructor, doc)


@settings(max_examples=100, **SETTINGS)
@given(degree=st.integers(0, 2), bound=st.sampled_from([None, 0, 1, 2, 4]), data=st.data())
def test_drawn_uf_files_read_as_the_constructor_reads_them(degree, bound, data):
    # each key has the degree's length nine times in ten
    length = st.sampled_from([degree + 1] * 9 + [degree + 2])
    key = length.flatmap(lambda n: st.lists(st.sampled_from(ELEMENTS), min_size=n, max_size=n))
    coefficient = st.sampled_from(["1/2", "-1/2", "2/4", "-1/3", "0", "7", "1/6"])
    entries = data.draw(st.lists(st.tuples(key, coefficient).map(list), max_size=6), label="entries")
    doc = {"group": F2, "degree": degree, "entries": entries}
    if bound is not None:
        doc["diameter-bound"] = bound
    assert uf_outcome(UfChain.from_json, doc) == uf_outcome(uf_by_constructor, doc)


# coprime denominators of 2,200 digits: either alone leaves room under the digit limit, and the
# second of the two to be read pushes the common denominator past it
WIDE = [f"1/{10**2199}", f"-1/{10**2199 + 1}"]
BAD_ELEMENTS = ["c", "a^", 5, ["a"]]
GROUP_F2 = FreeGroup(2)


def oracle_weights(pairs):
    """The weights reader as it read each pair in turn: the element, then the coefficient, then the
    common denominator, each refused with its one-line error at the first pair that fails it."""
    den = 1
    for e, c in pairs:
        GROUP_F2.elem_from_json(e)
        den = lcm(den, parse_frac(c).denominator)
        if den >= _DIGIT_BOUND:
            raise ValueError(f"a common denominator passes the {MAX_RATIONAL_DIGITS}-digit limit")


@settings(max_examples=60, **SETTINGS)
@given(
    pairs=st.lists(st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(["1/2", "-1/3", "2/4", "0/5", WIDE[0]])),
                   min_size=1, max_size=10),
    element=st.sampled_from(BAD_ELEMENTS), coefficient=st.sampled_from(BAD_COEFFICIENTS), data=st.data())
def test_the_first_bad_pair_of_a_weights_file_names_the_error(workdir, pairs, element, coefficient, data):
    # one bad element, one bad coefficient and the two wide coefficients, each at a drawn index among
    # pairs that repeat their coefficients: the error of the first bad pair to be read is named, the
    # second wide coefficient read being the one past the digit limit
    weights = [list(pair) for pair in pairs]
    weights.insert(data.draw(st.integers(0, len(weights)), label="wide"), ["a", WIDE[0]])
    for bad in ([element, "1/2"], ["a", coefficient], ["b", WIDE[1]]):
        weights.insert(data.draw(st.integers(0, len(weights)), label="at"), bad)
    kind, text = outcome(oracle_weights, weights)
    assert kind == "error"
    assert cli(workdir, "reiter", group=F2, set=weights) == (1, "", f"error: {text}\n")
