"""The file readers against the pattern-based readers they replaced.

`parse_frac` reads the short "p/q" form with `partition` and `int`, and
`FreeGroup.elem_from_str` reads its tokens with `str` tests. The earlier
bodies, which ran a pattern on every string, are kept here as oracles: on
every drawn string both must give the same value or the same error text.

The module-level `GROUP` carries its token table across all 150 drawn
words, so most tokens are read from the table that earlier words filled,
and a token that raised is read afresh each time it appears.
"""

import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from amencert.functions import MAX_RATIONAL_DIGITS, parse_frac
from amencert.groups import MAX_WORD_LETTERS, FreeGroup

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
    """FreeGroup.elem_from_str as it matched a pattern per token, then reduced the expanded word."""
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
WORDS = st.text(WORD_ALPHABET, max_size=8) | NEAR_WORDS | NEAR_WORDS
GROUP = FreeGroup(3, ("a", "b", "x_1"))


@settings(max_examples=150, **SETTINGS)
@given(text=RATIONALS)
def test_parse_frac_matches_the_pattern_reader(text):
    got, want = outcome(parse_frac, text), outcome(oracle_frac, text)
    assert got == want
    if got[0] == "value":
        assert type(got[1]) is Fraction


@settings(max_examples=150, **SETTINGS)
@given(text=WORDS)
def test_elem_from_str_matches_the_pattern_reader(text):
    assert outcome(GROUP.elem_from_str, text) == outcome(oracle_word, GROUP, text)

