"""Normal forms, ball enumeration and the word metric."""

import itertools
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amencert.groups import (
    MAX_RANK,
    MAX_TABLE_ORDER,
    MAX_WORD_LETTERS,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    cyclic_group,
    cyclic_table,
    group_from_dict,
)
from amencert.sampling import random_element
from conftest import dihedral_table, s3_group, symmetric_table

S4_TABLE, _, S4_INDEX = symmetric_table(4)


def naive_reduce(letters):
    """Reduction oracle: rescan for an adjacent cancelling pair until none is left."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def enumerate_words(rank, max_len):
    """All reduced words of length <= max_len by brute-force filtering."""
    letters = [s for k in range(1, rank + 1) for s in (k, -k)]
    out = set()
    for length in range(max_len + 1):
        for word in itertools.product(letters, repeat=length):
            if all(word[i] != -word[i + 1] for i in range(length - 1)):
                out.add(word)
    return out


def bfs_distance(group, source, target, limit=12):
    """Word-metric oracle: plain BFS over generator moves."""
    steps = [s for _, s in group.letters()]
    seen = {source}
    frontier = [source]
    for d in range(limit + 1):
        if target in frontier:
            return d
        nxt = []
        for x in frontier:
            for s in steps:
                y = group.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    raise AssertionError("BFS limit hit")


class TestMultiply:
    def test_inverse_cancellation(self, f2):
        a = f2.gens[0]
        assert f2.mul(a, f2.inv(a)) == f2.identity

    def test_word_reduction_example(self, f2):
        left = f2.elem_from_str("a*b")
        right = f2.elem_from_str("b^-1*a")
        product = f2.mul(left, right)
        assert product == f2.elem_from_str("a^2")
        assert product == naive_reduce(left + right)

    def test_vector_addition(self, z2):
        assert z2.mul((1, 0), (0, 1)) == (1, 1)

    def test_matches_naive_reduction(self, f2, rng):
        for _ in range(300):
            u = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6)))
            v = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6)))
            assert f2.mul(naive_reduce(u), naive_reduce(v)) == naive_reduce(u + v)

    def test_ball_three_products_match_naive_reduction(self, f2):
        # every pair of reduced words of length <= 3: the junction-only
        # cancellation against the rescanning oracle
        ball = f2.ball(3)
        for u in ball:
            for v in ball:
                assert f2.mul(u, v) == naive_reduce(u + v)

    @pytest.mark.parametrize("word", ["a*b*b^-1*a^-1", "a^2*a^-2", "b*a*a^-1*b^-1*a^3*a^-3"])
    def test_unreduced_strings_parse_to_identity(self, f2, word):
        assert f2.elem_from_str(word) == f2.identity

    def test_unreduced_string_reduces_inside(self, f2):
        # cancellation away from any junction still happens in parsing
        assert f2.elem_from_str("a*b*b^-1*a") == (1, 1)

    def test_family_mismatch_rejected(self, f2, z2):
        with pytest.raises(ValueError):
            f2.check((1, 0, 0))
        with pytest.raises(ValueError):
            z2.check(3)


@pytest.mark.parametrize("family", ["f2", "z2", "z3"])
def test_group_laws_random(family, request, rng):
    group = request.getfixturevalue(family)
    from amencert.sampling import random_element

    for _ in range(1000):
        a, b, c = (random_element(rng, group) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.identity) == a
        assert group.mul(group.identity, a) == a
        assert group.mul(a, group.inv(a)) == group.identity
        assert group.mul(group.inv(a), a) == group.identity


class TestBall:
    def test_free_sizes(self, f2):
        assert len(f2.ball(1)) == 5
        assert len(f2.ball(2)) == 17
        for r in range(7):
            assert len(f2.ball(r)) == 2 * 3**r - 1

    def test_free_matches_enumeration_oracle(self, f2):
        for r in range(5):
            assert set(f2.ball(r)) == enumerate_words(2, r)

    def test_abelian_sizes(self, z2):
        assert len(z2.ball(2)) == 13
        for r in range(7):
            assert len(z2.ball(r)) == 2 * r * r + 2 * r + 1
            assert set(z2.ball(r)) == {
                (x, y)
                for x in range(-r, r + 1)
                for y in range(-r, r + 1)
                if abs(x) + abs(y) <= r
            }

    def test_nesting_and_no_duplicates(self, all_groups):
        for group in all_groups:
            for r in range(5):
                smaller, larger = group.ball(r), group.ball(r + 1)
                assert set(smaller) <= set(larger)
                assert len(set(larger)) == len(larger)

    def test_canonical_order(self, f2):
        ball = f2.ball(2)
        assert ball[:5] == ((), (1,), (-1,), (2,), (-2,))
        # free-group levels are not sorted: the walk's letter order must yield them in order
        for rank in (1, 2, 3):
            group = FreeGroup(rank)
            ball = group.ball(5)
            assert all(group.sort_key(ball[i]) < group.sort_key(ball[i + 1]) for i in range(len(ball) - 1))

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_ball_is_in_sort_key_order(self, data):
        # folner_search hands balls to the certificate's `_raw` route, which keeps their order
        kind = data.draw(st.sampled_from(["free", "free-abelian", "finite"]), label="kind")
        if kind == "finite":
            table = data.draw(st.sampled_from([S4_TABLE, dihedral_table(6), cyclic_table(12)]), label="table")
            gens = data.draw(st.lists(st.integers(1, len(table) - 1), min_size=1, max_size=3, unique=True))
            try:
                group = FiniteGroup(table, gens)
            except ValueError:  # the drawn generators span a proper subgroup
                assume(False)
            radius = data.draw(st.integers(0, 8), label="radius")  # short of the group's order or not
        else:
            rank = data.draw(st.integers(1, 3), label="rank")
            group = (FreeGroup if kind == "free" else FreeAbelianGroup)(rank)
            radius = data.draw(st.integers(0, {1: 12, 2: 5, 3: 4}[rank]), label="radius")
        ball = group.ball(radius)
        assert list(ball) == sorted(ball, key=group.sort_key)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_sort_key_matches_letter_formula(self, rank):
        # oracle: a < a^-1 < b < b^-1 < ... as a formula on the signed letter
        def formula_key(word):
            return (len(word), tuple(2 * (abs(x) - 1) + (x < 0) for x in word))

        group = FreeGroup(rank)
        ball = group.ball(4)
        assert [group.sort_key(w) for w in ball] == [formula_key(w) for w in ball]

    @pytest.mark.parametrize(
        "table, gens",
        [
            (S4_TABLE, (S4_INDEX[(1, 2, 3, 0)], S4_INDEX[(1, 0, 2, 3)])),
            (dihedral_table(18), (1, 18)),
            (cyclic_table(60), (7,)),
            (cyclic_table(256), None),
        ],
        ids=["s4", "d18", "z60-unit", "z256-default"],
    )
    def test_finite_walk_matches_table_bfs(self, table, gens):
        # distances from a BFS over the raw table, independent of letters()
        group = FiniteGroup(table, gens)
        n = len(table)
        e = next(i for i in range(n) if list(table[i]) == list(range(n)))
        gens = [g for g in range(n) if g != e] if gens is None else gens
        steps = set(gens) | {table[g].index(e) for g in gens}
        dist, frontier = {e: 0}, [e]
        while frontier:
            nxt = []
            for x in frontier:
                for s in steps:
                    y = table[x][s]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        assert len(dist) == n
        assert [group.dist(e, g) for g in range(n)] == [dist[g] for g in range(n)]
        for r in range(max(dist.values()) + 2):
            inside = [g for g in range(n) if dist[g] <= r]
            assert group.ball(r) == tuple(sorted(inside, key=lambda g: (dist[g], g)))

    def test_finite_saturates(self, z3, s3):
        assert len(z3.ball(10)) == 3
        assert len(s3.ball(10)) == 6

    def test_negative_radius_rejected(self, f2):
        with pytest.raises(ValueError):
            f2.ball(-1)

    def test_ball_size_matches_enumeration(self, all_groups):
        groups = list(all_groups) + [FreeGroup(1), FreeGroup(3), FreeAbelianGroup(1), FreeAbelianGroup(3)]
        for group in groups:
            for r in range(6):
                assert group.ball_size(r, 10**9) == len(group.ball(r))

    def test_ball_size_stops_past_the_cap(self):
        # the count passes the cap and stops: no power of the radius is formed
        assert FreeGroup(2).ball_size(10**100, 10**6) > 10**6
        assert FreeAbelianGroup(64).ball_size(10**100, 10**6) > 10**6
        assert FreeGroup(2).ball_size(11, 10**6) == 354293
        assert FreeGroup(3).ball_size(8, 10**6) == 585937

    @pytest.mark.parametrize(
        "make",
        [lambda: FreeGroup(3), lambda: FreeAbelianGroup(2), lambda: FiniteGroup(dihedral_table(6), (1, 6))],
        ids=["f3", "z2", "d6"],
    )
    def test_concurrent_balls_append_each_level_once(self, make):
        # in each round four threads grow one fresh group's walk at once,
        # switching as often as the interpreter allows; the lock must leave
        # the levels of a serial walk on another fresh group
        radii = (3, 5, 2, 4)
        serial = make()
        serial.ball(max(radii))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                group, start, balls = make(), threading.Barrier(len(radii), timeout=30), {}

                def grow(r):
                    start.wait()
                    balls[r] = group.ball(r)

                threads = [threading.Thread(target=grow, args=(r,)) for r in radii]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert group._levels == serial._levels
                assert {r: serial.ball(r) for r in radii} == balls
        finally:
            sys.setswitchinterval(interval)


class TestWordMetric:
    def test_identity_and_adjacent(self, f2):
        e = f2.identity
        a = f2.gens[0]
        assert f2.dist(e, e) == 0
        assert f2.dist(a, f2.mul(a, f2.gens[1])) == 1

    def test_ab_ba_distance(self, f2):
        ab = f2.elem_from_str("a*b")
        ba = f2.elem_from_str("b*a")
        assert f2.dist(ab, ba) == 4
        assert bfs_distance(f2, ab, ba) == 4

    def test_free_prefix_metric_is_the_length_of_the_quotient(self, f2, rng):
        # dist reads the longest common prefix; the oracle is |a^-1 b| as the product reduces it
        ball = f2.ball(3)
        for a in ball:
            for b in ball:
                assert f2.dist(a, b) == len(f2.mul(f2.inv(a), b))
        f3 = FreeGroup(3)
        for _ in range(500):
            # a drawn common prefix, so that long shared prefixes and equal words both occur
            p, x, y = (random_element(rng, f3, 6) for _ in range(3))
            a, b = f3.mul(p, x), f3.mul(p, rng.choice([x, y]))
            assert f3.dist(a, b) == len(f3.mul(f3.inv(a), b))

    def test_left_invariance_random(self, all_groups, rng):
        from amencert.sampling import random_element

        for group in all_groups:
            for _ in range(100):
                g, a, b = (random_element(rng, group) for _ in range(3))
                assert group.dist(group.mul(g, a), group.mul(g, b)) == group.dist(a, b)

    def test_finite_matches_bfs(self, s3, rng):
        for a in range(6):
            for b in range(6):
                assert s3.dist(a, b) == bfs_distance(s3, a, b)


def first_non_associative_triple(table):
    """Associativity oracle: the first (x, s, y) of all n^3 with (x.s).y != x.(s.y), else None."""
    n = len(table)
    for x in range(n):
        for s in range(n):
            for y in range(n):
                if table[table[x][s]][y] != table[x][table[s][y]]:
                    return (x, s, y)
    return None


def random_magma(rng, n, latin):
    """A random table on 0..n-1 with identity 0 and a two-sided inverse for each element.

    The inverses are a random involution, placed first. With latin=True
    the rest is filled by randomized backtracking into a Latin square (a
    loop); otherwise each remaining entry is drawn at random.
    """
    rest = list(range(1, n))
    rng.shuffle(rest)
    inverse = {0: 0}
    while rest:
        a = rest.pop()
        b = a if not rest or rng.random() < 0.3 else rest.pop()
        inverse[a], inverse[b] = b, a
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
        table[x][inverse[x]] = 0
    cells = [(x, y) for x in range(1, n) for y in range(1, n) if table[x][y] is None]
    if not latin:
        for x, y in cells:
            table[x][y] = rng.randrange(n)
        return table

    def fill(k):
        if k == len(cells):
            return True
        x, y = cells[k]
        used = set(table[x]) | {table[i][y] for i in range(n)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            table[x][y] = v
            if fill(k + 1):
                return True
        table[x][y] = None
        return False

    return table if fill(0) else None


def light_letters_bound(n):
    return 2 * (n - 1).bit_length()  # 2 ceil(log2 n)


class TestFiniteValidation:
    def test_valid_tables(self):
        cyclic_group(5)
        s3_group()

    def test_rejects_non_associative(self):
        # swap two entries of the Z/4 table to break associativity
        table = cyclic_table(4)
        table[1][1], table[1][2] = table[1][2], table[1][1]
        with pytest.raises(ValueError, match=r"not associative at \(\d+,\d+,\d+\)"):
            FiniteGroup(table)

    @pytest.mark.parametrize("latin", [True, False])
    def test_light_matches_the_cubic_oracle(self, latin):
        # seeded random loops (latin) and magmas of order 4-8, each with an
        # identity and inverses: rejected exactly when the n^3 loop finds a
        # failing triple, and the error names a triple that really fails
        rng = random.Random(16)
        verdicts = {True: 0, False: 0}
        for n in range(4, 9):
            for _ in range(40):
                table = random_magma(rng, n, latin)
                if table is None:
                    continue
                oracle = first_non_associative_triple(table)
                verdicts[oracle is None] += 1
                if oracle is None:
                    group = FiniteGroup(table)
                    assert len(group._light_letters()) <= light_letters_bound(n)
                    continue
                with pytest.raises(ValueError, match="not associative") as err:
                    FiniteGroup(table)
                match = re.search(r"not associative at \((\d+),(\d+),(\d+)\)", str(err.value))
                x, s, y = map(int, match.groups())
                assert table[table[x][s]][y] != table[x][table[s][y]]
        assert verdicts[False] > 100
        if latin:
            assert verdicts[True] > 10  # every loop of order 4 is a group

    def test_light_accepts_groups_with_few_letters(self):
        tables = [cyclic_table(n) for n in (1, 2, 7, 12, 64, MAX_TABLE_ORDER)]
        tables += [dihedral_table(n) for n in (3, 4, 8, 18)]
        tables += [symmetric_table(k)[0] for k in (3, 4, 5)]
        for table in tables:
            group = FiniteGroup(table)
            letters = group._light_letters()
            assert len(letters) <= light_letters_bound(group.order), (group.order, letters)
            # left-normed products of the letters, from e, reach every element
            reached, frontier = {group.identity}, [group.identity]
            while frontier:
                frontier = {y for x in frontier for s in letters if (y := group.mul(x, s)) not in reached}
                reached.update(frontier)
            assert len(reached) == group.order

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [1, 0]])

    def test_rejects_non_generating_set(self):
        from conftest import symmetric_table

        table, perms, index = symmetric_table(3)
        three_cycle = index[(1, 2, 0)]
        with pytest.raises(ValueError):
            FiniteGroup(table, generators=(three_cycle,))

    def test_rejects_identity_generator(self):
        with pytest.raises(ValueError):
            FiniteGroup(cyclic_table(3), generators=(0,))

    @pytest.mark.parametrize("generators", [[1.7], [True], ["1"], [3]])
    def test_rejects_generators_that_are_not_indices(self, generators):
        with pytest.raises(ValueError):
            FiniteGroup(cyclic_table(3), generators)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 7]])


class TestCheckRejectsBools:
    # bool is an int subclass; an element part must be an exact int

    def test_free_letter(self, f2):
        assert f2.check((1, 2)) == (1, 2)
        for bad in ((True, 2), (1, False), (True,)):
            with pytest.raises(ValueError):
                f2.check(bad)

    def test_free_abelian_coordinate(self, z2):
        assert z2.check((1, 0)) == (1, 0)
        for bad in ((True, 0), (0, False)):
            with pytest.raises(ValueError):
                z2.check(bad)

    def test_finite_index(self, z3):
        assert z3.check(1) == 1
        for bad in (True, False):
            with pytest.raises(ValueError):
                z3.check(bad)
            with pytest.raises(ValueError):
                z3.elem_from_json(bad)

    @pytest.mark.parametrize("radius", [True, 1.0, "1"])
    def test_ball_radius(self, all_groups, radius):
        for group in all_groups:
            group.ball(1)  # levels already grown to 1 are not read for True either
            with pytest.raises(ValueError, match="radius must be an integer"):
                group.ball(radius)

    @pytest.mark.parametrize("cls", [FreeGroup, FreeAbelianGroup])
    @pytest.mark.parametrize("rank", [True, 2.0, "2", None])
    def test_rank(self, cls, rank):
        # a rank the group file reader would refuse is refused by the constructor too
        with pytest.raises(ValueError, match="rank must be an integer"):
            cls(rank)


class Unreadable:
    """A table that has a length but fails on any read of its rows."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("the table was read past the order cap")


class TestWorkGuards:
    @pytest.mark.parametrize("cls", [FreeGroup, FreeAbelianGroup])
    def test_rank_cap(self, cls):
        assert cls(MAX_RANK).rank == MAX_RANK
        for rank in (MAX_RANK + 1, 10**12):
            with pytest.raises(ValueError, match="cap"):
                cls(rank)

    def test_word_letter_cap(self, f2):
        assert f2.elem_from_str(f"a^{MAX_WORD_LETTERS - 1}*b^-1") == (1,) * (MAX_WORD_LETTERS - 1) + (-2,)
        # the running sum counts letters before reduction, so a word that reduces to a is refused too
        half = MAX_WORD_LETTERS // 2
        for word in (f"a^{MAX_WORD_LETTERS + 1}", f"b^-{MAX_WORD_LETTERS}*a", f"a^{half}*a^-{half}*a"):
            with pytest.raises(ValueError, match="cap"):
                f2.elem_from_str(word)

    def test_word_letter_cap_fires_before_expanding(self, f2):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                f2.elem_from_str("a^3000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_table_order_cap_fires_before_reading(self):
        assert FiniteGroup(cyclic_table(MAX_TABLE_ORDER)).order == MAX_TABLE_ORDER
        with pytest.raises(ValueError, match="cap"):
            FiniteGroup(Unreadable(MAX_TABLE_ORDER + 1))


class TestSerialization:
    def test_word_string_roundtrip(self, f2, rng):
        from amencert.sampling import random_element

        for _ in range(100):
            g = random_element(rng, f2, max_len=5)
            assert f2.elem_from_str(f2.elem_to_str(g)) == g

    def test_word_string_examples(self, f2):
        assert f2.elem_to_str(()) == "e"
        assert f2.elem_to_str((1, 1, -2)) == "a^2*b^-1"
        assert f2.elem_from_str("a^-3") == (-1, -1, -1)
        with pytest.raises(ValueError):
            f2.elem_from_str("c")
        with pytest.raises(ValueError):
            f2.elem_from_str("a**b")

    def test_group_dict_roundtrip(self, all_groups, s3):
        for group in list(all_groups) + [s3]:
            clone = group_from_dict(group.to_dict())
            assert clone == group
            assert hash(clone) == hash(group)
            assert clone.spec_hash() == group.spec_hash()
        free, abelian = FreeGroup(2, ("x", "y")), FreeAbelianGroup(2, ("x", "y"))
        assert free != abelian
        assert free.spec_hash() != abelian.spec_hash()

    def test_elem_json_forms(self, f2, z2, z3):
        assert f2.elem_to_json((1, -2)) == "a*b^-1"
        assert z2.elem_to_json((1, -2)) == [1, -2]
        assert z3.elem_to_json(2) == 2
        assert z2.elem_from_json([1, -2]) == (1, -2)
        with pytest.raises(ValueError):
            z2.elem_from_json("a")
        for bad in ([1.7, True], [1, True], [1.0, 2], ["1", 2]):
            with pytest.raises(ValueError):
                z2.elem_from_json(bad)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            FreeGroup(2, labels=("a", "a"))
        with pytest.raises(ValueError):
            FreeGroup(1, labels=("e",))
        with pytest.raises(ValueError):
            FreeAbelianGroup(2, labels=("x", "y z"))
        # a label is the whole pattern: a final newline is not read as the end of it
        for bad in ("a\n", "\na", "a\nb"):
            with pytest.raises(ValueError, match="invalid generator label"):
                FreeGroup(2, labels=(bad, "b"))

    # one group for every row, so that each row's second read, and every row after the
    # first, meets a token table that earlier reads filled
    SHARED = FreeGroup(2)

    # one row per way a token is read: Unicode decimal digits as today, every other odd form refused;
    # a tuple row reads its words in turn on the shared group, and want is for the last
    @pytest.mark.parametrize("word, want", [
        ("a^\u0663", (1, 1, 1)),
        ("a^-0", ()),
        ("a^+2", "cannot parse word token 'a^+2'"),
        ("a ^2", "cannot parse word token 'a ^2'"),
        ("a^\u00b2", "cannot parse word token 'a^\u00b2'"),
        ("a^", "cannot parse word token 'a^'"),
        ("a^--1", "cannot parse word token 'a^--1'"),
        ("c^2", "unknown generator 'c'"),
        ("a*e", "unknown generator 'e'"),
        (f"a^{MAX_WORD_LETTERS}*b", f"word token 'b' passes the cap of {MAX_WORD_LETTERS} letters"),
        # the whole count of a stored token still counts against the cap
        ((f"a^{MAX_WORD_LETTERS}", f"a^{MAX_WORD_LETTERS}*b"),
         f"word token 'b' passes the cap of {MAX_WORD_LETTERS} letters"),
    ])
    def test_word_token_edge_cases(self, f2, word, want):
        *before, word = (word,) if isinstance(word, str) else word
        for earlier in before:
            assert self.SHARED.elem_from_str(earlier) == f2.elem_from_str(earlier)
        # a group that has read only this row, then the shared one twice: the second read finds every token stored
        for group in (f2, self.SHARED, self.SHARED):
            if isinstance(want, tuple):
                assert group.elem_from_str(word) == want
            else:
                with pytest.raises(ValueError) as exc:
                    group.elem_from_str(word)
                assert str(exc.value) == want


class TestDefaultLabels:
    """Default labels skip "e", the identity's word, up to rank 25, then are x0, x1, ..."""

    def test_small_ranks_keep_their_labels(self):
        assert FreeGroup(4).gen_labels == ("a", "b", "c", "d")
        assert FreeGroup(5).gen_labels == ("a", "b", "c", "d", "f")
        assert FreeGroup(25).gen_labels[-1] == "z"
        assert FreeGroup(26).gen_labels == tuple(f"x{i}" for i in range(26))

    def test_every_rank_builds_and_round_trips(self):
        rng = random.Random(21)
        for rank in range(1, MAX_RANK + 1):
            free, abelian = FreeGroup(rank), FreeAbelianGroup(rank)
            assert free.gen_labels == abelian.gen_labels and "e" not in free.gen_labels
            words = [tuple(range(1, rank + 1)), tuple(range(-rank, 0))]
            words += [random_element(rng, free, max_len=6) for _ in range(5)]
            for word in words:
                assert free.elem_from_str(free.elem_to_str(word)) == word
            assert group_from_dict({"family": "free", "rank": rank}) == free


class TestLetters:
    """letters() is built once from the declared generators, each then its inverse, none twice."""

    def test_free_custom_labels(self):
        group = FreeGroup(2, ("x", "y"))
        assert group.letters() == (("x", (1,)), ("x^-1", (-1,)), ("y", (2,)), ("y^-1", (-2,)))
        assert group.letters() is group.letters()

    def test_free_abelian(self, z2):
        assert z2.letters() == (("a", (1, 0)), ("a^-1", (-1, 0)), ("b", (0, 1)), ("b^-1", (0, -1)))

    def test_finite_self_inverse_generator(self):
        # D_3: 1 is the rotation r, whose inverse r^2 is 2; 3 is the reflection s = s^-1
        group = FiniteGroup(dihedral_table(3), [1, 3])
        assert group.letters() == (("g1", 1), ("g1^-1", 2), ("g3", 3))

    def test_finite_generators_inverse_to_each_other(self):
        # 4 = -1 in Z/5 is both the second declared generator and the first one's inverse
        group = FiniteGroup(cyclic_table(5), [1, 4])
        assert group.letters() == (("g1", 1), ("g1^-1", 4))
        assert [group.dist(0, x) for x in range(5)] == [0, 1, 2, 2, 1]
        assert group.letter_pairs() == ((1, ("g1", "g1^-1")),)

    @staticmethod
    def assert_pair_blocks(group):
        """letter_pairs() cuts letters() into adjacent blocks: (s, s^-1), or (s) when s = s^-1."""
        letters, i = group.letters(), 0
        for s, labels in group.letter_pairs():
            block = letters[i : i + len(labels)]
            assert tuple(label for label, _ in block) == labels and block[0][1] == s
            if len(labels) == 2:
                assert block[1][1] == group.inv(s) != s
            else:
                assert len(labels) == 1 and group.inv(s) == s
            i += len(labels)
        assert i == len(letters)

    def test_letter_pairs_are_inverse_blocks(self):
        for rank in (1, 2, 3, 64):
            for group in (FreeGroup(rank), FreeAbelianGroup(rank)):
                self.assert_pair_blocks(group)
                assert len(group.letter_pairs()) == rank
        d5 = FiniteGroup(dihedral_table(5), [5, 1, 6])  # 5 = s, 1 = r, 6 = rs
        assert d5.letter_pairs() == ((5, ("g5",)), (1, ("g1", "g1^-1")), (6, ("g6",)))
        self.assert_pair_blocks(d5)
        self.assert_pair_blocks(s3_group())
        for n in (1, 2, 5, 6, 12):
            self.assert_pair_blocks(cyclic_group(n))
            self.assert_pair_blocks(FiniteGroup(cyclic_table(n)))  # every non-identity element declared

    def test_letter_pairs_of_drawn_generator_sets(self):
        # S_4 and D_n on drawn generator lists, in drawn order: elements listed after their
        # inverses, self-inverse letters first or between pairs; sets that do not generate are skipped
        rng = random.Random(29)
        tables = [S4_TABLE] * 4 + [dihedral_table(n) for n in range(2, 9)]
        built = 0
        for _ in range(400):
            table = rng.choice(tables)
            elems = [x for x in range(len(table)) if x != 0]
            gens = rng.sample(elems, rng.randint(1, min(5, len(elems))))
            try:
                group = FiniteGroup(table, gens)
            except ValueError as exc:
                assert str(exc) == "declared generators do not generate the group"
                continue
            self.assert_pair_blocks(group)
            built += 1
        assert built > 100


class TestRankedFamilies:
    @pytest.mark.parametrize("cls, family", [(FreeGroup, "free"), (FreeAbelianGroup, "free-abelian")])
    def test_to_dict_key_order(self, cls, family):
        data = cls(2, ("x", "y")).to_dict()
        assert list(data.items()) == [("family", family), ("rank", 2), ("generators", ["x", "y"])]

    def test_generators_are_the_basis(self, f2, z2):
        assert f2.gens == ((1,), (2,))
        assert z2.gens == ((1, 0), (0, 1))
