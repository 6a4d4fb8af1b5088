import itertools
import os
import random
from pathlib import Path

import pytest

from amencert.groups import FiniteGroup, FreeAbelianGroup, FreeGroup, cyclic_group

# pytest's `pythonpath` setting puts src on this process's path; the CLI
# tests that start `python -m amencert.cli` pass it on to the child too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def symmetric_table(n):
    """Multiplication table of the symmetric group on n points."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms]
        for p in perms
    ]
    return table, perms, index


def dihedral_table(n):
    """D_n of order 2n: index k is r^k, index n + k is r^k s, with s r = r^-1 s."""
    table = []
    for a in range(2 * n):
        i, x = a % n, a // n
        row = []
        for b in range(2 * n):
            j, y = b % n, b // n
            row.append((i + (-j if x else j)) % n + n * ((x + y) % 2))
        table.append(row)
    return table


def z2_times_table(n):
    """Z/2 x Z/n of order 2n: index a + 2b is (a, b)."""
    return [[(x + y) % 2 + 2 * ((x // 2 + y // 2) % n) for y in range(2 * n)] for x in range(2 * n)]


def relabelled(table, perm):
    """The same group with element i renamed perm[i]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = perm[x]
    return out


def generates(table, identity, gens):
    """Whether the products of `gens` reach every element of the table's group."""
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [y for y in {table[x][g] for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return len(seen) == len(table)


def s3_group():
    table, perms, index = symmetric_table(3)
    gens = (index[(1, 0, 2)], index[(1, 2, 0)])  # a transposition and a 3-cycle
    return FiniteGroup(table, generators=gens)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def f2():
    return FreeGroup(2)


@pytest.fixture
def z2():
    return FreeAbelianGroup(2)


@pytest.fixture
def z3():
    return cyclic_group(3)


@pytest.fixture
def s3():
    return s3_group()


@pytest.fixture
def all_groups(f2, z2, z3):
    return [f2, z2, z3]
