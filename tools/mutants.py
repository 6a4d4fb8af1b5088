#!/usr/bin/env python3
"""A mutation gate: each mutant in MUTANTS must make the tests it names fail.

    python3 tools/mutants.py                 # every row
    python3 tools/mutants.py --only cap      # the rows whose name holds "cap"

A row names a file of the checkout, an exact source snippet that must occur
there exactly once, the replacement that makes the mutant, and the pytest
node ids that must fail once it is applied. The runner copies `src`,
`tests`, `perfbench` and `pyproject.toml` into a temporary directory and
runs every named test there unmutated: they must pass. It then applies each
mutant alone to that copy, runs the row's tests, requires pytest to report
failed tests (exit code 1; a collection error is no kill), and puts the file
back. Each pytest run has its address space capped at MEMORY_CAP, so a
mutant that builds something huge fails with MemoryError instead of taking
the host's memory. Standard library only; pytest and hypothesis must be
installed, as for the tests.

Each row also names the change that reported its mutant, by the first
words of that change's commit subject. A change that checks a mutant by
hand adds it here as a row. `tests/test_mutants.py` checks on every test
run that each snippet still occurs exactly once, so a row that an edit
makes stale fails at once, without running the gate.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
MEMORY_CAP = 2 << 30  # bytes of address space for each pytest run

# the changes that reported the mutants, by commit subject
INTEGER_SUMS = "Sum chain values in one integer loop"  # a961777
ONE_WRITER = "One module writes every certificate"  # aee748c
ONE_CODEC = "One element codec per group family"  # f26d5ab
FINITE_PASSES = "Build finite groups in fewer passes"  # e34f8fd
TYPE_TABLE = "verify-f2 in fewer evaluations"  # 0fbe659
TOKEN_READERS = "Read weights files at the cost of their tokens"  # 2f9ae0c
ONE_TABLE = "One rational table per value"  # b2e9d24
ROUND_TRIP = "The inflation round trip, chain-algebra's slowest job, in fewer element operations"


class Mutant(NamedTuple):
    change: str
    name: str
    path: str  # relative to the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]


COMBINE_ORACLE = "tests/test_integer_form.py::TestFractionOracle::test_combine_meets_every_kind_of_term"
FLOW_ROWS = "tests/test_witnesses.py::TestVerifyFlowCycle::test_rows_past_the_twentieth_are_not_written"
CANONICAL_TEXT = "tests/test_groups.py::TestSerialization::test_finite_canonical_text_is_compact_sorted_json"
WORD_TABLES = "tests/test_groups.py::TestWordTables::"
TYPE_SWEEP = "tests/test_witnesses.py::TestConeTypes::test_the_table_holds_every_type"
PAIR_GUARD = "tests/test_integer_form.py::TestDenominatorGuard::"
FROM_PAIRS_ORACLE = "tests/test_reader_oracles.py::test_from_pairs_is_the_fraction_sum_of_parse_ratio"

MUTANTS = (
    Mutant(INTEGER_SUMS, "combine keeps a key whose sum is zero", "src/amencert/functions.py",
           "                    if total:\n"
           "                        nums[k] = total\n"
           "                    else:\n"
           "                        del nums[k]\n",
           "                    nums[k] = total\n",
           (COMBINE_ORACLE,)),
    Mutant(INTEGER_SUMS, "_reduced takes the gcd of the denominator and the numerators' sum only",
           "src/amencert/functions.py",
           "g = gcd(den, sum(vals), *vals)", "g = gcd(den, sum(vals))",
           (PAIR_GUARD + "test_200_primes_sum_as_fractions",)),
    Mutant(INTEGER_SUMS, "combine scales every numerator by the common denominator, unreduced",
           "src/amencert/functions.py",
           "return FinSuppFn._raw(group, *_reduced(den, nums))", "return FinSuppFn._raw(group, den, nums)",
           (COMBINE_ORACLE, PAIR_GUARD + "test_200_primes_sum_as_fractions")),
    Mutant(ONE_WRITER, "the folner-failure writer puts eps before strategy", "src/amencert/cli.py",
           '            "strategy": result.strategy,\n            "eps": frac_str(result.eps),\n',
           '            "eps": frac_str(result.eps),\n            "strategy": result.strategy,\n',
           ("tests/test_certificate_bytes.py::test_certificate_bytes[folner-f2-failure]",)),
    Mutant(ONE_WRITER, "finite_h0 reports a residual of 2n", "src/amencert/amenability.py",
           "return FiniteH0Report(group, n, n - 1, False, Fraction(n))",
           "return FiniteH0Report(group, n, n - 1, False, Fraction(2 * n))",
           ("tests/test_drawn_inputs.py::test_finite_h0_tables",)),
    Mutant(ONE_WRITER, "a flow failure row writes out - inc", "src/amencert/cli.py",
           '"boundary": inc - out}', '"boundary": out - inc}',
           ("tests/test_witnesses.py::TestVerifyFlowCycle::test_perturbed_report_matches_pair_loop",)),
    Mutant(ONE_WRITER, "ten flow failure rows are written", "src/amencert/cli.py",
           "report.failures[:20]", "report.failures[:10]", (FLOW_ROWS,)),
    Mutant(ONE_WRITER, "25 flow failure rows are written", "src/amencert/cli.py",
           "report.failures[:20]", "report.failures[:25]", (FLOW_ROWS,)),
    Mutant(ONE_WRITER, "the adjointness witness is equal without the pairing value", "src/amencert/cli.py",
           '"equal": via_cochain == cert.value == via_chain', '"equal": via_cochain == via_chain',
           ("tests/test_pairing.py::TestCertificate::test_routes_off_the_value_are_unequal",)),
    Mutant(ONE_CODEC, "a free-group element need not be a string", "src/amencert/groups.py",
           '        if not isinstance(data, str):\n'
           '            raise ValueError(f"free-group element must serialize as a string, got {_short(data)}")\n',
           "", ("tests/test_cli.py::test_element_errors_shorten_long_values",)),
    Mutant(ONE_CODEC, "a selftest error text changes", "src/amencert/sampling.py",
           '"boundary of a boundary of a uniformly finite chain is not zero"',
           '"boundary of a boundary of a uniformly finite chain is nonzero"',
           ("tests/test_cli.py::TestSelftest::test_a_broken_boundary_fails_under_python_O",)),
    Mutant(ONE_CODEC, "a Z^d point is written as a tuple", "src/amencert/groups.py",
           "    def elem_to_json(self, a):\n        return list(a)\n",
           "    def elem_to_json(self, a):\n        return tuple(a)\n",
           ("tests/test_groups.py::TestSerialization",)),
    Mutant(FINITE_PASSES, "the canonical text puts the table before the generators", "src/amencert/groups.py",
           """f'{{"family":"finite","generators":[{gens}],"table":[[{rows}]]}}'""",
           """f'{{"family":"finite","table":[[{rows}]],"generators":[{gens}]}}'""",
           (CANONICAL_TEXT,)),
    Mutant(FINITE_PASSES, "the order-1 row is dropped from the row join", "src/amencert/groups.py",
           "for row in self.table])", "for row in self.table if len(row) > 1])", (CANONICAL_TEXT,)),
    Mutant(FINITE_PASSES, "the generators are joined through itemgetter", "src/amencert/groups.py",
           'gens = ",".join(map(texts.__getitem__, self.gens))',
           'gens = ",".join(operator.itemgetter(*self.gens)(texts) if self.gens else ())',
           (CANONICAL_TEXT,)),
    Mutant(FINITE_PASSES, "_light_letters adds inverses", "src/amencert/groups.py",
           "                letters.append(a)\n",
           "                letters.append(a)\n"
           "                if self._inverses[a] != a:\n"
           "                    letters.append(self._inverses[a])\n",
           ("tests/test_groups.py::TestFiniteValidation::test_light_takes_one_letter_on_a_cyclic_group",)),
    Mutant(FINITE_PASSES, "a bad table entry gets the old text", "src/amencert/groups.py",
           'f"table entry {x!r} must be an index 0..{n - 1}"', 'f"table entry {x!r} out of range"',
           ("tests/test_cli.py::TestFiniteH0::test_table_entry_that_is_not_an_index",)),
    Mutant(TYPE_TABLE, "the type table misses its first (x, t^-1, y0) word", "src/amencert/witnesses.py",
           "for _, (x,) in group.letters() if x != ray)", "for _, (x,) in group.letters() if x != ray)[1:]",
           (TYPE_SWEEP,)),
    Mutant(TYPE_TABLE, "the type table takes y0 = t^-1", "src/amencert/witnesses.py",
           "(x, -ray, others[0])", "(x, -ray, -ray)", (TYPE_SWEEP,)),
    Mutant(TYPE_TABLE, "pair folds each denominator in by product", "src/amencert/pairing.py",
           "        if den % q:\n            common = _check_den(lcm(den, q))\n",
           "        if True:\n            common = _check_den(den * q)\n",
           (PAIR_GUARD + "test_pair_sums_1000_primes_under_one_lcm",)),
    Mutant(TYPE_TABLE, "pair does not check the common denominator", "src/amencert/pairing.py",
           "common = _check_den(lcm(den, q))", "common = lcm(den, q)",
           (PAIR_GUARD + "test_pair_refuses_a_sum_past_the_limit",)),
    Mutant(TYPE_TABLE, "the tree-flow term sum reads head != edge", "src/amencert/functions.py",
           "if head == edge)))", "if head != edge)))",
           ("tests/test_integer_form.py::TestFractionOracle::test_pair_is_the_fraction_sum_of_pair_eval",)),
    Mutant(TOKEN_READERS, "a token does not cancel where it meets the word", "src/amencert/groups.py",
           "            if word and word[-1] == -letter:\n", "            if False:\n",
           ("tests/test_reader_oracles.py::test_elem_from_json_matches_the_pattern_reader",)),
    Mutant(TOKEN_READERS, "a Z^d coordinate is tested with isinstance", "src/amencert/groups.py",
           "            if type(x) is not int:\n"
           '                raise ValueError(f"non-integer coordinate in {_short(tuple(data))}")\n',
           "            if not isinstance(x, int):\n"
           '                raise ValueError(f"non-integer coordinate in {_short(tuple(data))}")\n',
           ("tests/test_reader_oracles.py::test_point_reader_matches_isinstance_and_check",)),
    Mutant(TOKEN_READERS, "the letter cap is checked after the token is expanded", "src/amencert/groups.py",
           "if count > MAX_WORD_LETTERS:", "if [letter] * n and count > MAX_WORD_LETTERS:",
           # the test's first token expands to about 8 MB and fails it; were that case gone, its
           # 3e9-letter token would ask for 24 GB, which MEMORY_CAP refuses
           ("tests/test_groups.py::TestWorkGuards::test_word_letter_cap_fires_before_expanding",)),
    Mutant(ONE_TABLE, "from_pairs sends a coefficient that is not a str to the table", "src/amencert/functions.py",
           "c if type(c) is str else parse_ratio(c)", "c",
           (FROM_PAIRS_ORACLE,
            "tests/test_reader_oracles.py::test_one_bad_pair_anywhere_in_a_weights_file_names_its_coefficient")),
    # a repeated key then reuses the coefficient it was first read with
    Mutant(ONE_TABLE, "the table is keyed by the term's key, not its coefficient", "src/amencert/functions.py",
           "        c = term[1]\n"
           "        if c not in scale:\n"
           "            p, q = scale[c] = read(c)\n",
           "        key, c = term\n"
           "        term = (key, key)\n"
           "        if key not in scale:\n"
           "            p, q = scale[key] = read(c)\n",
           (FROM_PAIRS_ORACLE, "tests/test_reader_oracles.py::test_each_distinct_string_is_parsed_once_per_value")),
    Mutant(ONE_TABLE, "the second pass scales by p * (den // q)", "src/amencert/functions.py",
           "scale[c] = p * den // q", "scale[c] = p * (den // q)",
           (FROM_PAIRS_ORACLE,
            "tests/test_integer_form.py::TestDistinctCoefficients::test_reads_from_a_small_pool_of_strings")),
    # every word with one first letter then shares the text of the first such word written
    Mutant(ROUND_TRIP, "the text table is keyed by the word's first letter", "src/amencert/groups.py",
           "        text = self._texts.get(a)\n"
           "        if text is None:\n"
           "            labels, parts = self.gen_labels, []\n"
           "            for letter, run in groupby(a):\n"
           "                lab = labels[abs(letter) - 1]\n"
           "                exp = len(list(run)) if letter > 0 else -len(list(run))\n"
           "                parts.append(lab if exp == 1 else f\"{lab}^{exp}\")\n"
           "            text = self._texts[a] = ",
           "        text = self._texts.get(a[:1])\n"
           "        if text is None:\n"
           "            labels, parts = self.gen_labels, []\n"
           "            for letter, run in groupby(a):\n"
           "                lab = labels[abs(letter) - 1]\n"
           "                exp = len(list(run)) if letter > 0 else -len(list(run))\n"
           "                parts.append(lab if exp == 1 else f\"{lab}^{exp}\")\n"
           "            text = self._texts[a[:1]] = ",
           (WORD_TABLES + "test_every_word_of_a_ball", WORD_TABLES + "test_drawn_words_with_long_runs")),
    Mutant(ROUND_TRIP, "sort_key fills the text table", "src/amencert/groups.py",
           "key = self._keys[a] = (len(a)", "key = self._texts[a] = (len(a)",
           (WORD_TABLES + "test_each_table_is_filled_only_by_its_own_method", WORD_TABLES + "test_every_word_of_a_ball")),
    Mutant(ROUND_TRIP, "a Z^d distance adds the two points", "src/amencert/groups.py",
           "sum(map(abs, map(operator.sub, b, a)))", "sum(map(abs, map(operator.add, b, a)))",
           ("tests/test_groups.py::TestWordMetric::test_free_abelian_matches_bfs",)),
)


def stale(rows=MUTANTS) -> list[str]:
    """One line per row whose snippet does not occur exactly once in its file, or whose replacement is no change."""
    problems = []
    for row in rows:
        count = (ROOT / row.path).read_text().count(row.snippet)
        if count != 1:
            problems.append(f"{row.name}: the snippet occurs {count} times in {row.path}")
        if row.replacement == row.snippet:
            problems.append(f"{row.name}: the replacement changes nothing")
    return problems


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _env(workdir: Path) -> dict:
    """The environment of every process the runner starts: the copy's src first on the path."""
    return {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(workdir: Path, tests) -> int:
    """pytest's exit code for the node ids in tests, run in workdir under the memory cap."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(argv, cwd=workdir, env=_env(workdir), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, preexec_fn=_cap_memory, timeout=600)
    return proc.returncode


def run(rows) -> int:
    """0 when every named test passes unmutated and every mutant makes its tests fail, else 1."""
    problems = stale(rows)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="amencert-mutants-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, workdir / name)
        where = subprocess.run([sys.executable, "-c", "import amencert; print(amencert.__file__)"], cwd=workdir,
                               env=_env(workdir), capture_output=True, text=True)
        if not where.stdout.startswith(str(workdir)):
            print(f"amencert imports from {where.stdout.strip() or where.stderr.strip()}, not from the copy")
            return 1
        everything = sorted({test for row in rows for test in row.tests})
        code = _pytest(workdir, everything)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit code {code})")
            return 1
        survivors = 0
        for row in rows:
            path = workdir / row.path
            original = path.read_text()
            path.write_text(original.replace(row.snippet, row.replacement))
            start = time.perf_counter()
            try:
                code = _pytest(workdir, row.tests)
            finally:
                path.write_text(original)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit code {code})"
            survivors += code != 1
            print(f"{verdict:9} {time.perf_counter() - start:5.1f} s  {row.change}: {row.name}", flush=True)
    print(f"{len(rows) - survivors} of {len(rows)} mutants killed")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation gate.")
    parser.add_argument("--only", default="", help="run only the rows whose name holds this text")
    args = parser.parse_args(argv)
    rows = [row for row in MUTANTS if args.only in row.name]
    if not rows:
        parser.error(f"no row's name holds {args.only!r}")
    return run(rows)


if __name__ == "__main__":
    raise SystemExit(main())
