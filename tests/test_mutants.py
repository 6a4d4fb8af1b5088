"""The mutation gate's table stays current: each row's snippet occurs exactly once in its file.

Running the gate (`python3 tools/mutants.py`) takes minutes; this check
takes milliseconds, so an edit that moves or rewrites a mutated line fails
here at once, and its row is mended with the edit.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_snippet_occurs_exactly_once():
    gate = load_gate()
    assert gate.MUTANTS
    assert gate.stale() == []


def test_each_row_names_tests_that_exist():
    gate = load_gate()
    assert len({row.name for row in gate.MUTANTS}) == len(gate.MUTANTS)
    for row in gate.MUTANTS:
        assert row.tests, row.name
        for node in row.tests:
            path, *names = node.split("::")
            last = names[-1].partition("[")[0]
            text = (ROOT / path).read_text()
            assert f"def {last}(" in text or f"class {last}" in text, (row.name, node)
