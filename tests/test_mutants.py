"""The standing mutant list in tools/mutants.py stays applicable: each
mutant's text occurs exactly once in its module, and each test it names
exists, so a refactor that moves the text shows here rather than only in
the slow mutant run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, module, text, replacement, tests", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_occurs_once(name, module, text, replacement, tests):
    assert (ROOT / module).read_text().count(text) == 1
    assert text != replacement


@pytest.mark.parametrize("name, module, text, replacement, tests", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_tests_exist(name, module, text, replacement, tests):
    for test in tests:
        path, _, function = test.partition("::")
        source = (ROOT / path).read_text()
        assert not function or f"def {function}(" in source
