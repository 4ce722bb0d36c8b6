"""The mutant register (`tests/mutants.py`) still fits the source: each
mutant's old text occurs exactly once, and the tests it names exist."""

from __future__ import annotations

from mutants import MUTANTS, ROOT, SRC


def test_every_mutant_edits_text_that_occurs_once():
    for mutant in MUTANTS:
        text = (SRC / "balex" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_every_mutant_has_a_name_of_its_own_and_names_tests_that_exist():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
