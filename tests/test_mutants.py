"""The committed mutant list of ``scripts/mutants.py`` cannot go stale silently.

Running the mutants takes a test run each, so Tier-1 checks only that every
mutant still applies: its old text occurs exactly once in its file, and
each test it names still exists.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load_mutants()


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS]
)
def test_every_mutant_old_text_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert mutants.occurrences(mutant) == 1, mutant.path
    assert mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test_id
