"""The mutation runner's list still fits the code: every old string occurs exactly once.

The runner itself (``.github/scripts/mutants.py``) runs the suite once per mutant and is
not part of it; this test only catches a list that the code has moved out from under.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_listed_mutant_matches_its_file_exactly_once():
    assert mutants.entry_error() is None


def test_a_moved_or_repeated_string_names_its_entry(monkeypatch):
    first = mutants.MUTANTS[0]
    monkeypatch.setattr(mutants, "MUTANTS", [first, first._replace(old="no such line\n")])
    assert mutants.entry_error().startswith("mutant 2 (src/agglearn/training.py): the old string occurs 0 times")
    monkeypatch.setattr(mutants, "MUTANTS", [first._replace(old="\n")])
    assert "not once" in mutants.entry_error()
    monkeypatch.setattr(mutants, "MUTANTS", [first._replace(verdict="equivalent")])
    assert "neither 'killed' nor 'equivalent: <reason>'" in mutants.entry_error()
