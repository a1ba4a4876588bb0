#!/usr/bin/env python3
"""Mutation runner: one-line faults of ``src/`` that the test suite must catch.

    python3 .github/scripts/mutants.py

Each entry of ``MUTANTS`` names a file, an exact old string, the new string that
replaces it, and a verdict: "killed" (some test must fail) or "equivalent: <reason>"
(no test can tell, for the reason given). Every old string must occur exactly once
in its file, checked for all entries before any run, so the list fails loudly when
the code moves. For each mutant the repository is copied to a temporary directory,
the one replacement applied there, and

    python -m pytest -x -q --deselect tests/test_mutant_list.py \
        --deselect tests/test_acceptance.py::TestCriterion7DeskScaleLearning

run in the copy (criterion 7, desk-scale learning, takes a minute and no mutant here
needs it; the list's own test would fail on any mutated copy). One line is printed per mutant: killed or survived, its verdict, the
seconds taken and the first failing test. The exit status is 1 when a mutant listed
as "killed" survives, 2 when an entry does not match exactly once. Standard library
only; the runs are sequential.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
# tests/test_mutant_list.py checks this list against the unmutated tree, so a mutated copy always fails it
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "--deselect", "tests/test_mutant_list.py",
           "--deselect", "tests/test_acceptance.py::TestCriterion7DeskScaleLearning"]
TIMEOUT_S = 1800  # a run still going after this long hangs, and counts as killed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_tmp", "*.egg-info")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    verdict: str  # "killed" or "equivalent: <reason>"


MUTANTS = [
    # the rules tests/test_rule_pins.py pins, one test each
    Mutant("src/agglearn/training.py",
           "    if n_val >= len(observations):\n        n_val = len(observations) - 1\n", "",
           "killed"),
    Mutant("src/agglearn/losses.py",
           "if np.any(omega < -1e-12) or abs(omega.sum() - 1.0) > 1e-9:",
           "if abs(omega.sum() - 1.0) > 1e-9:",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "if np.any(np.diff(cum) < -1e-9):", "if np.any(np.diff(cum) < -1e-3):",
           "killed"),
    # the row-sum tolerance, pinned for group_posterior, is the probability-row rule's own
    Mutant("src/agglearn/posteriors.py",
           "(np.abs(etas.sum(axis=1) - 1.0) <= 1e-6)", "(np.abs(etas.sum(axis=1) - 1.0) <= 1e-2)",
           "killed"),
    Mutant("src/agglearn/tasks.py",
           "MAX_COMPOSITIONS = 10**6", "MAX_COMPOSITIONS = 10**9",
           "killed"),
    # the probability-row rule, posteriors.parse_probs
    Mutant("src/agglearn/posteriors.py",
           '    if k is not None and etas.shape[1] != k:\n'
           '        raise ValueError(f"got {etas.shape[1]} classes for a task with {k}")\n', "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           '    if etas.ndim != 2:\n        raise ValueError("etas must be (m, k)")\n', "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "    etas = parse_probs(etas, task.k)  # checked, never changed: the oracle's arithmetic is its own\n", "",
           "killed"),
    # written as the label the caller holds: a numpy integer or array is not JSON
    Mutant("src/agglearn/data.py",
           '"z": z, "task": obs.task_kind', '"z": obs.z, "task": obs.task_kind',
           "killed"),
    # equivalent, or nearly so
    Mutant("src/agglearn/training.py",
           "            val_metric = likelihood / n_train\n",
           "            val_metric = likelihood / len(observations)\n",
           "equivalent: the branch runs only with no validation split, where n_train == len(observations)"),
    Mutant("src/agglearn/losses.py",
           "if not (sums > 0.0).all():", "if not (sums > 0.0).any():",
           "equivalent: every joint row sums to the same p(z), so one positive row means all are"),
    Mutant("src/agglearn/posteriors.py",
           "    pz = float(max(pz, 0.0))\n", "    pz = float(pz)\n",
           "equivalent: only a p(z) cancelled below zero differs, and training floors p(z) at PZ_FLOOR"),
    Mutant("src/agglearn/posteriors.py",
           "return np.maximum(np.where(np.asarray(zs) == side, own, 1.0 - own), 0.0)",
           "return np.where(np.asarray(zs) == side, own, 1.0 - own)",
           "equivalent: only a p(z) cancelled below zero differs, and the likelihood floors p(z) at PZ_FLOOR"),
]


def entry_error() -> str | None:
    """What is wrong with the first entry whose old string does not occur exactly once or whose verdict is malformed."""
    for number, mutant in enumerate(MUTANTS, start=1):
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            return f"mutant {number} ({mutant.file}): the old string occurs {count} times, not once:\n{mutant.old}"
        if mutant.verdict != "killed" and not mutant.verdict.startswith("equivalent: "):
            return f"mutant {number}: verdict {mutant.verdict!r} is neither 'killed' nor 'equivalent: <reason>'"
    return None


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, first failing test) of the suite run in a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run(COMMAND, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, failed[0] if failed else f"exit status {done.returncode}"


def main() -> int:
    if error := entry_error():
        print(error, file=sys.stderr)
        return 2
    start = time.perf_counter()
    escaped = 0
    for number, mutant in enumerate(MUTANTS, start=1):
        began = time.perf_counter()
        killed, by = run(mutant)
        expected = mutant.verdict.split(":")[0]
        escaped += not killed and expected == "killed"
        outcome = "killed" if killed else "SURVIVED" if expected == "killed" else "survived"
        where = f" by {by}" if killed else ""
        print(f"mutant {number:2d} {mutant.file}: {outcome} ({expected}) in {time.perf_counter() - began:.0f} s{where}",
              flush=True)
    print(f"{len(MUTANTS)} mutants, {escaped} listed as killed survived, {time.perf_counter() - start:.0f} s in all")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
