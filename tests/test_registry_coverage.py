"""Every verification suite and the posterior benchmark cover every registered kind.

A seventh kind is registered as a copy of pairwise; nothing else is edited,
so a suite or bench that keeps its own task list misses it.
"""

import json

import pytest

from agglearn.cli import main
from agglearn.tasks import TASKS
from agglearn.verify import SUITES

NEW_KIND = "pairwise_copy"

# smallest sizes that still run each suite's loop once per task
SMALL = {"oracle": {"trials": 2}, "unbiased": {"classifiers": 1}, "em": {"cases": 1, "perturbations": 1}}


@pytest.fixture()
def new_kind(monkeypatch):
    monkeypatch.setitem(TASKS, NEW_KIND, TASKS["pairwise"])


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_suite_checks_a_newly_registered_kind(new_kind, suite):
    summary = SUITES[suite](seed=0, **SMALL.get(suite, {}))
    assert summary["passed"]
    assert any(c["name"].endswith(f"/{NEW_KIND}") for c in summary["checks"])


def test_bench_times_a_newly_registered_kind(new_kind, capsys):
    assert main(["bench", "--repeats", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["bench"]
    assert [r["task"] for r in rows] == list(TASKS)
