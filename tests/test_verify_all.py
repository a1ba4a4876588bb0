"""``run_suite("all")``, the default suite of ``agglearn verify``: it runs every suite in
``verify.SUITES`` in order and passes only when each of them passes.

The suites are stubbed, one passing and one failing, so the summary's own logic is
what is tested; the real suites have their own tests.
"""

import json

import pytest

from agglearn import verify
from agglearn.cli import main


@pytest.fixture()
def stub_suites(monkeypatch):
    seeds = []

    def suite(name, passed):
        return lambda seed=0: seeds.append(seed) or {"suite": name, "checks": [], "passed": passed}

    monkeypatch.setattr(verify, "SUITES", {"good": suite("good", True), "bad": suite("bad", False)})
    return seeds


def test_the_all_summary_lists_every_suite_in_order_and_fails_with_one(stub_suites):
    summary = verify.run_suite("all", seed=4)
    assert summary["suite"] == "all"
    assert [s["suite"] for s in summary["suites"]] == ["good", "bad"]
    assert summary["passed"] is False
    assert stub_suites == [4, 4]


def test_the_all_summary_passes_when_every_suite_passes(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {"good": lambda seed=0: {"suite": "good", "checks": [], "passed": True}})
    assert verify.run_suite("all")["passed"] is True


def test_verify_with_no_suite_runs_all_and_exits_3_on_a_failure(stub_suites, capsys):
    assert main(["verify"]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in summary["suites"]] == ["good", "bad"] and summary["passed"] is False
