"""The CI check on the result line that ends a traced perfbench run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_result_line.py"
spec = importlib.util.spec_from_file_location("check_result_line", SCRIPT)
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

DECLARED = ["losses.loglik_loss.calls", "training.train.s", "trace.overhead_s"]


def line(correct=True, **values):
    metrics = {"losses.loglik_loss.calls": (0, "count"), "training.train.s": (0.13, "s"),
               "trace.overhead_s": (-0.019, "s"), **values}
    return json.dumps({"correct": correct, "attempted": 2, "failed": 0,
                       "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}})


def test_a_passing_run_passes():
    assert check.problems(line(), DECLARED) == []  # a zero count and a negative overhead are fine


@pytest.mark.parametrize("text, problem", [
    (line(correct=False), "correct is False"),
    (line(**{"training.train.s": (0.0, "s")}), "training.train.s = 0.0 s is not above 0"),
    (line(**{"training.train.s": (float("nan"), "s")}), "not a result line: NaN is not strict JSON"),
    (line(**{"evaluation.s": (None, "s")}), "evaluation.s = None is not a finite number"),
    (line().replace('"training.train.s"', '"training.other.s"'), "training.train.s is missing"),
    ("perfbench verdict: PASS (2 train() calls, 0 failed)", "not a result line"),
])
def test_an_unreadable_run_is_refused(text, problem):
    assert any(p.startswith(problem) for p in check.problems(text, DECLARED))


def test_the_declared_names_come_from_the_benchmark_spec():
    declared = [m["name"] for m in json.loads(check.BENCHMARK.read_text())["per_layer"]]
    assert "trace.overhead_s" in declared and "training.train.s" in declared
