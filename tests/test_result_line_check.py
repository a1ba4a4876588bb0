"""The CI check on the result line that ends a perfbench run, traced or untraced."""

import importlib.util
import io
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


END_TO_END = ["setup_s", "groups_per_s", "useful_share", "test_acc", "val_nll", "peak_rss_mb"]


def untraced_line(drop=(), **values):
    metrics = {"setup_s": (0.24, "s"), "groups_per_s": (12000.0, "1/s"), "useful_share": (1.0, "ratio"),
               "test_acc": (0.998, "ratio"), "val_nll": (0.159, "nats"), "peak_rss_mb": (99.3, "MB"), **values}
    return json.dumps({"correct": True, "attempted": 30, "failed": 0,
                       "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items() if n not in drop}})


def test_an_untraced_run_passes_on_the_end_to_end_names():
    assert check.declared(trace=False) == END_TO_END
    assert check.problems(untraced_line(), check.declared(trace=False)) == []


@pytest.mark.parametrize("text, problem", [
    (untraced_line(drop={"groups_per_s"}), "groups_per_s is missing"),
    (untraced_line(val_nll=(float("nan"), "nats")), "not a result line: NaN is not strict JSON"),
])
def test_an_unreadable_untraced_run_is_refused(text, problem):
    assert any(p.startswith(problem) for p in check.problems(text, check.declared(trace=False)))


def test_the_mode_picks_the_names(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(untraced_line()))
    assert check.main(["--trace", "0"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(untraced_line()))
    assert check.main([]) == 1  # traced by default: the per-layer names are missing
    assert "training.train.s is missing" in capsys.readouterr().err
