"""Tests of the benchmark's own machinery, on tiny copies of the workloads.

Run from the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, labelled_splits, write_observations  # noqa: E402

TINY = {
    "pairwise-mlp300": dict(n_groups=40, epochs=2, warmup_epochs=1, n_eval_points=200),
    "llp-m12-k10": dict(n_groups=6, batch_size=4, n_eval_points=200),
    "mil-m64-linear": dict(n_groups=30, n_train_points=5000, n_eval_points=200),
}


def _temp_dir():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp")


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny(request):
    w = dataclasses.replace(WORKLOADS[request.param], **TINY[request.param])
    with _temp_dir() as d:
        path = Path(d) / "observations.jsonl"
        write_observations(w, 3, path)
        yield w, path, labelled_splits(w, 3)


def test_counts_repeat_exactly(tiny):
    first = measure.one_run(*tiny, trace=True)["trace"]["counts"]
    second = measure.one_run(*tiny, trace=True)["trace"]["counts"]
    assert first == second
    assert first["posteriors.group_posterior.calls"] > 0
    assert first["models.forward_cached.rows"] >= first["models.forward_cached.calls"] > 0
    w = tiny[0]
    assert (first["posteriors.llp.box_volume"] > 0) == (w.kind == "llp")


def test_self_times_fit_in_train_time(tiny):
    run = measure.one_run(*tiny, trace=True)
    layers = run["trace"]
    assert layers["self_sum_s"] <= run["train_s"]
    assert all(v >= 0.0 for v in layers["times"].values())


def test_tracing_changes_no_result(tiny):
    plain = measure.one_run(*tiny, trace=False)
    traced = measure.one_run(*tiny, trace=True)
    for key in ("records", "best_epoch", "val_loglik", "test_acc", "degenerate", "useful_updates"):
        assert traced[key] == plain[key], key


def test_wrappers_removed_after_traced_run(tiny):
    before = tracer.originals()
    assert measure.one_run(*tiny, trace=True)["wrappers_removed"]
    assert all(a is b for a, b in zip(tracer.originals(), before))


def test_wrappers_removed_when_training_raises():
    before = tracer.originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert not all(a is b for a, b in zip(tracer.originals(), before))
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(tracer.originals(), before))


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    tr.spans.extend([("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1)])
    assert tr.self_times() == {"root": 7.0, "a": 2.0, "b": 1.0}


def test_every_timing_carries_a_reference_time(tiny):
    w, path, _ = tiny
    doc = measure.measure(w, path, 3, 0.0, trace=False)
    assert len(doc["setups"]) == measure.MIN_SETUPS
    for timing in doc["runs"] + doc["setups"]:
        assert timing["ref_s"] > 0.0
        assert not any(key.endswith("_at") for key in timing)


def test_reference_time_comes_from_nearby_samples():
    sampler = reference.SpeedSampler()
    sampler.samples.extend([(0.0, 1.0), (5.0, 3.0), (5.5, 5.0)])
    assert sampler.around(5.2, 5.3) == 4.0
    # none within WINDOW_S: the nearest sample
    assert sampler.around(2.0, 2.5) == 1.0


def test_sampler_samples_while_running_and_stops():
    with reference.SpeedSampler() as sampler:
        time.sleep(3 * reference.PERIOD_S)
    assert sampler.samples and all(s > 0.0 for _, s in sampler.samples)
    assert not sampler._thread.is_alive()


def test_run_refuses_without_program_source():
    with _temp_dir() as d:
        shutil.copytree(HERE, Path(d) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", d)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "llp-m12-k10", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
