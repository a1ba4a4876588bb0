"""The measuring process of the benchmark: set up, train and score one
workload, repeatedly, and print the raw results as one JSON line.

``run.py`` starts this file in a process of its own, so that the peak
resident memory it reports belongs to the workload alone and not to the
input generation. Run it through ``run.py``.

The process pins itself to one core, and a ``reference.SpeedSampler``
times a fixed unit of work on that core all through the run. Every set-up
and train() records its CPU time and the mean unit time around it as
``ref_s``, so that ``run.py`` can take the core's drifting speed out of
its timings.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from agglearn.data import load_observations
from agglearn.training import TrainingAbortError, train

import tracer
from reference import SpeedSampler
from workloads import WORKLOADS, Workload, labelled_splits, score_accuracy

# Set-up is short and noisy, so every run times at least this many.
MIN_SETUPS = 25

# What the traced names are bound to when no tracer is installed.
_ORIGINALS = tracer.originals()


def _setup(w: Workload, path):
    """What a user pays before training: read the JSONL, build the model."""
    gc.collect()
    c0, t0 = time.thread_time(), time.perf_counter()
    observations = load_observations(path)
    t1 = time.perf_counter()
    model = w.create_model()
    c2, t2 = time.thread_time(), time.perf_counter()
    timing = {"setup_s": t2 - t0, "setup_cpu_s": c2 - c0, "setup_at": (t0, t2), "load_s": t1 - t0}
    return observations, model, timing


def _n_train(w: Workload, n_obs: int) -> int:
    # the split rule of agglearn.training.train
    n_val = min(int(round(w.val_fraction * n_obs)), n_obs - 1)
    return n_obs - n_val


def one_run(w: Workload, path, splits, trace: bool) -> dict:
    """Set up, train and score once; with ``trace`` the train() call runs
    under the tracer and the result carries its per-layer counts and times."""
    observations, model, setup = _setup(w, path)
    gc.collect()
    tr = tracer.Tracer() if trace else None
    c0, t0 = time.thread_time(), time.perf_counter()
    try:
        if tr is None:
            result = train(observations, w.task, model, w.config())
        else:
            with tr.installed():
                result = tr.call(tracer.ROOT, train, observations, w.task, model, w.config())
    except TrainingAbortError as exc:
        return {"aborted": str(exc), **setup}
    c1, t1 = time.thread_time(), time.perf_counter()
    test_acc = score_accuracy(w, result.model, *splits)
    eval_s = time.perf_counter() - t1

    n_train = _n_train(w, len(observations))
    weighted_epochs = w.epochs - w.warmup_epochs
    degenerate = sum(r.degenerate_groups for r in result.metrics)
    useful = w.epochs * n_train - degenerate
    out = {
        **setup,
        "train_s": t1 - t0,
        "train_cpu_s": c1 - c0,
        "train_at": (t0, t1),
        "eval_s": eval_s,
        "records": [r.to_json() for r in result.metrics],
        "best_epoch": result.best_epoch,
        "val_loglik": result.metrics[result.best_epoch - 1].val_metric,
        "test_acc": test_acc,
        "weighted_attempts": weighted_epochs * n_train,
        "degenerate": degenerate,
        "useful_updates": useful,
    }
    if tr is not None:
        out["trace"] = _layers(w, tr)
        out["wrappers_removed"] = all(
            a is b for a, b in zip(tracer.originals(), _ORIGINALS)
        )
    return out


def _layers(w: Workload, tr: tracer.Tracer) -> dict:
    """Per-layer counts (exact) and times (seconds) of one traced train()."""
    c = tr.counts
    self_s = tr.self_times()
    direct_predict = tr.calls_under("models.predict_proba", tracer.ROOT)
    counts = {
        "posteriors.group_posterior.calls": c["posteriors.group_posterior.calls"],
        "posteriors.group_posterior.instances": c["posteriors.group_posterior.instances"],
        "posteriors.llp.box_volume": c["posteriors.llp.box_volume"],
        "models.forward_cached.calls": c["models.forward_cached.calls"],
        "models.forward_cached.rows": c["models.forward_cached.rows"],
        "models.backward.calls": c["models.backward.calls"],
        "models.predict_proba.calls": c["models.predict_proba.calls"],
        "models.adam_step.calls": c["models.adam_step.calls"],
        "losses.compute_weights.calls": c["losses.compute_weights.calls"],
        "losses.compute_weights.degenerate": c["losses.compute_weights.raised.DegenerateGroupError"],
        "losses.aggregate_loss.calls": c["losses.aggregate_loss.calls"],
        "losses.loglik_loss.calls": c["losses.loglik_loss.calls"],
        "training.observed_likelihood.calls": c["training.observed_likelihood.calls"],
        # train() predicts directly for the confidence-cache refresh after
        # each update when the cache is on, and for the live etas before it
        # when the cache is off.
        "training.cache_refresh.calls": direct_predict if w.confidence_cache else 0,
        "training.eta_live.calls": 0 if w.confidence_cache else direct_predict,
    }
    times = {
        "posteriors.group_posterior.self_s": self_s.get("posteriors.group_posterior", 0.0),
        "models.forward_cached.self_s": self_s.get("models.forward_cached", 0.0),
        "models.backward.self_s": self_s.get("models.backward", 0.0),
        "models.predict_proba.self_s": self_s.get("models.predict_proba", 0.0),
        "models.adam_step.self_s": self_s.get("models.adam_step", 0.0),
        "losses.compute_weights.self_s": self_s.get("losses.compute_weights", 0.0),
        # one figure for both objectives: loglik_loss runs only in warm-up
        "losses.loss.self_s": self_s.get("losses.aggregate_loss", 0.0)
        + self_s.get("losses.loglik_loss", 0.0),
        "training.train.self_s": self_s.get(tracer.ROOT, 0.0),
        "training.train.s": tr.total(tracer.ROOT),
        "training.predict_direct.s": tr.total("models.predict_proba", tracer.ROOT),
        "training.observed_likelihood.s": tr.total("training.observed_likelihood"),
    }
    return {"counts": counts, "times": times, "self_sum_s": sum(self_s.values())}


def measure(w: Workload, path, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat runs on the same inputs until ``seconds`` would be exceeded.

    Untraced, every repeat is one run; traced, every repeat is an untraced
    run followed by a traced one, so both see the same inputs and the
    difference of their train() times is the tracing overhead.
    """
    splits = labelled_splits(w, seed)
    start = time.perf_counter()
    runs = []
    with SpeedSampler() as speed:
        while True:
            t0 = time.perf_counter()
            batch = [one_run(w, path, splits, trace=False)]
            if trace:
                batch.append(one_run(w, path, splits, trace=True))
            runs.extend(batch)
            if any("aborted" in r for r in batch):
                break
            now = time.perf_counter()
            if now + (now - t0) > start + seconds:
                break
        setup_keys = ("setup_s", "setup_cpu_s", "setup_at", "load_s")
        setups = [{k: r.pop(k) for k in setup_keys} for r in runs]
        while len(setups) < MIN_SETUPS:
            setups.append(_setup(w, path)[2])
    for s in setups:
        s["ref_s"] = speed.around(*s.pop("setup_at"))
    for r in runs:
        if "train_at" in r:
            r["ref_s"] = speed.around(*r.pop("train_at"))
    return {
        "runs": runs,
        "setups": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    name, observations_path, seed, seconds, trace = argv
    # The reference sampler must run on the core that runs the program.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    doc = measure(WORKLOADS[name], Path(observations_path), int(seed), float(seconds), trace == "1")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
