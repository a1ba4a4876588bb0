"""Training benchmark for agglearn: one workload, one seed, one verdict.

Run from the repository root:

    python3 perfbench/run.py --workload pairwise-mlp300 --seed 1 --seconds 30 --trace 0

The script draws the workload's inputs from the seed with agglearn.data,
writes them as JSONL under ``.perfbench_tmp/``, and starts ``measure.py``
in a process of its own to time set-up (load_observations +
Classifier.create), train() and scoring, repeating them for about
``--seconds``. It then checks the outputs, prints the environment, one
check line per output check and a verdict, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
train() calls; ``failed`` counts those that aborted or failed a check.

``--trace 0`` reports the end-to-end metrics. Their timings are CPU times
scaled by the fixed reference work of ``reference.py``, sampled on the
same core all through the run, so that they do not follow the drifting
speed of a shared machine; the unscaled wall times are printed on their
own line. ``--trace 1`` pairs each
untraced train() with a traced one on the same inputs and reports the
per-layer metrics (see README.md). The exit code is 0 when every check
passed, 1 when one failed, and 2 when there is no agglearn source to
measure.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and the measuring process it starts;
# the variables must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import glob
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# A run must end within 180 s; leave room for generation and checks.
MEASURE_TIMEOUT_S = 160


def _git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    # a checkout that is not itself a repository may sit inside one
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas_threads():
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def _finite_records(records) -> bool:
    return all(
        math.isfinite(v) for r in records for v in r.values() if isinstance(v, (int, float))
    )


def _same_result(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of everything train() and scoring decided."""
    keys = ("records", "best_epoch", "val_loglik", "test_acc", "degenerate", "useful_updates")
    return all(a[k] == b[k] for k in keys)


def check_runs(w, runs: list, trace: bool) -> tuple[list, int]:
    """Output checks over every train() call of the run.

    Returns ([(check, ok, detail)], number of train() calls that aborted or
    failed a check).
    """
    failing: dict[str, list[int]] = {}

    def check(name, i, ok):
        failing.setdefault(name, [])
        if not ok:
            failing[name].append(i)

    done = []
    for i, r in enumerate(runs):
        check("trained without TrainingAbortError", i, "aborted" not in r)
        if "aborted" in r:
            continue
        done.append(i)
        check(f"one record per epoch ({w.epochs})", i, len(r["records"]) == w.epochs)
        check("every record field finite", i,
              _finite_records(r["records"]) and math.isfinite(r["test_acc"]))
        check(f"test_acc >= floor {w.acc_floor}", i, r["test_acc"] >= w.acc_floor)
        check("bit-identical to the first train() on these inputs", i,
              _same_result(r, runs[done[0]]))
        if trace and "trace" in r:
            layers = r["trace"]
            c = layers["counts"]
            first = next(runs[j] for j in done if "trace" in runs[j])
            check("traced result equals the untraced one bit for bit", i,
                  _same_result(r, runs[i - 1]))
            check("per-layer counts repeat exactly", i,
                  c == first["trace"]["counts"])
            check("self times sum to at most the traced train() time", i,
                  layers["self_sum_s"] <= r["train_s"])
            check("wrappers removed after the traced run", i, r["wrappers_removed"])
            check("layer counts agree with the epoch records", i,
                  c["losses.compute_weights.calls"] == r["weighted_attempts"]
                  and c["losses.compute_weights.degenerate"] == r["degenerate"]
                  and c["losses.aggregate_loss.calls"] + c["losses.loglik_loss.calls"]
                  == r["useful_updates"])
    checks = [
        (name, not bad, f"{len(runs) - len(bad)} of {len(runs)} train() calls pass")
        for name, bad in failing.items()
    ]
    return checks, len({i for bad in failing.values() for i in bad})


def _scaled(cpu_s: float, ref_s: float) -> float:
    """CPU seconds as they would read on a core where the reference unit
    takes NOMINAL_S: the core's speed at the time cancels out."""
    return cpu_s * NOMINAL_S / ref_s


def _groups_per_s(runs: list, scaled: bool) -> float:
    return statistics.median(
        r["useful_updates"] / (_scaled(r["train_cpu_s"], r["ref_s"]) if scaled else r["train_s"])
        for r in runs
    )


def _setup_s(setups: list, scaled: bool) -> float:
    return statistics.median(
        _scaled(s["setup_cpu_s"], s["ref_s"]) if scaled else s["setup_s"] for s in setups
    )


def end_to_end(doc: dict) -> dict:
    runs = doc["runs"]
    first = runs[0]
    attempts = first["weighted_attempts"]
    return {
        "setup_s": (_setup_s(doc["setups"], scaled=True), "s"),
        "groups_per_s": (_groups_per_s(runs, scaled=True), "1/s"),
        "useful_share": (1.0 - first["degenerate"] / attempts if attempts else 1.0, "ratio"),
        "test_acc": (first["test_acc"], "ratio"),
        "val_nll": (-first["val_loglik"], "nats"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(doc: dict) -> dict:
    runs = doc["runs"]
    traced = [r for r in runs if "trace" in r]
    out = {name: (value, "count") for name, value in traced[0]["trace"]["counts"].items()}
    for name in traced[0]["trace"]["times"]:
        out[name] = (statistics.median(r["trace"]["times"][name] for r in traced), "s")
    # runs alternate untraced, traced on the same inputs
    # scaled, so that drift between the two runs does not read as overhead
    train_s = [_scaled(r["train_cpu_s"], r["ref_s"]) for r in runs]
    overhead = [train_s[i] - train_s[i - 1] for i in range(1, len(runs), 2)]
    out["trace.overhead_s"] = (statistics.median(overhead), "s")
    out["data.load_observations.s"] = (statistics.median(s["load_s"] for s in doc["setups"]), "s")
    out["evaluation.s"] = (statistics.median(r["eval_s"] for r in runs), "s")
    return out


def _print_shares(metrics: dict) -> None:
    train_s = metrics["training.train.s"][0]
    print(f"perfbench layers: self time as a share of traced train() = {train_s:.3f} s")
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s"):
            print(f"  {name:40s} {value:10.4f} s  {100 * value / train_s:6.2f}%")
    models = sum(v for n, (v, _) in metrics.items() if n.startswith("models.") and n.endswith(".self_s"))
    print(f"  {'models.* together':40s} {models:10.4f} s  {100 * models / train_s:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agglearn" / "__init__.py").is_file():
        print(f"perfbench: no agglearn source at {SRC.relative_to(ROOT)}/agglearn; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, write_observations

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    print("perfbench env " + json.dumps(environment()), flush=True)

    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=TMP))
    try:
        path = work / "observations.jsonl"
        write_observations(w, args.seed, path)
        child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), w.name, str(path), str(args.seed),
             str(args.seconds), str(args.trace)],
            capture_output=True, text=True, env=child_env, timeout=MEASURE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench verdict: FAIL (measuring process killed after {MEASURE_TIMEOUT_S} s)")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench verdict: FAIL (measuring process exited with {proc.returncode})")
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    checks, failed = check_runs(w, doc["runs"], bool(args.trace))
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"perfbench check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    first = next((r for r in doc["runs"] if "aborted" not in r), None)
    if first is not None:
        attempts = first["weighted_attempts"]
        print(f"perfbench scores test_acc {first['test_acc']} val_loglik {first['val_loglik']} "
              f"degenerate_share {first['degenerate'] / attempts if attempts else 0.0:.4f} "
              f"({first['degenerate']} of {attempts} weighted group updates)")
    untraced = [r for r in doc["runs"] if "aborted" not in r and "trace" not in r]
    if untraced:
        print(f"perfbench wall time: median reference unit {statistics.median(r['ref_s'] for r in untraced):.5f} s "
              f"(nominal {NOMINAL_S} s), unscaled groups_per_s {_groups_per_s(untraced, scaled=False):.2f}, "
              f"unscaled setup_s {_setup_s(doc['setups'], scaled=False):.5f}")
    metrics = {}
    if correct:
        metrics = per_layer(doc) if args.trace else end_to_end(doc)
        if args.trace:
            _print_shares(metrics)
    print(f"perfbench verdict: {'PASS' if correct else 'FAIL'} "
          f"({len(doc['runs'])} train() calls, {failed} failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(doc["runs"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
