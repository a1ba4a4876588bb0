"""Check the result line that ends a perfbench run, traced or untraced.

    python3 perfbench/run.py --workload llp-m12-k10 --seed 1 --seconds 3 --trace 1 > run.out
    tail -n 1 run.out | python3 .github/scripts/check_result_line.py --trace 1

The line must parse as strict JSON (no NaN or Infinity) with "correct" true.
``--trace`` names the run's mode, as perfbench's flag of that name does, and
defaults to 1. A traced line must hold every per-layer metric that
BENCHMARK.json declares, an untraced line (``--trace 0``) every end-to-end
metric. Each value must be finite, and every time metric (unit "s") must be
above 0, except trace.overhead_s: that is the difference of two timed runs,
and a short run can read it below 0. Exit code 0 when the line passes, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
SIGNED = {"trace.overhead_s"}


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


def problems(line: str, declared: list[str]) -> list[str]:
    """What is wrong with the result line, or [] when it passes."""
    try:
        doc = json.loads(line, parse_constant=_refuse_constant)
        metrics = doc["metrics"]
        correct = doc["correct"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"not a result line: {exc}"]
    found = [] if correct is True else [f"correct is {correct!r}"]
    for name in declared:
        if name not in metrics:
            found.append(f"{name} is missing")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} = {value!r} is not a finite number")
        elif metric.get("unit") == "s" and name not in SIGNED and not value > 0:
            found.append(f"{name} = {value!r} s is not above 0")
    return found


def declared(trace: bool) -> list[str]:
    """The metric names BENCHMARK.json declares for a traced or an untraced run."""
    return [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    found = problems(sys.stdin.read().strip(), declared(bool(args.trace)))
    for problem in found:
        print(f"result line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
