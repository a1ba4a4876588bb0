"""Print one sha256 per benchmark workload of what train() returns on its inputs.

    python3 .github/scripts/train_digest.py --seed 1

For each workload of ``perfbench/workloads.py`` the script draws the inputs for
``--seed``, writes them as JSONL and loads them back, as the benchmark does,
then builds the model and trains once with the workload's config. The digest
covers the epoch records, the best epoch, the final parameter bytes and the
cached eta bytes, so two source trees that print the same lines train
bit-identically on the benchmark's inputs. After the training lines, one
``<workload> predictions <sha256>`` line per workload covers the trained
model's predicted labels on the workload's labelled validation and test splits
(``workloads.labelled_splits``), so scoring can be compared the same way. BLAS
runs on one thread, as in the benchmark. Nothing under ``perfbench/`` is
written to. Exit code 0.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from agglearn.data import load_observations  # noqa: E402
from agglearn.training import train  # noqa: E402
from workloads import WORKLOADS, labelled_splits, write_observations  # noqa: E402


def digest(name: str, seed: int, directory: str) -> tuple[str, str]:
    """sha256 of one training run of workload ``name`` on its inputs for ``seed``,
    and sha256 of the trained model's predicted labels on its labelled splits."""
    w = WORKLOADS[name]
    path = os.path.join(directory, f"{name}.jsonl")
    write_observations(w, seed, path)
    result = train(load_observations(path), w.task, w.create_model(), w.config())
    h = hashlib.sha256()
    h.update(json.dumps({"records": [r.to_json() for r in result.metrics], "best_epoch": result.best_epoch}).encode())
    for array in result.model.parameters():
        h.update(array.tobytes())
    if result.confidence is not None:
        h.update(result.confidence.tobytes())
    labels = hashlib.sha256()
    for split in labelled_splits(w, seed):
        labels.update(result.model.predict(split.features).astype("<i8").tobytes())
    return h.hexdigest(), labels.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    predictions = []
    with tempfile.TemporaryDirectory() as directory:
        for name in WORKLOADS:
            training, labels = digest(name, args.seed, directory)
            print(f"{name} {training}", flush=True)
            predictions.append(f"{name} predictions {labels}")
    print("\n".join(predictions), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
