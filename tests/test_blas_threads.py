"""Training bits do not depend on the BLAS thread count.

The same short ``train()`` runs run in two fresh interpreters, one with
one OpenBLAS thread and one with two; their epoch records, final parameters
and cached eta rows must be equal bit for bit. The thread count is read at
library load, so each count needs its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import ctypes, glob, hashlib, json
from pathlib import Path

import numpy as np

from agglearn import Classifier, SyntheticSpec, Task, TrainConfig, generate_synthetic, sample_groups, train


def blas_threads():
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def mixture(k, seed):
    angles = 2 * np.pi * np.arange(k) / k
    means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return generate_synthetic(SyntheticSpec(k=k, d=2, means=means, spreads=[0.7] * k, prior=[1 / k] * k,
                                            seed=seed), 600)


runs = {
    "pairwise-mlp300-warmup": (Task("pairwise", 2, 3), "mlp-300", "softmax", 3, 1500,
                               dict(epochs=3, warmup=True, warmup_epochs=2, confidence_cache=True)),
    "llp-m6-k3": (Task("llp", 6, 3), "mlp-300", "softmax", 3, 200, dict(epochs=2, confidence_cache=True)),
    "mil-m16-cache-off": (Task("mil", 16, 2), "linear", "sigmoid", 2, 1500, dict(epochs=2, confidence_cache=False)),
}
out = {"blas_threads": blas_threads()}
for name, (task, arch, head, k, n_groups, flags) in runs.items():
    obs = sample_groups(mixture(k, 1), task, task.m, n_groups, seed=2, positive_label=2 if head == "sigmoid" else None)
    model = Classifier.create(arch, head, 2, task.k, seed=3)
    result = train(obs, task, model, TrainConfig(batch_size=128, seed=4, **flags))
    params = b"".join(p.tobytes() for p in model.parameters())
    confidence = b"" if result.confidence is None else result.confidence.tobytes()
    out[name] = {"records": [r.to_json() for r in result.metrics], "best_epoch": result.best_epoch,
                 "parameters": params.hex(), "confidence": confidence.hex(),
                 "cached": result.confidence is not None}
print(json.dumps(out))
"""


def _run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_one_and_two_blas_threads_give_the_same_bits():
    one, two = _run(1), _run(2)
    if one["blas_threads"] is not None:  # the count took effect where the library reports it
        assert (one["blas_threads"], two["blas_threads"]) == (1, 2)
    runs = ("pairwise-mlp300-warmup", "llp-m6-k3", "mil-m16-cache-off")
    assert [one[name]["cached"] for name in runs] == [True, True, False]
    for name in runs:
        for key in ("records", "best_epoch", "parameters", "confidence"):
            assert one[name][key] == two[name][key], (name, key)
