"""What a training and scoring process loads: numpy alone, no scipy.

scipy is about 50 MB of resident memory and half a second of start-up.
Matched accuracy solves its assignment in pure Python, so no run-time path
needs it. The checks run in a fresh interpreter, since this test process
may have loaded scipy already: once watching ``sys.modules``, and once with
a ``scipy`` that cannot be imported first on the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys

import agglearn
from agglearn import (Classifier, SyntheticSpec, Task, TrainConfig, accuracy, generate_synthetic,
                      group_accuracy_mil, load_observations, matched_accuracy, sample_groups,
                      save_observations, train)

spec = SyntheticSpec(k=2, d=2, means=[[-2.5, 0.0], [2.5, 0.0]], spreads=[0.7, 0.7], prior=[0.6, 0.4], seed=0)
data = generate_synthetic(spec, 200)
runs = [
    (Task("pairwise", 2, 2), Classifier.create("mlp-300", "softmax", 2, 2, seed=1),
     TrainConfig(epochs=2, warmup=True, warmup_epochs=1, batch_size=16, seed=2)),
    (Task("mil", 4, 2), Classifier.create("linear", "sigmoid", 2, 2, seed=1),
     TrainConfig(epochs=2, confidence_cache=False, batch_size=16, seed=2)),
]
for i, (task, model, cfg) in enumerate(runs):
    path = f"{sys.argv[1]}/obs{i}.jsonl"
    save_observations(sample_groups(data, task, task.m, 60, seed=3, positive_label=2), path)
    obs = load_observations(path)
    train(obs, task, model, cfg)
    accuracy(model.predict(data.features), data.task_labels(task, positive_label=2))
    if task.kind == "mil":
        group_accuracy_mil(model, obs)
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
before = scipy_modules()
matched_accuracy(runs[0][1].predict(data.features), data.labels, 2)
print(json.dumps({"before": before, "after": scipy_modules()}))
"""


def run_child(tmp_path, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [*path, str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_training_and_scoring_load_no_scipy(tmp_path):
    seen = run_child(tmp_path)
    assert seen["before"] == []
    assert not seen["after"]  # matched accuracy solves its assignment without scipy


def test_training_and_scoring_run_where_scipy_cannot_import(tmp_path):
    stub = tmp_path / "stub" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is not a run-time dependency of agglearn")\n')
    seen = run_child(tmp_path, str(stub.parent))
    assert seen == {"before": [], "after": []}
