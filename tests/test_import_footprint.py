"""What a training process loads: numpy alone, no scipy.

scipy is about 50 MB of resident memory and a third of a second of start-up,
and only matched accuracy (the assignment solver) needs it. The check runs
in a fresh interpreter, since this test process has loaded scipy already.
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
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
matched_accuracy(runs[0][1].predict(data.features), data.labels, 2)
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules}))
"""


def test_training_and_scoring_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["before"] == []
    assert seen["after"]  # matched accuracy loads the solver on its first call
