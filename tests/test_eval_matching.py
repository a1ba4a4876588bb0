"""`eval` scores identifiable tasks under the identity class matching.

Count, bag and order labels pin down which output unit is which class, so
a model with scrambled output units must score as scrambled: no class
permutation may be fitted on the test split for those tasks.
"""

import json

import numpy as np

from agglearn.cli import main
from agglearn.models import Classifier

# output unit j scores class SCRAMBLE[j] + 1
SCRAMBLE = [1, 2, 0]


def test_scrambled_llp_checkpoint_is_not_unscrambled_on_the_test_split(tmp_path):
    assert main(["synth", "--k", "3", "--d", "2", "--n", "300", "--seed", "4",
                 "--out-dir", str(tmp_path), "--name", "test"]) == 0
    means = np.array(json.loads((tmp_path / "test.csv.meta.json").read_text())["spec"]["means"])
    # nearest-mean scores (equal norms, so no bias), output units permuted
    weight = means.T[:, SCRAMBLE]
    model = Classifier("linear", "softmax", d=2, k=3, layers=[(weight, np.zeros(3))])
    ckpt = tmp_path / "scrambled.checkpoint.json"
    model.save(ckpt, extra={"task": "llp", "label_names": ["1", "2", "3"]})

    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "test.csv"),
                 "--task", "llp", "--m", "4", "--out-dir", str(tmp_path), "--name", "report"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["accuracy"] < 0.1
    assert report["modified_accuracy"] == report["accuracy"]
    assert report["permutation"] == [0, 1, 2]
