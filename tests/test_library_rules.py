"""The CLI runs the library's input rules, once per input, instead of copies of its own.

* ``SyntheticSpec`` holds the mixture's shape rule: ``means`` exactly (k, d),
  ``spreads`` and ``prior`` exactly (k,), a ragged or non-numeric value refused.
  It does not reshape a (d, k) array of means into scrambled (k, d) means.
* ``agglearn train`` checks its observations once, inside ``train()``, and names
  the observation file in the error.
"""

import numpy as np
import pytest

import agglearn.data
import agglearn.training
from agglearn.cli import main
from agglearn.data import SyntheticSpec

GOOD = {"means": np.zeros((2, 3)), "spreads": [1.0, 1.0], "prior": [0.5, 0.5]}


@pytest.mark.parametrize("key, value", [
    ("means", np.arange(6.0).reshape(3, 2)),  # (d, k), the same six numbers
    ("means", np.zeros(6)),
    ("means", [[1, 2, 3], [4, 5]]),
    ("means", [[1, 2, 3], ["a", 5, 6]]),
    ("spreads", [[1.0, 1.0]]),
    ("prior", 0.5),
])
def test_synthetic_spec_refuses_a_value_of_the_wrong_shape(key, value):
    with pytest.raises(ValueError, match=f"'{key}' must be numbers of shape"):
        SyntheticSpec(k=2, d=3, seed=0, **{**GOOD, key: value})


def test_synthetic_spec_keeps_values_of_the_right_shape():
    spec = SyntheticSpec(k=2, d=3, seed=0, **{**GOOD, "means": [[0, 1, 2], [3, 4, 5]]})
    assert spec.means.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert spec.spreads.shape == spec.prior.shape == (2,)


def test_agglearn_train_checks_its_observations_once(tmp_path, monkeypatch):
    assert main(["synth", "--k", "3", "--d", "2", "--n", "200", "--seed", "7",
                 "--out-dir", str(tmp_path), "--name", "train"]) == 0
    assert main(["aggregate", "--data", str(tmp_path / "train.csv"), "--task", "pairwise", "--k", "3",
                 "--n-groups", "40", "--seed", "8", "--out-dir", str(tmp_path), "--name", "pairs"]) == 0
    calls = []
    check = agglearn.data.check_observations
    for module in (agglearn.data, agglearn.training):
        monkeypatch.setattr(module, "check_observations", lambda *args: calls.append(args) or check(*args))
    assert main(["train", "--obs", str(tmp_path / "pairs.jsonl"), "--k", "3", "--epochs", "1",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_a_train_error_names_the_observation_file(tmp_path, capsys):
    obs = tmp_path / "pairs.jsonl"
    obs.write_text('{"xs": [[0.1, 1.2], [-0.4, 0.3]], "z": 1, "task": "pairwise"}\n' * 4)
    assert main(["train", "--obs", str(obs), "--task", "rank", "--k", "3", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {obs}: ")
