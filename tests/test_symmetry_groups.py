"""Each kind is scored under its own label symmetry group.

A relabelling of the classes that leaves g unchanged on every label tuple cannot
be told apart by the supervision, so ``TaskSpec.symmetry`` declares that group:
every permutation for pairwise and triplet, the reversal y -> k + 1 - y for
ordinal_triplet, the identity for llp, mil and rank. ``agglearn eval`` fits the
matching within the group: a reversed ordinal_triplet model is read back in
order, and a scramble outside the group stays scrambled.
"""

import itertools
import json

import numpy as np
import pytest

from agglearn.cli import main
from agglearn.evaluation import fit_matching
from agglearn.models import Classifier
from agglearn.tasks import TASKS, Task, aggregate_label

CASES = [(kind, k) for kind, spec in sorted(TASKS.items()) for k in ([spec.k] if spec.k else [2, 3, 4])]


@pytest.mark.parametrize("kind, k", CASES)
def test_the_declared_group_is_every_permutation_that_keeps_g(kind, k):
    task = Task(kind, TASKS[kind].m or 3, k)
    values = task.label_values
    tuples = list(itertools.product(values, repeat=task.m))
    labels = [aggregate_label(task, ys) for ys in tuples]
    keeps = {perm for perm in itertools.permutations(range(k))
             if all(aggregate_label(task, [values[perm[values.index(y)]] for y in ys]) == z
                    for ys, z in zip(tuples, labels))}
    identity, reversal = tuple(range(k)), tuple(range(k - 1, -1, -1))
    declared = {"identity": {identity}, "reversal": {identity, reversal},
                "all": set(itertools.permutations(range(k)))}[TASKS[kind].symmetry]
    assert keeps == declared


def test_a_tie_between_the_identity_and_the_reversal_goes_to_the_identity():
    # identity: 3 -> 3 right, 1 -> 1 wrong; reversal: 3 -> 1 wrong, 1 -> 3 right
    assert fit_matching([3, 1], [3, 3], 3, "reversal").tolist() == [0, 1, 2]
    assert fit_matching([1, 1], [3, 3], 3, "reversal").tolist() == [2, 1, 0]
    assert fit_matching([3, 1], [3, 3], 3, "identity").tolist() == [0, 1, 2]


@pytest.fixture()
def splits(tmp_path):
    for name, seed in (("test", 4), ("fit", 5)):
        assert main(["synth", "--k", "3", "--d", "2", "--n", "300", "--seed", str(seed),
                     "--out-dir", str(tmp_path), "--name", name]) == 0
    return tmp_path


def report(tmp_path, scramble, *flags):
    """eval's ordinal_triplet report of a nearest-mean model whose output unit j scores class scramble[j] + 1,
    or eval's exit code when it is not 0."""
    means = np.array(json.loads((tmp_path / "test.csv.meta.json").read_text())["spec"]["means"])
    model = Classifier("linear", "cumulative", d=2, k=3, layers=[(means.T[:, scramble], np.zeros(3))])
    name = "m" + "".join(map(str, scramble))
    ckpt = tmp_path / f"{name}.checkpoint.json"
    model.save(ckpt, extra={"task": "ordinal_triplet", "label_names": ["1", "2", "3"]})
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "test.csv"), *flags,
                 "--task", "ordinal_triplet", "--out-dir", str(tmp_path), "--name", name])
    return json.loads((tmp_path / f"{name}.json").read_text()) if code == 0 else code


def test_a_reversed_ordinal_triplet_model_is_matched_by_the_reversal(splits):
    ordered = report(splits, [0, 1, 2], "--fit-data", str(splits / "fit.csv"))
    reversed_ = report(splits, [2, 1, 0], "--fit-data", str(splits / "fit.csv"))
    assert ordered["permutation"] == [0, 1, 2] and ordered["modified_accuracy"] > 0.9
    assert reversed_["accuracy"] < 0.5
    assert reversed_["permutation"] == [2, 1, 0]
    assert reversed_["modified_accuracy"] == ordered["modified_accuracy"]


def test_a_scramble_outside_the_group_stays_scrambled(splits):
    # swapping classes 1 and 2 keeps class 3 right; the reversal would get every class wrong
    scrambled = report(splits, [1, 0, 2], "--fit-on-test")
    assert scrambled["accuracy"] < 0.5
    assert scrambled["permutation"] == [0, 1, 2]
    assert scrambled["modified_accuracy"] == scrambled["accuracy"]


def test_ordinal_triplet_asks_where_to_fit_the_matching(splits, capsys):
    assert report(splits, [2, 1, 0]) == 1
    assert "--fit-data" in capsys.readouterr().err
