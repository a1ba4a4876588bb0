"""One check of observations against a task and a model width, shared by
``train``, ``observed_likelihood`` and ``agglearn train``; one rule each for
0/1 and count labels, shared by the registry and the kernels."""

import numpy as np
import pytest

from agglearn.data import GroupObservation, check_observations
from agglearn.models import Classifier
from agglearn.posteriors import parse_bit, parse_counts, posterior_llp, posterior_pairwise
from agglearn.tasks import TASKS, Task
from agglearn.training import TrainConfig, observed_likelihood, train


def groups(kind, n, m, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return [GroupObservation(rng.normal(size=(m, d)), int(rng.integers(2)), kind) for _ in range(n)]


def test_a_width_mismatch_is_refused_before_the_first_update():
    observations = groups("pairwise", 300, 2)
    observations[200] = GroupObservation(np.ones((2, 3)), 1, "pairwise")
    model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
    before = model.copy_parameters()
    with pytest.raises(ValueError, match="observation 200 has 3 features, the model takes 2"):
        train(observations, Task("pairwise", 2, 3), model, TrainConfig(epochs=1, batch_size=16))
    assert all(np.array_equal(a, b) for a, b in zip(model.copy_parameters(), before))


def test_observed_likelihood_refuses_another_kind():
    model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
    with pytest.raises(ValueError, match="observation 0 is for task 'rank', not 'pairwise'"):
        observed_likelihood(Task("pairwise", 2, 3), groups("rank", 3, 2), model)


def test_the_check_returns_the_parsed_labels():
    observations = [GroupObservation(np.zeros((3, 2)), [np.int64(2), 1], "llp"),
                    GroupObservation(np.zeros((2, 2)), (0, 2), "llp")]
    assert check_observations(observations, Task("llp", 3, 2), 2) == [(2, 1), (0, 2)]


@pytest.mark.parametrize("z, k, message", [
    ((2, 2, 1), 3, "counts sum to 5"),
    ((3, -1, 4), 3, "counts sum to 6"),
    ((2, 2, 1, 1), 3, "expected k=3"),
    ((2.0, 4), 2, "not a sequence of integer counts"),
    (6, 2, "not a sequence of integer counts"),
])
def test_the_count_rule_speaks_the_same_in_every_caller(z, k, message):
    etas = np.full((6, k), 1.0 / k)
    for call in (lambda: parse_counts(z, 6, k), lambda: TASKS["llp"].parse_z(z, 6, k),
                 lambda: posterior_llp(etas, z)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("z", [2, -1, 0.5, "1"])
def test_the_bit_rule_speaks_the_same_in_every_caller(z):
    for call in (lambda: parse_bit(z), lambda: TASKS["rank"].parse_z(z, 2),
                 lambda: posterior_pairwise([0.5, 0.5], [0.5, 0.5], z)):
        with pytest.raises(ValueError, match=f"aggregate label {z!r} must be 0 or 1"):
            call()
