"""NaN features and probabilities are refused at the boundary, never trained on."""

import numpy as np
import pytest

from agglearn.data import GroupObservation
from agglearn.models import Classifier
from agglearn.posteriors import group_posterior
from agglearn.tasks import Task
from agglearn.training import TrainConfig, train


@pytest.mark.parametrize("task, etas, z", [
    (Task("pairwise", 2, 3), [[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5]], 1),
    (Task("llp", 3, 2), [[np.nan, 0.5], [0.5, 0.5], [0.5, 0.5]], (2, 1)),
])
def test_group_posterior_refuses_a_nan_row(task, etas, z):
    with pytest.raises(ValueError, match="sum to 1"):
        group_posterior(task, etas, z)


def test_train_refuses_a_nan_feature_in_any_group():
    rng = np.random.default_rng(0)
    task = Task("pairwise", 2, 3)
    groups = [(rng.normal(size=(2, 2)), int(rng.integers(2))) for _ in range(40)]
    config = TrainConfig(epochs=2, batch_size=8, val_fraction=0.25)
    # the split puts some groups in validation and the rest in training; each position is refused
    for bad in range(len(groups)):
        observations = [GroupObservation(xs.copy(), z, "pairwise") for xs, z in groups]
        observations[bad].xs[1, 0] = np.nan
        model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
        with pytest.raises(ValueError, match=f"observation {bad} has a non-finite feature"):
            train(observations, task, model, config)
