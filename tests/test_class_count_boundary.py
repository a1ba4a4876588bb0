"""A model or probability rows with another class count than the task's are refused.

Nothing downstream checks the width: a k=5 softmax trains on a k=3 task
under warm-up without the cache, and the 0/1 kernels return a joint with
as many columns as they are given.
"""

import numpy as np
import pytest

from agglearn.data import SyntheticSpec, generate_synthetic, sample_groups
from agglearn.models import Classifier
from agglearn.posteriors import group_posterior
from agglearn.tasks import Task
from agglearn.training import TrainConfig, train


def test_train_refuses_a_model_of_another_class_count():
    task = Task("pairwise", 2, 3)
    spec = SyntheticSpec(k=3, d=2, means=[[3, 0], [-1.5, 2.6], [-1.5, -2.6]], spreads=[0.7] * 3,
                         prior=[1 / 3] * 3, seed=0)
    observations = sample_groups(generate_synthetic(spec, 40), task, m=2, n_groups=20, seed=1)
    model = Classifier.create("linear", "softmax", d=2, k=5, seed=0)
    config = TrainConfig(epochs=2, warmup=True, warmup_epochs=2, confidence_cache=False)
    with pytest.raises(ValueError, match="model has 5 classes for a task with 3"):
        train(observations, task, model, config)


@pytest.mark.parametrize("width", [2, 5])
def test_group_posterior_refuses_rows_of_another_class_count(width):
    etas = np.full((2, width), 1.0 / width)
    with pytest.raises(ValueError, match=f"got {width} classes for a task with 3"):
        group_posterior(Task("pairwise", 2, 3), etas, 1)
