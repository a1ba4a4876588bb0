"""One test per rule that a one-line change of its constant or clause got past
the rest of the suite: each fails when the rule is dropped or moved.

* ``train()`` clamps the validation split so one training group is left;
* ``em_lower_bound`` refuses a negative responsibility;
* ``_check_cumulative`` allows a dip of 1e-9, not more;
* ``group_posterior`` allows a probability row to miss 1 by 1e-6, not more;
* ``enumerate_z`` refuses more than ``MAX_COMPOSITIONS`` = 10^6 count vectors.
"""

import time

import numpy as np
import pytest

from agglearn.data import GroupObservation
from agglearn.losses import em_lower_bound
from agglearn.models import Classifier
from agglearn.posteriors import group_posterior, posterior_rank
from agglearn.tasks import Task, consistent_tuples, count_compositions, enumerate_z
from agglearn.training import TrainConfig, train


def test_n_val_clamp_leaves_one_training_group():
    task = Task("pairwise", 2, 3)
    xs = np.random.default_rng(0).normal(size=(2, 2, 2))
    observations = [GroupObservation(x, z, "pairwise") for x, z in zip(xs, [1, 0])]
    model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
    # round(0.9 * 2) = 2 groups would leave none to train on
    result = train(observations, task, model, TrainConfig(epochs=1, val_fraction=0.9))
    assert result.confidence.shape == (1, 2, 3)
    assert len(result.metrics) == 1 and np.isfinite(result.metrics[0].val_metric)


def test_em_lower_bound_refuses_a_negative_omega_entry():
    task = Task("pairwise", 2, 3)
    model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
    xs = np.random.default_rng(1).normal(size=(2, 2))
    omega = np.zeros(len(consistent_tuples(task, 1)))
    omega[:3] = [0.7, 0.4, -0.1]  # sums to 1
    with pytest.raises(ValueError, match="omega must be a distribution"):
        em_lower_bound(task, xs, 1, omega, model)
    omega[:3] = [0.6, 0.4, 0.0]
    assert np.isfinite(em_lower_bound(task, xs, 1, omega, model))


def test_check_cumulative_monotonicity_tolerance_is_1e_9():
    flat = np.array([0.0, 0.5, 0.5, 1.0])
    posterior_rank(flat, flat + [0.0, 0.0, -1e-10, 0.0], 1)  # a dip within 1e-9 passes
    with pytest.raises(ValueError, match="nondecreasing"):
        posterior_rank(flat, flat + [0.0, 0.0, -1e-6, 0.0], 1)


def test_group_posterior_row_sum_tolerance_is_1e_6():
    task = Task("pairwise", 2, 3)
    etas = np.full((2, 3), 1.0 / 3.0)
    group_posterior(task, etas + [[5e-8, 0.0, 0.0], [0.0, 0.0, 0.0]], 1)
    with pytest.raises(ValueError, match="sum to 1"):
        group_posterior(task, etas + [[1e-4, 0.0, 0.0], [0.0, 0.0, 0.0]], 1)


def test_max_compositions_refuses_a_count_just_above_10_6_quickly():
    assert count_compositions(180, 4) == 1_004_731  # the smallest count above 10^6 at k = 4
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1004731 count vectors, above the 1000000 enumeration bound"):
        enumerate_z(Task("llp", 180, 4))
    assert time.perf_counter() - start < 0.5
