"""The label-proportion kernel past 64 classes.

The count box is built over the classes a bag holds: a class of count 0 adds a
size-1 axis, which moves neither the C-order numbering nor the level order, so its
row of the ``down`` table is all sentinel. Below 64 classes the table equals one
built over every axis; past 64, where numpy cannot build that box, each instance's
joint row still sums to pz and each class column to z_j * pz.
"""

import functools
import itertools

import numpy as np
import pytest

from agglearn.data import GroupObservation
from agglearn.models import Classifier
from agglearn.posteriors import _level_order, posterior_llp
from agglearn.tasks import Task
from agglearn.training import TrainConfig, train

PROPERTY_TOL = 1e-12


def every_axis_plan(z):
    """The level order and ``down`` table built over all k axes, zero-count classes included."""
    shape = tuple(c + 1 for c in z)
    volume = int(np.prod(shape))
    level = functools.reduce(np.add.outer, [np.arange(n) for n in shape])
    order = np.argsort(level, axis=None, kind="stable")
    numbers = np.empty(shape, dtype=np.int64)
    np.put(numbers, order, np.arange(volume))
    down = []
    for axis in range(len(z)):
        lower = np.full(shape, volume)
        lower[(slice(None),) * axis + (slice(1, None),)] = numbers[(slice(None),) * axis + (slice(-1),)]
        down.append(lower.ravel()[order])
    return (0, *np.cumsum(np.bincount(level.ravel())).tolist()), np.array(down)


COUNTS = [z for k in range(1, 5) for m in range(0, 6)
          for z in itertools.product(range(m + 1), repeat=k) if sum(z) == m]


def test_the_plan_over_held_classes_equals_the_plan_over_every_class():
    for z in COUNTS:  # every count vector with k <= 4, m <= 5, the empty group included
        starts, down = _level_order(z)
        reference_starts, reference_down = every_axis_plan(z)
        assert starts == reference_starts, z
        assert np.array_equal(down, reference_down), z


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [65, 100])
def test_past_64_classes_the_joint_marginalizes(k, seed):
    rng = np.random.default_rng(seed)
    etas = rng.dirichlet(np.full(k, 0.3), size=8)
    z = np.bincount(rng.integers(0, k, size=8), minlength=k)
    post = posterior_llp(etas, z)
    tol = PROPERTY_TOL * post.pz
    assert post.pz > 0.0
    assert np.max(np.abs(post.joint.sum(axis=1) - post.pz)) <= tol
    assert np.max(np.abs(post.joint.sum(axis=0) - z * post.pz)) <= tol
    assert np.all(post.joint[:, z == 0] == 0.0)


def test_one_epoch_trains_at_65_classes():
    k, m = 65, 8
    rng = np.random.default_rng(0)
    observations = [GroupObservation(rng.normal(size=(m, 3)), np.bincount(rng.integers(0, k, m), minlength=k).tolist(),
                                     "llp") for _ in range(10)]
    result = train(observations, Task("llp", m, k), Classifier.create("linear", "softmax", d=3, k=k, seed=0),
                   TrainConfig(epochs=1, confidence_cache=False))
    assert len(result.metrics) == 1
    assert np.isfinite(result.metrics[0].train_loss)
