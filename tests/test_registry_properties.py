"""Property tests over every registered task kind.

Each kind in ``TASKS`` is drawn with a random group size and class count
inside the enumeration oracle's reach and probabilities that include
near-0/1 entries. A kind added to the registry is covered without edits
here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.losses import compute_weights
from agglearn.posteriors import brute_force_posterior, group_posterior
from agglearn.tasks import TASKS, Task, aggregate_label, enumerate_z
from agglearn.verify import ORACLE_TOL

# label spaces up to this size keep the oracle at a few milliseconds
MAX_LABEL_SPACE = 4096

# per-class masses before row normalization: exact zeros and ones (clamped
# by the kernels), extremes, and ordinary values
MASSES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-15, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(1e-6, 1.0))

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def tasks(draw, kind):
    spec = TASKS[kind]
    k = spec.k or draw(st.integers(spec.min_k, 5))
    max_m = max(2, int(math.log(MAX_LABEL_SPACE, k))) if k > 1 else 12
    m = spec.m or draw(st.integers(2, min(max_m, 12)))
    return Task(kind, m, k)


@st.composite
def probabilities(draw, task):
    etas = np.array([draw(st.lists(MASSES, min_size=task.k, max_size=task.k)) for _ in range(task.m)])
    etas[etas.sum(axis=1) == 0.0, 0] = 1.0
    return etas / etas.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", list(TASKS))
@PROPERTY
@given(data=st.data())
def test_closed_form_matches_the_oracle(kind, data):
    task = data.draw(tasks(kind))
    etas = data.draw(probabilities(task))
    z = data.draw(st.sampled_from(enumerate_z(task)))
    closed = group_posterior(task, etas, z)
    brute = brute_force_posterior(task, etas, z)
    assert abs(closed.pz - brute.pz) <= ORACLE_TOL
    assert np.max(np.abs(closed.joint - brute.joint)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", list(TASKS))
@PROPERTY
@given(data=st.data())
def test_aggregate_label_agrees_with_the_oracle_mask(kind, data):
    task = data.draw(tasks(kind))
    labels = data.draw(st.lists(st.sampled_from(task.label_values), min_size=task.m, max_size=task.m))
    z = aggregate_label(task, labels)
    index = tuple(task.label_values.index(y) for y in labels)
    for other in enumerate_z(task):
        assert task.consistency_mask(other)[index] == (other == z)


@pytest.mark.parametrize("kind", list(TASKS))
@PROPERTY
@given(data=st.data())
def test_weights_are_the_oracle_joint_over_pz(kind, data):
    # however small p(z) is, a label the model can explain gets the posterior weights
    task = data.draw(tasks(kind))
    etas = data.draw(probabilities(task))
    z = data.draw(st.sampled_from(enumerate_z(task)))
    brute = brute_force_posterior(task, etas, z)
    if brute.pz > 0.0:
        closed = group_posterior(task, etas, z)
        weights = compute_weights(closed)
        # normalizing adds no error of its own: the only slack is the kernel's rounding in
        # the joint, which the complement rule (1 - p, marginals - joint) magnifies by 1/pz
        kernel = np.max(np.abs(closed.joint - brute.joint)) / brute.pz
        assert np.max(np.abs(weights - brute.joint / brute.pz)) <= 1e-9 + 2 * (task.k + 1) * kernel
