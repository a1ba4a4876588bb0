"""Every registered kind's p(z)-only kernel against its full posterior.

``TaskSpec.pz`` scores G stacked groups at once; each entry must equal
``group_posterior(...).pz`` for that group bit for bit, since the per-epoch
likelihood is compared with ``==``. Probabilities include exact zeros and
ones and near-0/1 entries. A kind added to ``TASKS`` is covered without
edits here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.posteriors import group_posterior
from agglearn.tasks import TASKS, Task, aggregate_label

MASSES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-15, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(1e-6, 1.0))

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def stacks(draw, kind):
    spec = TASKS[kind]
    m = spec.m or draw(st.integers(2, 6))
    k = spec.k or draw(st.integers(spec.min_k, 10))
    task = Task(kind, m, k)
    n_groups = draw(st.integers(1, 5))
    masses = np.array(draw(st.lists(MASSES, min_size=n_groups * m * k, max_size=n_groups * m * k)))
    etas = masses.reshape(n_groups, m, k)
    etas[..., 0][etas.sum(axis=-1) == 0.0] = 1.0
    etas = etas / etas.sum(axis=-1, keepdims=True)
    if spec.counts:
        labels = st.lists(st.sampled_from(task.label_values), min_size=m, max_size=m)
        zs = [aggregate_label(task, draw(labels)) for _ in range(n_groups)]
    else:
        zs = draw(st.lists(st.integers(0, 1), min_size=n_groups, max_size=n_groups))
    return task, etas, zs


@pytest.mark.parametrize("kind", sorted(TASKS))
@PROPERTY
@given(data=st.data())
def test_stacked_pz_equals_the_posterior_pz(kind, data):
    task, etas, zs = data.draw(stacks(kind))
    pz = task.spec.kernel(etas, zs, joint=False)[0]
    assert pz.shape == (len(zs),)
    for g, z in enumerate(zs):
        assert pz[g] == group_posterior(task, etas[g].copy(), z).pz
