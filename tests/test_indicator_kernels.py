"""The 0/1-label kernels at class counts up to the oracle's reach.

Every kind whose aggregate label is a single bit is drawn with k (or, for
bags, m) as large as the enumeration oracle allows, so the ordinal band
clamping is exercised at radii well past 4. Both labels are checked
against the oracle, and the two events are checked to split each
instance's marginal and the unit mass between them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.posteriors import PROB_EPS, brute_force_posterior, cumulative_rows, group_posterior
from agglearn.tasks import TASKS, Task
from agglearn.verify import ORACLE_TOL

# label spaces up to this size keep the oracle at a few milliseconds
MAX_LABEL_SPACE = 4096
COMPLEMENT_TOL = 1e-12

INDICATOR_KINDS = [kind for kind, spec in TASKS.items() if not spec.counts]

# per-class masses before row normalization, near-0/1 entries included
MASSES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-13, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(1e-6, 1.0))

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def largest(low, space):
    """The largest n >= low with space(n) labelings within the oracle's reach."""
    while space(low + 1) <= MAX_LABEL_SPACE:
        low += 1
    return low


def kernel_marginals(task, etas):
    """The clamped rows a kernel works from; the ordinal kinds read theirs
    back from the cumulative vectors they are given."""
    if task.spec.head == "cumulative":
        return np.diff(cumulative_rows(etas), axis=1)
    return np.clip(etas, PROB_EPS, 1.0 - PROB_EPS)


@st.composite
def groups(draw, kind):
    spec = TASKS[kind]
    if spec.m is None:
        m = draw(st.integers(2, largest(2, lambda n: spec.k**n)))
        k = spec.k
    else:
        m = spec.m
        k = spec.k or draw(st.integers(spec.min_k, largest(spec.min_k, lambda n: n**m)))
    task = Task(kind, m, k)
    etas = np.array([draw(st.lists(MASSES, min_size=k, max_size=k)) for _ in range(m)])
    etas[etas.sum(axis=1) == 0.0, 0] = 1.0
    return task, etas / etas.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", INDICATOR_KINDS)
@PROPERTY
@given(data=st.data())
def test_both_labels_match_the_oracle_and_split_the_marginals(kind, data):
    task, etas = data.draw(groups(kind))
    posts = [group_posterior(task, etas, z) for z in (0, 1)]
    for z, closed in enumerate(posts):
        brute = brute_force_posterior(task, etas, z)
        assert abs(closed.pz - brute.pz) <= ORACLE_TOL
        assert np.max(np.abs(closed.joint - brute.joint)) <= ORACLE_TOL
    assert abs(posts[0].pz + posts[1].pz - 1.0) <= COMPLEMENT_TOL
    assert np.max(np.abs(posts[0].joint + posts[1].joint - kernel_marginals(task, etas))) <= COMPLEMENT_TOL
