"""The label-proportion kernel on bags past the oracle's usual reach.

At k=2 the enumeration oracle still covers m=16, so the kernel is checked
against it there, near-0/1 probabilities included. At k=10 no oracle is
in reach, so bags of 12 and 16 are checked against what every exact
posterior satisfies: each instance's joint row sums to pz, each class
column sums to z_j * pz, and permuting the instances permutes the rows
and leaves pz alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.posteriors import brute_force_posterior, posterior_llp
from agglearn.tasks import Task
from agglearn.verify import ORACLE_TOL

PROPERTY_TOL = 1e-12

# per-class masses before row normalization, near-0/1 entries included
MASSES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-13, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(1e-6, 1.0))

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def bags(draw, m, k):
    etas = np.array([draw(st.lists(MASSES, min_size=k, max_size=k)) for _ in range(m)])
    etas[etas.sum(axis=1) == 0.0, 0] = 1.0
    labels = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    return etas / etas.sum(axis=1, keepdims=True), tuple(np.bincount(labels, minlength=k).tolist())


@PROPERTY
@given(bag=bags(16, 2))
def test_two_classes_at_m16_match_the_oracle(bag):
    etas, z = bag
    closed = posterior_llp(etas, z)
    brute = brute_force_posterior(Task("llp", 16, 2), etas, z)
    assert abs(closed.pz - brute.pz) <= ORACLE_TOL
    assert np.max(np.abs(closed.joint - brute.joint)) <= ORACLE_TOL


# seeded draws rather than hypothesis: shrinking a failing k=10 bag ran for minutes
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [12, 16])
def test_ten_classes_marginalize_and_ignore_instance_order(m, seed):
    rng = np.random.default_rng(seed)
    etas = rng.dirichlet(np.full(10, 0.3), size=m)  # spread from near 0 to near 1
    z = tuple(np.bincount(rng.integers(0, 10, size=m), minlength=10).tolist())
    perm = rng.permutation(m)
    post = posterior_llp(etas, z)
    tol = PROPERTY_TOL * post.pz
    assert post.pz > 0.0
    assert np.max(np.abs(post.joint.sum(axis=1) - post.pz)) <= tol
    assert np.max(np.abs(post.joint.sum(axis=0) - np.array(z) * post.pz)) <= tol
    permuted = posterior_llp(etas[perm], z)
    assert abs(permuted.pz - post.pz) <= tol
    assert np.max(np.abs(permuted.joint - post.joint[perm])) <= tol
