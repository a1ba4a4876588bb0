"""Each kind's one stacked kernel: a group's bits do not depend on its stack.

``TaskSpec.kernel(etas (G, m, k), zs, joint=True)`` is the only closed form a
kind declares; ``group_posterior`` runs it on a stack of one. Every group of a
stack must give its stack-of-one pz and joint bit for bit, a stack mixing
labels must match the enumeration oracle group by group, and ``joint=False``
must return p(z) alone. A kind added to ``TASKS`` is covered without edits here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stacked_pz import stacks

from agglearn.posteriors import brute_force_posterior, group_posterior, indicator, one_group
from agglearn.tasks import TASKS, TaskSpec

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
ORACLE = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def mixed(task, etas, zs):
    """The stack twice over, the second copy with other labels: 1 - z for a bit, the labels reversed for counts."""
    other = list(zs[::-1]) if task.spec.counts else [1 - z for z in zs]
    return task, np.concatenate([etas, etas]), list(zs) + other


def test_each_kind_declares_one_kernel_and_no_other_closed_form():
    names = {f.name for f in dataclasses.fields(TaskSpec)}
    assert "kernel" in names and not names & {"posterior", "pz"}
    assert all(callable(spec.kernel) for spec in TASKS.values())


@pytest.mark.parametrize("kind", sorted(TASKS))
@PROPERTY
@given(data=st.data())
def test_each_group_of_a_stack_gives_its_stack_of_one_bits(kind, data):
    task, etas, zs = mixed(*data.draw(stacks(kind)))
    pz, joint = task.spec.kernel(etas, zs)
    assert pz.shape == (len(zs),) and joint.shape == etas.shape
    for g, z in enumerate(zs):
        one = group_posterior(task, etas[g].copy(), z)
        assert pz[g] == one.pz
        assert joint[g].tobytes() == one.joint.tobytes()


@pytest.mark.parametrize("kind", sorted(TASKS))
@ORACLE
@given(data=st.data())
def test_a_mixed_stack_matches_the_oracle_group_by_group(kind, data):
    task, etas, zs = mixed(*data.draw(stacks(kind)))
    pz, joint = task.spec.kernel(etas, zs)
    for g, z in enumerate(zs):
        brute = brute_force_posterior(task, etas[g], z)
        assert abs(pz[g] - brute.pz) <= 1e-9
        np.testing.assert_allclose(joint[g], brute.joint, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("kind", sorted(TASKS))
@PROPERTY
@given(data=st.data())
def test_joint_false_returns_the_same_pz_and_no_joint(kind, data):
    task, etas, zs = mixed(*data.draw(stacks(kind)))
    pz, joint = task.spec.kernel(etas, zs, joint=False)
    assert joint is None
    assert pz.tobytes() == task.spec.kernel(etas, zs)[0].tobytes()


def noisy_event(rows, joint):
    """z = 1 with one joint entry cancelled below zero and one a rounding step above its marginal."""
    noisy = rows.copy()
    noisy[..., 0, 0] = np.nextafter(rows[..., 0, 0], 2.0)
    noisy[..., 1, 0] = -1e-18
    return rows, rows[..., 0, 0], noisy if joint else None


@pytest.mark.parametrize("zs", [[1], [0], [1, 0], [0, 1], [0, 0]])
def test_indicator_clamps_the_joint_at_zero_on_both_sides(zs):
    etas = np.full((len(zs), 2, 2), 0.5)
    pz, joint = indicator(noisy_event, 1)(etas, zs)
    assert pz.tolist() == [0.5] * len(zs)
    assert joint.min() == 0.0
    for g, z in enumerate(zs):
        assert joint[g, 1 if z else 0, 0] == 0.0


def test_the_stack_of_one_view_returns_its_group():
    kernel = TASKS["triplet"].kernel
    etas = np.random.default_rng(5).dirichlet(np.ones(4), size=3)
    post = one_group(kernel, etas, 0)
    pz, joint = kernel(etas[None], [0])
    assert post.joint.shape == (3, 4)
    assert post.pz == pz[0] and post.joint.tobytes() == joint[0].tobytes()


def test_the_llp_kernel_refuses_a_stack_and_labels_of_different_lengths():
    etas = np.full((3, 2, 2), 0.5)
    with pytest.raises(ValueError, match="zip"):
        TASKS["llp"].kernel(etas, [(1, 1), (2, 0)])
