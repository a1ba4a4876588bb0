"""Stacked forwards: groups along a leading axis give each group's own bits.

``Classifier.predict_proba`` on a (G, m, d) stack must equal G separate
(m, d) calls exactly, for every architecture and head, because training
compares cached and live etas with ``==``. ``group_stacks`` must cover every
group once, keep input order within a size and respect ``STACK_CELLS``.
"""

import numpy as np
import pytest

from agglearn.models import ARCHITECTURES, HEADS, STACK_CELLS, Classifier


def make_model(arch, head, d, seed=0):
    return Classifier.create(arch, head, d=d, k=2 if head == "sigmoid" else 4, seed=seed)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("m", [2, 3, 12, 64])
def test_stacked_predict_proba_equals_per_group_calls(arch, head, m):
    rng = np.random.default_rng(m)
    model = make_model(arch, head, d=5, seed=m)
    stack = rng.normal(scale=3.0, size=(17, m, 5))
    probs = model.predict_proba(stack)
    assert probs.shape == (17, m, model.k)
    for g in range(len(stack)):
        np.testing.assert_array_equal(probs[g], model.predict_proba(stack[g].copy()))


@pytest.mark.parametrize("head", HEADS)
def test_stacked_predict_and_cumulative_follow_the_last_axis(head):
    model = make_model("mlp-300", head, d=3, seed=4)
    stack = np.random.default_rng(4).normal(size=(5, 4, 3))
    for g in range(len(stack)):
        np.testing.assert_array_equal(model.predict(stack)[g], model.predict(stack[g]))
        np.testing.assert_array_equal(model.predict_cumulative(stack)[g], model.predict_cumulative(stack[g]))


def test_stacks_of_the_wrong_width_are_refused():
    with pytest.raises(ValueError, match="dimension"):
        make_model("linear", "softmax", d=3).predict_proba(np.zeros((2, 2, 4)))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_group_stacks_cover_every_group_in_order_within_the_cell_bound(arch):
    rng = np.random.default_rng(7)
    model = make_model(arch, "softmax", d=40)
    sizes = rng.choice([2, 5, 64], size=400)
    xs = [rng.normal(size=(m, 40)) for m in sizes]
    width = max(40, 300 if arch == "mlp-300" else 0, model.k)
    seen = []
    for idx, stack in model.group_stacks(xs):
        m = sizes[idx[0]]
        assert stack.shape == (len(idx), m, 40)
        assert len(idx) == 1 or len(idx) * m * width <= STACK_CELLS
        assert idx == sorted(idx)
        for i, x in zip(idx, stack):
            assert sizes[i] == m
            np.testing.assert_array_equal(x, xs[i])
        seen.extend(idx)
    assert sorted(seen) == list(range(len(xs)))
    assert list(model.group_stacks([])) == []
