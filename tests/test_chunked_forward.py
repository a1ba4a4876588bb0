"""Chunked no-gradient forwards: bounded memory, the same bits per group.

``Classifier.forward`` (and so ``predict``, ``predict_proba`` and
``predict_cumulative``) runs its rows (axis -2) in chunks of
``chunk_rows()`` = STACK_CELLS // widest activation, one ``forward_cached``
call each, written into one output. An input at the bound takes a single
call, as every training forward does; above it, a stack's group g still
gets the bits of x[g] alone, and peak memory no longer grows with an
n x 300 hidden layer.
"""

import tracemalloc

import numpy as np
import pytest

from agglearn.models import ARCHITECTURES, HEADS, STACK_CELLS, Classifier


def make_model(arch, head, d, seed=0):
    return Classifier.create(arch, head, d=d, k=2 if head == "sigmoid" else 4, seed=seed)


def count_forward_calls(model):
    """Wrap the instance's ``forward_cached``; the list collects each call's input shape."""
    shapes = []
    original = model.forward_cached

    def counted(x):
        shapes.append(np.shape(x))
        return original(x)

    model.forward_cached = counted
    return shapes


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_chunk_rows_is_the_cell_bound_over_the_widest_activation(arch):
    model = make_model(arch, "softmax", d=40)
    width = max(40, 300 if arch == "mlp-300" else 0, model.k)
    assert model.chunk_rows() == STACK_CELLS // width
    assert Classifier.create(arch, "softmax", d=STACK_CELLS + 1, k=2).chunk_rows() == 1


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("head", HEADS)
def test_stack_above_the_bound_equals_its_groups(arch, head):
    model = make_model(arch, head, d=40, seed=3)
    bound = model.chunk_rows()
    stack = np.random.default_rng(3).normal(scale=2.0, size=(3, 3 * bound + 5, 40))
    probs, labels, cums = model.predict_proba(stack), model.predict(stack), model.predict_cumulative(stack)
    assert probs.shape == (3, 3 * bound + 5, model.k)
    for g in range(len(stack)):
        group = stack[g].copy()
        np.testing.assert_array_equal(probs[g], model.predict_proba(group))
        np.testing.assert_array_equal(labels[g], model.predict(group))
        np.testing.assert_array_equal(cums[g], model.predict_cumulative(group))


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("head", HEADS)
def test_rows_above_the_bound_equal_their_chunks_called_alone(arch, head):
    model = make_model(arch, head, d=40, seed=5)
    bound = model.chunk_rows()
    x = np.random.default_rng(5).normal(size=(2 * bound + 7, 40))
    chunks = [x[lo : lo + bound].copy() for lo in range(0, len(x), bound)]
    np.testing.assert_array_equal(model.forward(x), np.concatenate([model.forward(c) for c in chunks]))
    np.testing.assert_array_equal(model.predict_proba(x), np.concatenate([model.predict_proba(c) for c in chunks]))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_an_input_at_the_bound_is_one_forward_cached_call(arch):
    model = make_model(arch, "softmax", d=40)
    bound = model.chunk_rows()
    shapes = count_forward_calls(model)
    model.predict_proba(np.zeros((bound, 40)))
    model.predict_proba(np.zeros((5, bound, 40)))
    model.predict(np.zeros(40))
    assert shapes == [(bound, 40), (5, bound, 40), (40,)]
    shapes.clear()
    model.predict_proba(np.zeros((bound + 1, 40)))
    model.predict_proba(np.zeros((2, 2 * bound + 1, 40)))
    assert shapes == [(bound, 40), (1, 40), (2, bound, 40), (2, bound, 40), (2, 1, 40)]


def test_wrong_width_above_the_bound_is_refused():
    model = make_model("mlp-300", "softmax", d=3)
    with pytest.raises(ValueError, match="input dimension 4 != model dimension 3"):
        model.predict_proba(np.zeros((model.chunk_rows() + 1, 4)))


def test_mlp_predict_proba_memory_does_not_grow_with_a_hidden_layer_per_row():
    # one (50,000, 300) float64 hidden layer alone is 120 MB
    model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=1)
    x = np.random.default_rng(1).normal(size=(50_000, 2))
    model.predict_proba(x[:10])
    tracemalloc.start()
    try:
        probs = model.predict_proba(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (50_000, 3)
    assert peak < 8 * 2**20
