"""Bit pins for the elementwise forms on the per-group update path.

The sigmoid head's probabilities, the probability clamp and the bag kernel
are written without numpy's reduction and wrapper calls; each must equal the
form it replaced in every bit, compared through the uint64 view.
"""

import numpy as np
import pytest

from agglearn.models import Classifier, softmax
from agglearn.posteriors import PROB_EPS, _clamp_probs, mil_event

EDGE_LOGITS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 36.7, -36.7,
               710.0, -710.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def sigmoid_reference(f):
    """The softmax over (0, f) that the sigmoid head used to compute."""
    return softmax(np.concatenate([np.zeros_like(f), f], axis=-1))


def random_logits(rng, shape):
    """Logits over many magnitudes, both signs."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 3, size=shape)


@pytest.mark.parametrize("shape", [(len(EDGE_LOGITS), 1), (4, len(EDGE_LOGITS), 1)])
def test_sigmoid_probabilities_match_the_softmax_over_zero_and_f(shape):
    model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=0)
    rng = np.random.default_rng(0)
    f = random_logits(rng, shape)
    f[..., : len(EDGE_LOGITS), 0] = EDGE_LOGITS
    with np.errstate(invalid="ignore"):  # f = inf gives inf - inf in both forms
        assert same_bits(model.probabilities(f), sigmoid_reference(f))


@pytest.mark.parametrize("shape", [(5000, 1), (40, 64, 1)])
def test_sigmoid_probabilities_match_on_random_logits(shape):
    model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=0)
    f = random_logits(np.random.default_rng(1), shape)
    assert same_bits(model.probabilities(f), sigmoid_reference(f))


def test_clamp_matches_np_clip_at_inside_and_beyond_both_bounds():
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), np.nextafter(hi, 0.0), np.nextafter(hi, 1.0),
             0.0, -0.0, 1.0, 5e-324, 1e-300, 0.5, 0.25, -1.0, 2.0, -np.inf, np.inf]
    eta = np.concatenate([edges, np.random.default_rng(2).uniform(-0.5, 1.5, size=1000)])
    for arr in (eta, eta.reshape(-1, 1), eta.reshape(1017 // 3, 3)):
        assert same_bits(_clamp_probs(arr), np.clip(arr, lo, hi))
    assert same_bits(_clamp_probs(edges), np.clip(np.asarray(edges), lo, hi))  # a list goes through asarray


def old_mil_event(etas):
    """The bag kernel as it was: np.prod, zeros_like and expand_dims."""
    pz = np.prod(etas[..., 0], axis=-1)
    joint = np.zeros_like(etas)
    joint[..., 0] = np.expand_dims(pz, -1)
    return etas, pz, joint


@pytest.mark.parametrize("m", [2, 3, 64])
def test_mil_event_gives_one_bag_the_bits_it_has_inside_a_stack(m):
    rng = np.random.default_rng(m)
    pos = rng.uniform(size=(5, m)) ** 4  # mostly negative instances, as in sparse bags
    stack = _clamp_probs(np.stack([1.0 - pos, pos], axis=-1))
    _, pz_stack, joint_stack = mil_event(stack)
    _, pz_old, joint_old = old_mil_event(stack)
    assert same_bits(pz_stack, pz_old) and same_bits(joint_stack, joint_old)
    for g, bag in enumerate(stack):
        marginals, pz, joint = mil_event(bag)
        assert marginals is bag
        _, pz_old, joint_old = old_mil_event(bag)
        assert same_bits(pz, pz_stack[g]) and same_bits(joint, joint_stack[g])
        assert same_bits(pz, pz_old) and same_bits(joint, joint_old)
