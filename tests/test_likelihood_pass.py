"""The per-epoch likelihood pass: checked once per run, p(z) alone, summed in order.

``train`` checks its observations once and hands the parsed labels to every
later pass; a direct ``observed_likelihood`` call, which brings no labels, is
still checked and names the observation at fault. The pass adds its logs left
to right, so its total is the bits of a per-group loop, which ``np.sum``'s
pairwise order is not. Every kind's p(z)-only path builds no joint and gives
the p of its full path bit for bit.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stacked_pz import stacks

import agglearn.training as training
from agglearn.data import GroupObservation
from agglearn.models import Classifier
from agglearn.posteriors import PZ_FLOOR, group_posterior
from agglearn.tasks import TASKS, Task
from agglearn.training import TrainConfig, observed_likelihood, train

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def pairwise_groups(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return [GroupObservation(rng.normal(scale=2.0, size=(2, d)), int(rng.integers(2)), "pairwise") for _ in range(n)]


def pairwise_model(d=2, seed=0):
    return Classifier.create("linear", "softmax", d=d, k=3, seed=seed)


@pytest.mark.parametrize("task, z", [(Task("pairwise", 2, 3), 1), (Task("llp", 3, 2), (2, 1))])
def test_train_checks_its_observations_once(monkeypatch, task, z):
    calls = []
    check = training.check_observations
    monkeypatch.setattr(training, "check_observations", lambda *args: calls.append(args) or check(*args))
    rng = np.random.default_rng(1)
    observations = [GroupObservation(rng.normal(size=(task.m, 2)), z, task.kind) for _ in range(40)]
    model = Classifier.create("linear", "softmax", d=2, k=task.k, seed=0)
    cfg = TrainConfig(epochs=3, warmup=True, warmup_epochs=1, batch_size=8, val_fraction=0.25)
    train(observations, task, model, cfg)
    assert len(calls) == 1


def wrong_kind(observations):
    observations[2] = GroupObservation(observations[2].xs, 1, "rank")


def wrong_width(observations):
    observations[2] = GroupObservation(np.ones((2, 3)), 1, "pairwise")


def bad_label(observations):
    observations[2] = GroupObservation(observations[2].xs, 2, "pairwise")


def nonfinite_feature(observations):
    observations[2].xs[1, 0] = np.nan


@pytest.mark.parametrize("fault, message", [
    (wrong_kind, "observation 2 is for task 'rank', not 'pairwise'"),
    (wrong_width, "observation 2 has 3 features, the model takes 2"),
    (bad_label, "observation 2: aggregate label 2 must be 0 or 1"),
    (nonfinite_feature, "observation 2 has a non-finite feature value"),
])
def test_a_direct_call_is_still_checked(fault, message):
    observations = pairwise_groups(5)
    fault(observations)
    with pytest.raises(ValueError, match=message):
        observed_likelihood(Task("pairwise", 2, 3), observations, pairwise_model())


def test_the_pass_adds_its_logs_left_to_right():
    task = Task("pairwise", 2, 3)
    observations = pairwise_groups(1500, seed=2)
    model = pairwise_model(seed=3)
    logs = [float(np.log(max(group_posterior(task, model.predict_proba(obs.xs), obs.z).pz, PZ_FLOOR)))
            for obs in observations]
    total = 0.0
    for value in logs:
        total += value
    assert np.sum(logs) != total  # pairwise order gives other bits on these groups
    assert observed_likelihood(task, observations, model) == total


def test_the_epoch_records_score_each_split_with_its_own_labels():
    task = Task("pairwise", 2, 3)
    observations = pairwise_groups(60, seed=4)
    model = pairwise_model(seed=5)
    cfg = TrainConfig(epochs=1, warmup=True, warmup_epochs=1, batch_size=8, seed=7, val_fraction=0.5)
    record = train(observations, task, model, cfg).metrics[0]
    order = np.random.Generator(np.random.Philox(np.random.SeedSequence(7).spawn(2)[0])).permutation(60)
    held_out, kept = [observations[i] for i in order[:30]], [observations[i] for i in order[30:]]
    assert record.val_metric == observed_likelihood(task, held_out, model) / 30
    assert record.likelihood == observed_likelihood(task, kept, model)


@pytest.mark.parametrize("kind", sorted(TASKS))
@PROPERTY
@given(data=st.data())
def test_p_alone_builds_no_joint_and_keeps_its_bits(kind, data):
    task, etas, zs = data.draw(stacks(kind))
    closure = inspect.getclosurevars(task.spec.kernel).nonlocals
    if "event" in closure:  # a 0/1 kind: its one event on the kernel's rows
        rows = closure["rows"](etas)
        marginals, p, joint = closure["event"](rows, True)
        marginals_alone, p_alone, none = closure["event"](rows, False)
        assert joint.shape == etas.shape and marginals_alone.tobytes() == marginals.tobytes()
    else:
        p, joint = task.spec.kernel(etas, zs)
        p_alone, none = task.spec.kernel(etas, zs, joint=False)
        assert joint.shape == etas.shape
    assert none is None
    assert p_alone.tobytes() == p.tobytes()
