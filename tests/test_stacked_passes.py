"""The no-gradient passes over stacked groups against per-group loops.

``observed_likelihood`` and ``group_accuracy_mil`` score equal-size groups
through stacked forwards and the task's p(z)-only kernel. Each must give
exactly what a loop over single groups and ``group_posterior`` gives,
including ragged bags, which are stacked by size, and enough groups to
span several stacking chunks.
"""

import numpy as np
import pytest

from agglearn.data import GroupObservation
from agglearn.evaluation import group_accuracy_mil
from agglearn.models import Classifier
from agglearn.posteriors import PZ_FLOOR, group_posterior
from agglearn.tasks import TASKS, Task, aggregate_label
from agglearn.training import observed_likelihood

D = 3


def reference_likelihood(task, observations, model):
    total = 0.0
    for obs in observations:
        post = group_posterior(task, model.predict_proba(obs.xs), obs.z)
        total += float(np.log(max(post.pz, PZ_FLOOR)))
    return total


def draw_observations(task, sizes, seed):
    rng = np.random.default_rng(seed)
    out = []
    for m in sizes:
        sized = Task(task.kind, m, task.k)
        z = aggregate_label(sized, rng.choice(sized.label_values, size=m))
        out.append(GroupObservation(xs=rng.normal(scale=2.0, size=(m, D)), z=z, task_kind=task.kind))
    return out


def model_for(task, seed=3):
    spec = task.spec
    return Classifier.create(spec.arch, spec.head, d=D, k=task.k, seed=seed)


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_observed_likelihood_equals_a_per_group_loop(kind):
    spec = TASKS[kind]
    task = Task(kind, spec.m or 4, spec.k or 3)
    # 300 mlp-300 groups of 2 to 4 span several chunks of STACK_CELLS cells
    observations = draw_observations(task, [task.m] * 300, seed=len(kind))
    model = model_for(task)
    assert observed_likelihood(task, observations, model) == reference_likelihood(task, observations, model)


@pytest.mark.parametrize("kind", [kind for kind, spec in TASKS.items() if spec.m is None])
def test_ragged_groups_are_stacked_by_size(kind):
    task = Task(kind, 4, TASKS[kind].k or 3)
    sizes = np.random.default_rng(5).choice([2, 3, 7, 64], size=120)
    observations = draw_observations(task, sizes, seed=6)
    model = model_for(task)
    assert observed_likelihood(task, observations, model) == reference_likelihood(task, observations, model)


def test_empty_input_has_zero_likelihood():
    task = Task("pairwise", 2, 3)
    assert observed_likelihood(task, [], model_for(task)) == 0.0


@pytest.mark.parametrize("rule", ["posterior", "any_instance"])
def test_bag_verdicts_match_a_per_bag_loop(rule):
    task = Task("mil", 4, 2)
    sizes = np.random.default_rng(8).choice([2, 5, 64], size=200)
    observations = draw_observations(task, sizes, seed=9)
    model = model_for(task, seed=4)
    hits = 0
    for obs in observations:
        if rule == "posterior":
            z_hat = int(group_posterior(task, model.predict_proba(obs.xs), 1).pz >= 0.5)
        else:
            z_hat = int(np.any(model.predict(obs.xs) == 1))
        hits += int(z_hat == obs.z)
    assert group_accuracy_mil(model, observations, rule=rule) == hits / len(observations)


def test_groups_of_the_wrong_size_are_refused():
    task = Task("pairwise", 2, 3)
    observations = draw_observations(Task("triplet", 3, 3), [3] * 4, seed=10)
    observations = [GroupObservation(xs=o.xs, z=o.z, task_kind="pairwise") for o in observations]
    with pytest.raises(ValueError, match="m=2"):
        observed_likelihood(task, observations, model_for(task))


def test_bag_posterior_needs_a_binary_model():
    observations = draw_observations(Task("mil", 4, 2), [4] * 3, seed=11)
    with pytest.raises(ValueError, match="classes"):
        group_accuracy_mil(model_for(Task("llp", 4, 3)), observations)
