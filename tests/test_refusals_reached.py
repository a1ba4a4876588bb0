"""Every refusal in the library is reachable: one input per raise, matched on its message.

Each case is the smallest call that trips one check and none before it, so a check
that moves or goes silent fails here by name.
"""

import re

import numpy as np
import pytest

from agglearn.data import Dataset
from agglearn.evaluation import confusion_counts, group_accuracy_mil, modified_accuracy
from agglearn.losses import DegenerateGroupError, aggregate_loss, em_lower_bound, estep_omega
from agglearn.models import AdamState, Classifier, adam_step
from agglearn.posteriors import posterior_rank
from agglearn.tasks import Task
from agglearn.training import TrainConfig, default_flags, train


def linear(k=3, head="softmax", d=2):
    return Classifier.create("linear", head, d=d, k=k, seed=0)


def labelled(k=3):
    return Dataset(np.zeros((3, 2)), [1, 2, 3], k)


def cross_entropy_of_another_shape(logits):
    return np.zeros((len(logits), 1)), np.zeros((len(logits), 1, logits.shape[1]))


REFUSALS = {
    # data.Dataset and its label views
    "dataset features not 2-D": (lambda: Dataset(np.zeros(3), [1, 2, 3], 3), "features must be a 2-D array"),
    "dataset labels not one per row": (lambda: Dataset(np.zeros((3, 2)), [1, 2], 3),
                                       "labels must be one per feature row"),
    "empty dataset": (lambda: Dataset(np.zeros((0, 2)), [], 3), "empty dataset"),
    "relabel without names": (lambda: labelled().relabel_to(["a", "b", "c"]),
                              "dataset carries no label names to align by"),
    "more classes than the task": (lambda: labelled(3).task_labels(Task("pairwise", 2, 2)),
                                   "dataset has 3 classes but task expects at most 2"),
    # evaluation
    "confusion of unequal lengths": (lambda: confusion_counts([1, 2], [1], 2),
                                     "predictions and labels must have equal length"),
    "confusion of nothing": (lambda: confusion_counts([], [], 2), "empty input"),
    "assignment past its class bound": (lambda: modified_accuracy(np.eye(65, dtype=np.int64)),
                                        "at most 64 classes supported"),
    "empty confusion matrix": (lambda: modified_accuracy(np.zeros((2, 2), dtype=np.int64)),
                               "empty confusion matrix"),
    "group accuracy of no bags": (lambda: group_accuracy_mil(linear(2, "sigmoid"), []), "empty input"),
    # losses
    "weights of another shape": (lambda: aggregate_loss(np.zeros((2, 2)), np.zeros((2, 2)), linear(3)),
                                 r"weights \(2, 2\) do not fit a group of 2 over 3 classes"),
    "instance loss of another shape": (lambda: aggregate_loss(np.zeros((2, 2)), np.full((2, 3), 1 / 3), linear(3),
                                                              cross_entropy_of_another_shape),
                                       "instance_loss values and weights disagree in shape"),
    "empty S(z)": (lambda: estep_omega(Task("rank", 2, 1), [[1.0], [1.0]], 1),
                   "no consistent labeling has usable probability"),
    "omega of another length": (lambda: em_lower_bound(Task("pairwise", 2, 2), np.zeros((2, 2)), 1, [1.0], linear(2)),
                                r"omega must have one entry per consistent tuple \(2\)"),
    # models
    "unknown architecture": (lambda: Classifier("cnn", "softmax", 2, 3, []), "unknown architecture 'cnn'"),
    "unknown head": (lambda: Classifier("linear", "tanh", 2, 3, []), "unknown head 'tanh'"),
    "sigmoid head over three classes": (lambda: Classifier("linear", "sigmoid", 2, 3, []),
                                        "the sigmoid head is binary: k must be 2"),
    "parameter list of another length": (lambda: linear().load_parameters([np.zeros((2, 3))]),
                                         "parameter list length mismatch"),
    "parameter of another shape": (lambda: linear().load_parameters([np.zeros((3, 3)), np.zeros(3)]),
                                   r"parameter shape mismatch \(2, 3\) vs \(3, 3\)"),
    "gradient list of another length": (lambda: adam_step(linear(), [np.zeros((2, 3))], AdamState.for_model(linear())),
                                        "gradient list length mismatch"),
    # posteriors: the rank kernels' cumulative vectors
    "cumulative vector of length 1": (lambda: posterior_rank([1.0], [1.0], 1),
                                      "each cumulative vector must be 1-D of length k[+]1"),
    "cumulative vector not from 0 to 1": (lambda: posterior_rank([0.5, 1.0], [0.0, 1.0], 1),
                                          "cumulative vector must start at 0 and end at 1"),
    # training
    "unknown profile": (lambda: default_flags(Task("pairwise", 2, 3), "medium"), "profile must be 'small' or 'large'"),
    "no observations": (lambda: train([], Task("pairwise", 2, 3), linear(), TrainConfig(epochs=1)),
                        "no observations to train on"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_reached(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_an_empty_consistent_set_is_a_degenerate_group():
    with pytest.raises(DegenerateGroupError, match=re.escape(REFUSALS["empty S(z)"][1])):
        REFUSALS["empty S(z)"][0]()
