"""Evaluation: plain accuracy, permutation-matched accuracy, bag accuracy.

Pairwise and triplet supervision cannot identify which output unit is
which semantic class, so those tasks are scored by *matched accuracy*:
accuracy maximized over all assignments of predicted classes to true
classes. The optimal assignment comes from solving a linear sum assignment
problem on negated confusion counts; ties between equally good assignments
break toward the lexicographically smallest permutation so results are
reproducible.

Bag (MIL) models are additionally scored at the group level: a bag is
predicted positive when the model's posterior bag probability reaches 1/2.
The alternative rule "any instance predicted positive" is available for
comparison but off by default.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import GroupObservation, check_observations
from .models import Classifier
from .tasks import TASKS, Task

MAX_ASSIGNMENT_CLASSES = 64
# brute_force_matching tries k! permutations: about 1.5 s at k = 9, hours at k = 13.
MAX_BRUTE_FORCE_CLASSES = 9


def accuracy(preds, labels) -> float:
    """Fraction of exact matches between two equal-length label vectors."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if preds.size == 0:
        raise ValueError("empty input")
    return float(np.mean(preds == labels))


def confusion_counts(preds, labels, k: int) -> np.ndarray:
    """k-by-k counts; entry (a, b) = #instances predicted class a+1 with true class b+1."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if preds.size == 0:
        raise ValueError("empty input")
    for arr, name in ((preds, "prediction"), (labels, "label")):
        if arr.min() < 1 or arr.max() > k:
            raise ValueError(f"{name} outside 1..{k}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (preds - 1, labels - 1), 1)
    return counts


def _assignment_value(confusion: np.ndarray) -> int:
    rows, cols = linear_sum_assignment(-confusion)
    return int(confusion[rows, cols].sum())


def modified_accuracy(confusion) -> tuple[float, np.ndarray]:
    """Best-assignment accuracy and the permutation achieving it.

    Returns (fraction, perm) where perm[a] = b means predicted class a+1 is
    matched to true class b+1. Among assignments of equal value, perm is
    the lexicographically smallest, fixed greedily one row at a time: a
    column is kept iff the best completion on the remaining rows/columns
    still reaches the global optimum.
    """
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError("confusion matrix must be square")
    k = confusion.shape[0]
    if k > MAX_ASSIGNMENT_CLASSES:
        raise ValueError(f"at most {MAX_ASSIGNMENT_CLASSES} classes supported")
    total = confusion.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")

    best = _assignment_value(confusion)
    perm = np.full(k, -1, dtype=np.int64)
    free_cols = list(range(k))
    fixed_value = 0
    remaining = confusion
    for a in range(k):
        for idx, b in enumerate(free_cols):
            sub = np.delete(remaining[1:], idx, axis=1)
            achievable = fixed_value + int(confusion[a, b])
            if sub.size:
                achievable += _assignment_value(sub)
            if achievable == best:
                perm[a] = b
                fixed_value += int(confusion[a, b])
                free_cols.pop(idx)
                remaining = np.delete(remaining[1:], idx, axis=1)
                break
        else:
            raise AssertionError("no column preserved the optimal value")
    return best / float(total), perm


def brute_force_matching(confusion) -> tuple[float, np.ndarray]:
    """Factorial-search oracle for modified_accuracy, for k <= MAX_BRUTE_FORCE_CLASSES.

    Scans permutations in lexicographic order, keeping the first of
    maximal value, so ties resolve identically to modified_accuracy.
    """
    confusion = np.asarray(confusion)
    k = confusion.shape[0]
    if k > MAX_BRUTE_FORCE_CLASSES:
        raise ValueError(f"factorial search over {k} classes exceeds the bound of {MAX_BRUTE_FORCE_CLASSES}")
    total = confusion.sum()
    best_value = -1
    best_perm = None
    rows = np.arange(k)
    for perm in itertools.permutations(range(k)):
        value = int(confusion[rows, list(perm)].sum())
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_value / float(total), np.array(best_perm, dtype=np.int64)


def apply_permutation(preds, perm) -> np.ndarray:
    """Relabel 1-based predictions through perm (perm[a] = matched class index)."""
    preds = np.asarray(preds, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    return perm[preds - 1] + 1


def matched_accuracy(preds, labels, k: int, perm=None) -> tuple[float, np.ndarray]:
    """Matched accuracy of 1-based predictions against labels.

    With ``perm`` given (e.g. fitted on a validation split) it is applied
    frozen; otherwise the optimal permutation is fitted on this data.
    """
    if perm is None:
        return modified_accuracy(confusion_counts(preds, labels, k))
    perm = np.asarray(perm, dtype=np.int64)
    return accuracy(apply_permutation(preds, perm), labels), perm


def group_accuracy_mil(
    model: Classifier, observations: list[GroupObservation], rule: str = "posterior"
) -> float:
    """Fraction of bags whose predicted bag label matches the observed one.

    rule="posterior" predicts positive when p(z=1 | bag) >= 1/2 under the
    bag posterior; rule="any_instance" predicts positive when any instance
    is predicted positive.
    """
    if rule not in ("posterior", "any_instance"):
        raise ValueError(f"unknown rule {rule!r}")
    if not observations:
        raise ValueError("empty input")
    zs = check_observations(observations, Task("mil", 2, 2), model.d)  # the bag task at any m >= 2
    if rule == "posterior" and model.k != 2:
        raise ValueError("the bag posterior needs probabilities over classes {0, 1}")
    hits = 0
    for idx, stack in model.group_stacks([obs.xs for obs in observations]):
        if rule == "posterior":
            z_hat = TASKS["mil"].pz(model.predict_proba(stack), [1] * len(idx)) >= 0.5
        else:
            z_hat = np.any(model.predict(stack) == 1, axis=-1)
        hits += int(np.sum(z_hat == np.array([zs[i] for i in idx])))
    return hits / len(observations)
