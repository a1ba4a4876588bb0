"""Evaluation: plain accuracy, permutation-matched accuracy, bag accuracy.

A kind's supervision identifies the classes only up to its symmetry group
(``TaskSpec.symmetry``): pairwise and triplet are scored by *matched accuracy*,
maximized over all assignments of predicted to true classes, ordinal_triplet by
the better of the identity and the class reversal. One exact assignment solve
(the Hungarian method, Kuhn 1955, in Python integers) finds the best
assignment: cost[a][b] = b*k**(k-1-a) - counts[a][b]*k**k.
One matched count outweighs the whole tie-break term, which is the
permutation read as a base-k number, so ties between equally good
assignments break toward the lexicographically smallest permutation and
results are reproducible; scoring loads numpy alone. Labels and predictions
are checked on entry by ``posteriors.parse_labels``, matchings as
permutations of 0..k-1, confusion matrices as nonnegative integer counts.

Bag (MIL) models are additionally scored at the group level: a bag is
predicted positive when the model's posterior bag probability reaches 1/2.
The alternative rule "any instance predicted positive" is available for
comparison but off by default.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .data import GroupObservation, check_observations
from .models import Classifier
from .posteriors import WHOLE_KINDS, parse_labels
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
    preds = parse_labels(preds, k, name="prediction")
    labels = parse_labels(labels, k)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if preds.size == 0:
        raise ValueError("empty input")
    return np.bincount((preds - 1) * k + labels - 1, minlength=k * k).reshape(k, k)


def _hungarian(cost: list[list[int]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square cost matrix (Kuhn 1955, with potentials)."""
    n = len(cost)
    u, v, way, owner = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)  # owner[j]: row of column j
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        slack, used = [math.inf] * (n + 1), [False] * (n + 1)  # inf only until first scanned: sums stay ints
        while owner[j0]:
            used[j0], row, delta, j1 = True, owner[j0], math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[row - 1][j - 1] - u[row] - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0], j0 = owner[way[j0]], way[j0]
    return [j for _, j in sorted(zip(owner[1:], range(n)))]


def modified_accuracy(confusion) -> tuple[float, np.ndarray]:
    """Best-assignment accuracy and the permutation achieving it, over a matrix of nonnegative integer counts.

    Returns (fraction, perm) where perm[a] = b means predicted class a+1 is
    matched to true class b+1. Among assignments of equal value, perm is
    the lexicographically smallest: the solve minimizes perm read as a
    base-k number, a term smaller than the weight k**k of one matched count.
    """
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError("confusion matrix must be square")
    if confusion.dtype.kind not in WHOLE_KINDS or np.any(confusion < 0):
        raise ValueError(f"confusion matrix {confusion.tolist()} must hold nonnegative integer counts")
    confusion = confusion.astype(np.int64, copy=False)
    k = confusion.shape[0]
    if k > MAX_ASSIGNMENT_CLASSES:
        raise ValueError(f"at most {MAX_ASSIGNMENT_CLASSES} classes supported")
    total = confusion.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")

    perm = np.array(_hungarian([[b * k ** (k - 1 - a) - n * k**k for b, n in enumerate(row)]
                                for a, row in enumerate(confusion.tolist())]), dtype=np.int64)
    return int(confusion[np.arange(k), perm].sum()) / float(total), perm


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


def _permutation(perm, k) -> np.ndarray:
    """perm as an int64 array when it is a permutation of 0..k-1, else ValueError naming it."""
    entries = parse_labels(perm, k, first=0, name="perm entry")
    if entries.shape != (k,) or np.unique(entries).size != k:
        raise ValueError(f"perm {entries.tolist()} is not a permutation of 0..{k - 1}")
    return entries


def apply_permutation(preds, perm) -> np.ndarray:
    """Relabel 1-based predictions through perm (perm[a] = matched class index), a permutation of 0..k-1."""
    perm = _permutation(perm, np.size(perm))
    return perm[parse_labels(preds, perm.size, name="prediction") - 1] + 1


def matched_accuracy(preds, labels, k: int, perm=None) -> tuple[float, np.ndarray]:
    """Matched accuracy of 1-based predictions against labels.

    With ``perm`` given (e.g. fitted on a validation split) it is applied
    frozen; otherwise the optimal permutation is fitted on this data.
    """
    if perm is None:
        return modified_accuracy(confusion_counts(preds, labels, k))
    perm = _permutation(perm, k)
    return accuracy(apply_permutation(preds, perm), parse_labels(labels, k)), perm


def fit_matching(preds, labels, k: int, symmetry: str) -> np.ndarray:
    """The matching in a symmetry group ("identity", "reversal" or "all" permutations) that scores 1-based
    predictions best against labels; a tie goes to the identity, then to the lexicographically smallest."""
    if symmetry == "all":
        return matched_accuracy(preds, labels, k)[1]
    group = [np.arange(k), np.arange(k)[::-1]] if symmetry == "reversal" else [np.arange(k)]
    return max(group, key=lambda perm: matched_accuracy(preds, labels, k, perm)[0])  # max keeps the first best


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
            z_hat = TASKS["mil"].kernel(model.predict_proba(stack), [1] * len(idx), joint=False)[0] >= 0.5
        else:
            z_hat = np.any(model.predict(stack) == 1, axis=-1)
        hits += int(np.sum(z_hat == np.array([zs[i] for i in idx])))
    return hits / len(observations)
