"""The probability-row rule, ``posteriors.parse_probs``, speaks the same at every entry point
that takes per-class rows: the dispatcher, the oracle, the EM path and the public kernels.

A row is a distribution over the k classes: a 2-D (m, k) array whose rows each sum to 1
within 1e-6. Where the entry point knows k (from the task, or k = 2 for bags) the column
count must match it; the pairwise and triplet kernels take k from the rows, and the
label-proportion kernel checks it against its count vector by the count rule.
"""

import numpy as np
import pytest

from agglearn import posteriors
from agglearn.losses import em_lower_bound, estep_omega
from agglearn.posteriors import (
    brute_force_posterior,
    group_posterior,
    parse_probs,
    posterior_llp,
    posterior_mil,
    posterior_pairwise,
    posterior_triplet,
)
from agglearn.tasks import TASKS, Task, consistent_tuples

PAIRS = Task("pairwise", 2, 3)


class RowsModel:
    """A stand-in classifier whose ``predict_proba`` returns fixed rows, whatever the features."""

    def __init__(self, etas):
        self.etas = etas

    def predict_proba(self, xs):
        return self.etas


def em_bound(etas):
    omega = np.full(len(consistent_tuples(PAIRS, 1)), 1.0 / len(consistent_tuples(PAIRS, 1)))
    return em_lower_bound(PAIRS, np.zeros((2, 2)), 1, omega, RowsModel(etas))


# name, call on the rows, group size m, class count k, whether the entry point is given k
ENTRY_POINTS = [
    ("group_posterior", lambda etas: group_posterior(PAIRS, etas, 1), 2, 3, True),
    ("brute_force_posterior", lambda etas: brute_force_posterior(PAIRS, etas, 1), 2, 3, True),
    ("estep_omega", lambda etas: estep_omega(PAIRS, etas, 1), 2, 3, True),
    ("em_lower_bound", em_bound, 2, 3, True),
    ("posterior_pairwise", lambda etas: posterior_pairwise(*etas, 1), 2, 3, False),
    ("posterior_triplet", lambda etas: posterior_triplet(*etas, 1), 3, 3, False),
    ("posterior_llp", lambda etas: posterior_llp(etas, (1, 1, 0)), 2, 3, False),
    ("posterior_mil", lambda etas: posterior_mil(etas, 1), 3, 2, True),
]
IDS = [entry[0] for entry in ENTRY_POINTS]


def uniform(m, k):
    return np.full((m, k), 1.0 / k)


def off_by(m, k, amount):
    etas = uniform(m, k)
    etas[0, 0] += amount
    return etas


def with_nan(m, k):
    etas = uniform(m, k)
    etas[m - 1, 0] = np.nan
    return etas


def ragged(m, k):
    return [list(row) for row in uniform(m - 1, k)] + [[1.0 / (k + 1)] * (k + 1)]


# name, rows of a group of m over k classes, the message every entry point raises
MALFORMED = [
    ("1-D rows", lambda m, k: np.full(m, 1.0 / k), r"^etas must be \(m, k\)$"),
    ("3-D rows", lambda m, k: np.full((m, 1, k), 1.0 / k), r"^etas must be \(m, k\)$"),
    ("a row summing to 1.01", lambda m, k: off_by(m, k, 0.01), "^each probability row must sum to 1$"),
    ("a row summing to 0.99", lambda m, k: off_by(m, k, -0.01), "^each probability row must sum to 1$"),
    ("a row missing 1 by 1e-5", lambda m, k: off_by(m, k, 1e-5), "^each probability row must sum to 1$"),
    ("a NaN entry", with_nan, "^each probability row must sum to 1$"),
    ("ragged rows", ragged, "inhomogeneous shape"),
]


@pytest.mark.parametrize("case, rows, message", MALFORMED, ids=[case[0] for case in MALFORMED])
@pytest.mark.parametrize("name, call, m, k, k_given", ENTRY_POINTS, ids=IDS)
def test_every_entry_point_refuses_malformed_rows_with_one_message(name, call, m, k, k_given, case, rows, message):
    with pytest.raises(ValueError, match=message):
        call(rows(m, k))


GIVEN_K = [entry for entry in ENTRY_POINTS if entry[4]]


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("name, call, m, k, k_given", GIVEN_K, ids=[entry[0] for entry in GIVEN_K])
def test_every_entry_point_given_k_refuses_another_class_count(name, call, m, k, k_given, step):
    with pytest.raises(ValueError, match=f"^got {k + step} classes for a task with {k}$"):
        call(uniform(m, k + step))


def test_the_label_proportion_kernel_takes_k_from_its_count_vector():
    with pytest.raises(ValueError, match="has 3 entries, expected k=4"):
        posterior_llp(uniform(2, 4), (1, 1, 0))


@pytest.mark.parametrize("amount", [9e-7, -9e-7])
@pytest.mark.parametrize("name, call, m, k, k_given", ENTRY_POINTS, ids=IDS)
def test_a_row_within_1e_6_of_summing_to_1_passes_everywhere(name, call, m, k, k_given, amount):
    result = call(off_by(m, k, amount))  # a posterior, EM responsibilities or the EM bound
    assert np.all(np.isfinite(getattr(result, "pz", result)))


def test_the_rule_converts_and_checks_but_never_changes_a_value():
    rows = [[1, 0, 0], [0.25, 0.75, 0.0]]  # exact zeros and ones, which the kernels would clamp
    etas = parse_probs(rows, 3)
    assert etas.dtype == np.float64 and etas.shape == (2, 3)
    np.testing.assert_array_equal(etas, np.array(rows, dtype=np.float64))
    assert parse_probs(etas) is etas  # float64 input is checked in place, not copied


def test_group_posterior_checks_the_rows_once_for_every_kind(monkeypatch):
    calls = []
    rule = posteriors.parse_probs
    monkeypatch.setattr(posteriors, "parse_probs", lambda *args: calls.append(args) or rule(*args))
    for kind, spec in TASKS.items():
        task = Task(kind, 3 if spec.m is None else spec.m, 2)
        z = (1, 2) if spec.counts else 1
        before = len(calls)
        group_posterior(task, uniform(task.m, 2), z)
        assert len(calls) - before == 1, kind


def test_rows_of_0_9_are_refused_rather_than_giving_a_p_z_above_one():
    with pytest.raises(ValueError, match="sum to 1"):
        posterior_pairwise([0.9] * 3, [0.9] * 3, 1)  # p(z) read 2.43 without the rule
    with pytest.raises(ValueError, match="sum to 1"):
        posterior_llp([[0.9] * 3] * 2, (1, 1, 0))
