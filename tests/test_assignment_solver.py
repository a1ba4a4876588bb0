"""The exact assignment solve behind matched accuracy.

``modified_accuracy`` makes one Hungarian solve over Python integers whose
costs put the matched count first and the permutation, read as a base-k
number, second. Up to the factorial oracle's reach it must return the
oracle's fraction and its lexicographically smallest permutation, ties
included; past that reach its matched count must equal an independent
solver's optimum.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.evaluation import MAX_ASSIGNMENT_CLASSES, brute_force_matching, modified_accuracy

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def tie_heavy_counts(draw):
    """k-by-k counts in 0..3 with at least one nonzero entry; some all equal, some with an all-zero row."""
    k = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["random", "all_equal", "zero_row"]))
    if shape == "all_equal":
        return np.full((k, k), draw(st.integers(1, 3)), dtype=np.int64)
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k)), dtype=np.int64).reshape(k, k)
    if shape == "zero_row":
        counts[draw(st.integers(0, k - 1))] = 0
    if counts.sum() == 0:
        counts[draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] = 1
    return counts


@PROPERTY
@given(tie_heavy_counts())
def test_equals_the_factorial_oracle_on_ties(counts):
    frac, perm = modified_accuracy(counts)
    oracle_frac, oracle_perm = brute_force_matching(counts)
    assert frac == oracle_frac
    assert perm.dtype == np.int64
    np.testing.assert_array_equal(perm, oracle_perm)


@pytest.mark.parametrize("k", [10, 30, MAX_ASSIGNMENT_CLASSES])
def test_matched_count_is_optimal_past_the_oracle(k):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    counts = np.random.default_rng(k).integers(0, 4, size=(k, k))
    frac, perm = modified_accuracy(counts)
    np.testing.assert_array_equal(np.sort(perm), np.arange(k))
    rows, cols = linear_sum_assignment(-counts)
    matched = int(counts[np.arange(k), perm].sum())
    assert matched == int(counts[rows, cols].sum())
    assert frac == matched / float(counts.sum())


def test_largest_solve_takes_under_a_second():
    counts = np.random.default_rng(0).integers(0, 4, size=(MAX_ASSIGNMENT_CLASSES, MAX_ASSIGNMENT_CLASSES))
    start = time.perf_counter()
    modified_accuracy(counts)
    assert time.perf_counter() - start < 1.0
