"""The instance-label rule.

Instance labels, predictions and positive labels enter through
``posteriors.parse_labels``: every entry a whole number (integer or bool
dtype, as ``parse_int`` takes them) in first..first+k-1. Frozen class
matchings must be permutations of 0..k-1 and confusion matrices nonnegative
integer counts. A bad value fails at the boundary naming it, instead of
being truncated to a class or wrapped around by an index.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agglearn.data import Dataset
from agglearn.evaluation import (
    apply_permutation,
    brute_force_matching,
    confusion_counts,
    matched_accuracy,
    modified_accuracy,
)
from agglearn.posteriors import parse_int, parse_labels
from agglearn.tasks import Task, aggregate_label


class TestRule:
    def test_returns_int64_of_the_input_shape(self):
        for values in ([1, 3, 2], np.array([[1, 2], [3, 1]], dtype=np.uint8), [True, True], 2, []):
            got = parse_labels(values, 3)
            assert got.dtype == np.int64 and got.shape == np.shape(values)
            np.testing.assert_array_equal(got, values)

    def test_first_sets_the_alphabet(self):
        np.testing.assert_array_equal(parse_labels([0, 1, 1], 2, first=0), [0, 1, 1])
        with pytest.raises(ValueError, match=r"^label 2 is not an integer in 0\.\.1$"):
            parse_labels([0, 2], 2, first=0)

    @pytest.mark.parametrize("values, bad", [
        ([1.0, 2.0], "1.0"), ([1, 2.5], "1.0"), (["1", "2"], "'1'"),
        (np.array([1, None], dtype=object), "1"), ([1, 0, 2], "0"), ([3, 1, 4], "4"),
    ])
    def test_bad_entries_fail_naming_one(self, values, bad):
        with pytest.raises(ValueError, match=rf"^size {bad} is not an integer in 1\.\.3$"):
            parse_labels(values, 3, name="size")

    @pytest.mark.parametrize("k, message", [(2.5, "k must be an integer, got 2.5"), (0, "k must be >= 1")])
    def test_k_goes_through_the_whole_number_rule(self, k, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            parse_labels([1], k)

    scalars = st.one_of(
        st.integers(-2**63, 2**63 - 1),
        st.integers(-5, 8),
        st.integers(-5, 8).map(np.int64),
        st.integers(0, 8).map(np.uint8),
        st.booleans(),
        st.integers(-5, 8).map(float),
        st.integers(-5, 8).map(str),
    )

    @given(value=scalars, k=st.integers(1, 6), first=st.integers(-2, 2))
    def test_scalar_agrees_with_the_whole_number_rule(self, value, k, first):
        try:
            expected = parse_int(value, "label", first)
            ok = expected <= first + k - 1
        except ValueError:
            ok = False
        if ok:
            assert parse_labels(value, k, first).item() == expected
        else:
            with pytest.raises(ValueError, match=r"^label .* is not an integer in "):
                parse_labels(value, k, first)


class TestCallers:
    def test_dataset_refuses_float_labels_and_k(self):
        with pytest.raises(ValueError, match=r"^label 1\.7 is not an integer in 1\.\.2$"):
            Dataset(np.zeros((2, 1)), [1.7, 2.2], k=2)
        with pytest.raises(ValueError, match=r"^label 1\.0 is not an integer in 1\.\.2$"):
            Dataset(np.zeros((2, 1)), [1.0, 2.0], k=2)
        with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
            Dataset(np.zeros((2, 1)), [1, 2], k=2.5)

    def test_dataset_string_labels_name_the_field(self):
        with pytest.raises(ValueError, match=r"^label 'a' is not an integer in 1\.\.2$"):
            Dataset(np.zeros((2, 1)), ["a", "b"], k=2)

    def test_dataset_keeps_valid_labels(self):
        ds = Dataset(np.zeros((3, 1)), np.array([2, 1, 2], dtype=np.int32), k=2)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [2, 1, 2])

    def test_positive_label(self):
        ds = Dataset(np.zeros((3, 1)), [1, 2, 2], k=2)
        with pytest.raises(ValueError, match=r"^positive label 1\.5 is not an integer in 1\.\.2$"):
            ds.task_labels(Task("mil", 2, 2), 1.5)
        with pytest.raises(ValueError, match=r"^positive label 3 is not an integer in 1\.\.2$"):
            ds.task_labels(Task("mil", 2, 2), 3)
        np.testing.assert_array_equal(ds.task_labels(Task("mil", 2, 2), np.int64(1)), [1, 0, 0])

    def test_positive_label_in_a_list_is_refused(self):
        ds = Dataset(np.zeros((4, 1)), [1, 2, 2, 1], k=2)
        with pytest.raises(ValueError, match=r"^positive label \[\[2\]\] must be a single class in 1\.\.2$"):
            ds.task_labels(Task("mil", 2, 2), [[2]])

    def test_two_positive_labels_are_refused(self):
        ds = Dataset(np.zeros((4, 1)), [1, 2, 2, 1], k=2)
        with pytest.raises(ValueError, match=r"^positive label \[1, 2\] must be a single class in 1\.\.2$"):
            ds.task_labels(Task("mil", 2, 2), [1, 2])

    def test_aggregate_label_checks_the_task_alphabet(self):
        with pytest.raises(ValueError, match=r"^label 1\.7 is not an integer in 1\.\.3$"):
            aggregate_label(Task("pairwise", 2, 3), [1.7, 1])
        with pytest.raises(ValueError, match=r"^label 2 is not an integer in 0\.\.1$"):
            aggregate_label(Task("mil", 2, 2), [0, 2])
        with pytest.raises(ValueError, match=r"^expected 2 labels for task 'pairwise', got shape \(1, 2\)$"):
            aggregate_label(Task("pairwise", 2, 3), [[1, 1]])
        assert aggregate_label(Task("llp", 3, 3), np.array([3, 1, 3])) == (1, 0, 2)
        assert aggregate_label(Task("mil", 3, 2), (False, True, False)) == 1

    def test_confusion_counts(self):
        with pytest.raises(ValueError, match=r"^label 1\.7 is not an integer in 1\.\.3$"):
            confusion_counts([1, 2], [1.7, 2.2], 3)
        with pytest.raises(ValueError, match=r"^prediction 4 is not an integer in 1\.\.3$"):
            confusion_counts([1, 4], [1, 2], 3)
        with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
            confusion_counts([1, 2], [1, 2], 2.5)

    def test_confusion_counts_equal_a_loop(self):
        rng = np.random.default_rng(0)
        preds, labels = rng.integers(1, 5, size=300), rng.integers(1, 5, size=300)
        expected = np.zeros((4, 4), dtype=np.int64)
        for a, b in zip(preds, labels):
            expected[a - 1, b - 1] += 1
        got = confusion_counts(preds, labels, 4)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


class TestMatchings:
    def test_frozen_prediction_outside_the_classes(self):
        with pytest.raises(ValueError, match=r"^prediction 0 is not an integer in 1\.\.3$"):
            matched_accuracy([0, 1, 2], [3, 1, 2], 3, perm=[0, 1, 2])
        with pytest.raises(ValueError, match=r"^prediction 4 is not an integer in 1\.\.3$"):
            matched_accuracy([4, 1, 2], [3, 1, 2], 3, perm=[0, 1, 2])
        with pytest.raises(ValueError, match=r"^label 0 is not an integer in 1\.\.3$"):
            matched_accuracy([1, 1, 2], [0, 1, 2], 3, perm=[0, 1, 2])

    @pytest.mark.parametrize("perm, shown", [
        ([0, 0, 0], r"\[0, 0, 0\]"), ([1, 0], r"\[1, 0\]"), ([[0, 1, 2]], r"\[\[0, 1, 2\]\]"),
    ])
    def test_frozen_perm_must_be_a_permutation(self, perm, shown):
        with pytest.raises(ValueError, match=rf"^perm {shown} is not a permutation of 0\.\.2$"):
            matched_accuracy([1, 2, 3], [1, 1, 1], 3, perm=perm)

    def test_frozen_perm_entries_are_whole_numbers(self):
        with pytest.raises(ValueError, match=r"^perm entry 1\.0 is not an integer in 0\.\.1$"):
            matched_accuracy([1, 2], [2, 1], 2, perm=[1.0, 0.0])
        with pytest.raises(ValueError, match=r"^perm entry 3 is not an integer in 0\.\.2$"):
            matched_accuracy([1, 2], [2, 1], 3, perm=[0, 1, 3])

    def test_apply_permutation(self):
        with pytest.raises(ValueError, match=r"^prediction 0 is not an integer in 1\.\.2$"):
            apply_permutation([0, 1], [1, 0])
        with pytest.raises(ValueError, match=r"^perm \[1, 1\] is not a permutation of 0\.\.1$"):
            apply_permutation([1, 2], [1, 1])
        np.testing.assert_array_equal(apply_permutation(np.array([1, 2, 3], dtype=np.uint8), [2, 0, 1]), [3, 1, 2])

    def test_frozen_equals_fitted_under_the_fitted_perm(self):
        rng = np.random.default_rng(3)
        preds, labels = rng.integers(1, 5, size=200), rng.integers(1, 5, size=200)
        fitted, perm = matched_accuracy(preds, labels, 4)
        frozen, same = matched_accuracy(preds, labels, 4, perm=list(perm))
        assert frozen == fitted and same.dtype == np.int64
        np.testing.assert_array_equal(same, perm)


class TestConfusionMatrix:
    @pytest.mark.parametrize("confusion, shown", [
        ([[1.5, 0], [0, 2]], r"\[\[1\.5, 0\.0\], \[0\.0, 2\.0\]\]"),
        ([[-1, 0], [0, 2]], r"\[\[-1, 0\], \[0, 2\]\]"),
    ])
    def test_refuses_what_is_not_counts(self, confusion, shown):
        with pytest.raises(ValueError, match=rf"^confusion matrix {shown} must hold nonnegative integer counts$"):
            modified_accuracy(confusion)

    def test_unsigned_and_bool_counts_match_the_oracle(self):
        for confusion in (np.array([[3, 1], [0, 2]], dtype=np.uint8), np.array([[True, False], [True, True]])):
            frac, perm = modified_accuracy(confusion)
            bf_frac, bf_perm = brute_force_matching(confusion.astype(np.int64))
            assert frac == bf_frac
            np.testing.assert_array_equal(perm, bf_perm)
