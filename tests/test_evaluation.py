import numpy as np
import pytest

from agglearn.data import GroupObservation, SyntheticSpec, generate_synthetic, sample_groups
from agglearn.evaluation import (
    accuracy,
    apply_permutation,
    brute_force_matching,
    confusion_counts,
    group_accuracy_mil,
    matched_accuracy,
    modified_accuracy,
)
from agglearn.models import Classifier
from agglearn.tasks import Task


class TestAccuracy:
    def test_basic_fractions(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0
        assert accuracy([1, 2, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    def test_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestConfusionCounts:
    def test_counts_and_total(self):
        counts = confusion_counts([1, 1, 2], [1, 2, 2], k=2)
        np.testing.assert_array_equal(counts, [[1, 1], [0, 1]])
        assert counts.sum() == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_counts([0], [1], k=2)


class TestModifiedAccuracy:
    def test_identity_dominant(self):
        confusion = np.array([[10, 1], [2, 9]])
        frac, perm = modified_accuracy(confusion)
        np.testing.assert_array_equal(perm, [0, 1])
        assert frac == pytest.approx(19 / 22)

    def test_permuted_diagonal_is_perfect(self):
        confusion = np.zeros((3, 3), dtype=int)
        confusion[0, 2] = 5
        confusion[1, 0] = 7
        confusion[2, 1] = 4
        frac, perm = modified_accuracy(confusion)
        assert frac == 1.0
        np.testing.assert_array_equal(perm, [2, 0, 1])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            k = int(rng.integers(2, 7))
            # small counts make ties common, exercising the lexicographic rule
            confusion = rng.integers(0, 4, size=(k, k))
            if confusion.sum() == 0:
                confusion[0, 0] = 1
            frac, perm = modified_accuracy(confusion)
            bf_frac, bf_perm = brute_force_matching(confusion)
            assert frac == pytest.approx(bf_frac, abs=1e-15)
            np.testing.assert_array_equal(perm, bf_perm)

    def test_all_equal_counts_pick_identity(self):
        frac, perm = modified_accuracy(np.full((4, 4), 3))
        np.testing.assert_array_equal(perm, [0, 1, 2, 3])

    def test_never_below_raw_accuracy(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            preds = rng.integers(1, 5, size=100)
            labels = rng.integers(1, 5, size=100)
            frac, _ = modified_accuracy(confusion_counts(preds, labels, 4))
            assert frac >= accuracy(preds, labels) - 1e-15

    def test_invariant_to_relabeling(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(1, 5, size=200)
        labels = rng.integers(1, 5, size=200)
        base, _ = modified_accuracy(confusion_counts(preds, labels, 4))
        relabel = np.array([3, 1, 4, 2])
        shuffled = relabel[preds - 1]
        again, _ = modified_accuracy(confusion_counts(shuffled, labels, 4))
        assert again == pytest.approx(base, abs=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            modified_accuracy(np.zeros((2, 3)))

    def test_apply_permutation_round_trip(self):
        preds = np.array([1, 2, 3, 1])
        perm = np.array([2, 0, 1])
        np.testing.assert_array_equal(apply_permutation(preds, perm), [3, 1, 2, 3])

    def test_frozen_permutation_path(self):
        preds = np.array([1, 1, 2, 2])
        labels = np.array([2, 2, 1, 1])
        frac, perm = matched_accuracy(preds, labels, k=2)
        assert frac == 1.0
        frozen, _ = matched_accuracy(preds, labels, k=2, perm=np.array([1, 0]))
        assert frozen == 1.0


def _bag_observations(seed, n_groups=400, prior=(0.6, 0.4)):
    spec = SyntheticSpec(k=2, d=2, means=[[-2.5, 0.0], [2.5, 0.0]],
                         spreads=[0.7, 0.7], prior=list(prior), seed=seed)
    ds = generate_synthetic(spec, 300)
    return ds, sample_groups(ds, Task("mil", 3, 2), m=3, n_groups=n_groups, seed=seed + 1)


class TestGroupAccuracy:
    def test_always_negative_model(self):
        _, obs = _bag_observations(seed=0)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=0)
        w, b = model.layers[0]
        w[...] = 0.0
        b[...] = -50.0  # certain negative everywhere
        expected = np.mean([o.z == 0 for o in obs])
        assert group_accuracy_mil(model, obs) == pytest.approx(expected)

    def test_strong_instance_model_is_perfect(self):
        ds, obs = _bag_observations(seed=3)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=0)
        w, b = model.layers[0]
        w[...] = np.array([[8.0], [0.0]])
        b[...] = 0.0
        assert group_accuracy_mil(model, obs) == 1.0
        assert group_accuracy_mil(model, obs, rule="any_instance") == 1.0

    def test_random_model_near_chance_on_balanced_bags(self):
        # balanced bag labels + a model independent of the bags => ~1/2
        rng = np.random.default_rng(4)
        obs = [
            GroupObservation(rng.normal(size=(3, 2)), int(rng.integers(0, 2)), "mil")
            for _ in range(1000)
        ]
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=5)
        acc = group_accuracy_mil(model, obs)
        assert 0.4 <= acc <= 0.6

    def test_rejects_wrong_task_and_rule(self):
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=6)
        bad = [GroupObservation(np.zeros((2, 2)), 1, "pairwise")]
        with pytest.raises(ValueError):
            group_accuracy_mil(model, bad)
        good = [GroupObservation(np.zeros((2, 2)), 1, "mil")]
        with pytest.raises(ValueError):
            group_accuracy_mil(model, good, rule="vote")

    @pytest.mark.parametrize("rule", ["posterior", "any_instance"])
    @pytest.mark.parametrize("bad, message", [
        (GroupObservation(np.full((3, 2), np.nan), 7, "mil"), "observation 1: aggregate label 7 must be 0 or 1"),
        (GroupObservation(np.array([[np.nan, 0.0], [1.0, 1.0]]), 1, "mil"), "observation 1 has a non-finite feature"),
        (GroupObservation(np.zeros((1, 2)), 1, "mil"), "observation 1: task 'mil' requires m >= 2"),
        (GroupObservation(np.zeros((3, 5)), 0, "mil"), "observation 1 has 5 features, the model takes 2"),
    ])
    def test_rejects_a_bag_the_observation_check_refuses(self, bad, message, rule):
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=6)
        good = GroupObservation(np.zeros((3, 2)), 0, "mil")
        with pytest.raises(ValueError, match=message.replace("(", r"\(")):
            group_accuracy_mil(model, [good, bad], rule=rule)
