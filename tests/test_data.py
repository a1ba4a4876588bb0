import numpy as np
import pytest

from agglearn.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_observations,
    sample_groups,
    save_csv,
    save_observations,
)
from agglearn.tasks import Task, aggregate_label


def two_class_spec(seed=0):
    return SyntheticSpec(
        k=2, d=2, means=[[-3.0, 0.0], [3.0, 0.0]], spreads=[0.5, 0.5], prior=[0.5, 0.5], seed=seed
    )


class TestSyntheticGeneration:
    def test_single_class(self):
        spec = SyntheticSpec(k=1, d=3, means=[[1.0, 2.0, 3.0]], spreads=[1.0], prior=[1.0], seed=0)
        ds = generate_synthetic(spec, 5)
        np.testing.assert_array_equal(ds.labels, 1)
        assert ds.features.shape == (5, 3)

    def test_determinism(self):
        spec = SyntheticSpec(k=3, d=4, means=np.zeros((3, 4)), spreads=[1, 2, 3], prior=[0.2, 0.3, 0.5], seed=7)
        a = generate_synthetic(spec, 100)
        b = generate_synthetic(spec, 100)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_well_separated_mixture_is_almost_bayes_separable(self):
        # Monte-Carlo check of the mixture's Bayes accuracy: with symmetric
        # priors/spreads the Bayes rule is nearest mean, so classify a large
        # sample by nearest mean and demand > 0.99 agreement with the labels.
        ds = generate_synthetic(two_class_spec(seed=5), 100_000)
        nearest = 1 + (np.linalg.norm(ds.features - [-3, 0], axis=1)
                       > np.linalg.norm(ds.features - [3, 0], axis=1))
        assert np.mean(nearest == ds.labels) > 0.99

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(k=2, d=1, means=[[0], [1]], spreads=[1.0, 0.0], prior=[0.5, 0.5])
        with pytest.raises(ValueError):
            SyntheticSpec(k=2, d=1, means=[[0], [1]], spreads=[1.0, 1.0], prior=[0.7, 0.7])
        with pytest.raises(ValueError):
            generate_synthetic(two_class_spec(), 0)


class TestCsv:
    def test_first_appearance_reindexing(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("x0,label\n1.0,a\n2.0,b\n3.0,a\n")
        ds = load_csv(path)
        assert ds.k == 2
        np.testing.assert_array_equal(ds.labels, [1, 2, 1])
        assert ds.label_names == ["a", "b"]

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\nfoo,a\n")
        with pytest.raises(ValueError, match="non-numeric feature"):
            load_csv(path)
        path.write_text("x0,label\nnan,a\n")
        with pytest.raises(ValueError, match="non-numeric feature"):
            load_csv(path)

    def test_round_trip_is_exact(self, tmp_path):
        ds = generate_synthetic(two_class_spec(seed=3), 64)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_missing_file_and_empty(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,label\n")
        with pytest.raises(ValueError, match="empty"):
            load_csv(empty)

    @pytest.mark.parametrize("text, message", [
        (b"", ": empty dataset"),
        (b"x0,label\n", ": empty dataset"),
        (b"x0,label\n1.0,a\n2.0\n", ":3: row has 1 fields, header has 2"),
        (b"x0,label\nfoo,a\n", ":2: non-numeric feature"),
        (b'x0,label\n1.0,"a\nb"\nfoo,c\n', ":4: non-numeric feature"),
        (b"label\na\nb\n", ": header ['label'] has no feature column"),
        (b"x0,label\n1.0,\xff\n", ": not UTF-8 text"),
    ])
    def test_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError) as excinfo:
            load_csv(path)
        assert str(excinfo.value).startswith(f"{path}{message}")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path)

    def test_relabel_aligns_scrambled_appearance_orders(self, tmp_path):
        # same data, rows reordered: per-file indices disagree until aligned
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x0,label\n1.0,cat\n2.0,dog\n3.0,cat\n")
        b.write_text("x0,label\n2.0,dog\n1.0,cat\n3.0,cat\n")
        ds_a = load_csv(a)
        ds_b = load_csv(b)
        assert ds_a.label_names == ["cat", "dog"]
        assert ds_b.label_names == ["dog", "cat"]
        aligned = ds_b.relabel_to(ds_a.label_names)
        by_feature_a = dict(zip(ds_a.features[:, 0], ds_a.labels))
        by_feature_b = dict(zip(aligned.features[:, 0], aligned.labels))
        assert by_feature_a == by_feature_b

    def test_relabel_rejects_unknown_names(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,label\n1.0,cat\n2.0,dog\n")
        ds = load_csv(path)
        with pytest.raises(ValueError, match="missing from the reference"):
            ds.relabel_to(["cat", "bird"])


class TestGroupSampling:
    def test_single_class_pairwise_always_similar(self):
        ds = Dataset(np.zeros((4, 2)), np.ones(4, dtype=int), k=1)
        obs = sample_groups(ds, Task("pairwise", 2, 3), m=2, n_groups=50, seed=0)
        assert all(o.z == 1 for o in obs)

    def test_single_class_positive_bags(self):
        ds = Dataset(np.zeros((4, 2)), np.ones(4, dtype=int), k=1)
        obs = sample_groups(ds, Task("mil", 3, 2), m=3, n_groups=50, seed=0, positive_label=1)
        assert all(o.z == 1 for o in obs)

    def test_llp_pair_split_frequency(self):
        # two items with different labels: P(one of each) = 2 * 1/2 * 1/2
        ds = Dataset(np.zeros((2, 1)), np.array([1, 2]), k=2)
        obs = sample_groups(ds, Task("llp", 2, 2), m=2, n_groups=10_000, seed=42)
        assert all(sum(o.z) == 2 for o in obs)
        frac = np.mean([o.z == (1, 1) for o in obs])
        assert abs(frac - 0.5) < 0.02

    def test_sampled_z_is_consistent_with_member_labels(self):
        ds = generate_synthetic(
            SyntheticSpec(k=3, d=2, means=np.eye(3, 2), spreads=[1] * 3, prior=[1 / 3] * 3, seed=1), 30
        )
        task = Task("llp", 4, 3)
        for o in sample_groups(ds, task, m=4, n_groups=100, seed=2):
            assert aggregate_label(task, ds.labels[o.indices]) == o.z

    def test_determinism(self):
        ds = generate_synthetic(two_class_spec(seed=0), 20)
        a = sample_groups(ds, Task("pairwise", 2, 2), m=2, n_groups=30, seed=9)
        b = sample_groups(ds, Task("pairwise", 2, 2), m=2, n_groups=30, seed=9)
        for oa, ob in zip(a, b):
            np.testing.assert_array_equal(oa.xs, ob.xs)
            assert oa.z == ob.z

    def test_group_size_mismatch(self):
        ds = generate_synthetic(two_class_spec(), 10)
        with pytest.raises(ValueError, match="group size"):
            sample_groups(ds, Task("pairwise", 2, 2), m=3, n_groups=5, seed=0)

    def test_mil_positive_class_defaults_to_highest(self):
        ds = Dataset(np.zeros((6, 1)), np.array([1, 1, 1, 2, 2, 2]), k=2)
        obs = sample_groups(ds, Task("mil", 2, 2), m=2, n_groups=200, seed=3)
        for o in obs:
            assert o.z == int(np.any(ds.labels[o.indices] == 2))


class TestObservationFiles:
    def test_jsonl_round_trip(self, tmp_path):
        ds = generate_synthetic(two_class_spec(seed=4), 12)
        obs = sample_groups(ds, Task("llp", 3, 2), m=3, n_groups=20, seed=5)
        path = tmp_path / "groups.jsonl"
        save_observations(obs, path)
        back = load_observations(path)
        assert len(back) == len(obs)
        for oa, ob in zip(obs, back):
            np.testing.assert_array_equal(oa.xs, ob.xs)
            assert oa.z == ob.z
            assert ob.task_kind == "llp"

    def test_mixed_tasks_rejected(self, tmp_path):
        # written by hand: save_observations refuses to write a mixed file
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"xs": [[0.0], [0.0]], "z": 1, "task": "pairwise"}\n'
                        '{"xs": [[0.0], [0.0]], "z": 1, "task": "rank"}\n')
        with pytest.raises(ValueError, match="mixed task"):
            load_observations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_observations(tmp_path / "none.jsonl")

    def test_a_file_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"xs": [[0.0, 1.0], [1.0, 0.0]], "z": 1, "task": "pairwise"}\n\xff\n')
        with pytest.raises(ValueError) as excinfo:
            load_observations(path)
        assert str(excinfo.value).startswith(f"{path}: not UTF-8 text")
