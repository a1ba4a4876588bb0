import numpy as np
import pytest

import harness
from agglearn.data import GroupObservation, SyntheticSpec, generate_synthetic, sample_groups
from agglearn.losses import compute_weights
from agglearn.models import Classifier
from agglearn.posteriors import brute_force_posterior, group_posterior
from agglearn.tasks import Task
from agglearn.training import (
    TrainConfig,
    TrainingAbortError,
    default_flags,
    observed_likelihood,
    train,
)


def mixture_observations(kind="pairwise", n_groups=60, seed=0, k=3, m=None):
    spec = SyntheticSpec(
        k=k, d=2,
        means=3.0 * np.stack([np.cos(2 * np.pi * np.arange(k) / k), np.sin(2 * np.pi * np.arange(k) / k)], axis=1),
        spreads=[0.7] * k, prior=[1.0 / k] * k, seed=seed,
    )
    ds = generate_synthetic(spec, 60)
    task = Task(kind, m or {"pairwise": 2, "triplet": 3, "llp": 3, "mil": 3, "rank": 2, "ordinal_triplet": 3}[kind],
                2 if kind == "mil" else k)
    return ds, task, sample_groups(ds, task, m=task.m, n_groups=n_groups, seed=seed + 1)


def fresh_model(task, seed=1):
    if task.kind == "mil":
        return Classifier.create("linear", "sigmoid", d=2, k=2, seed=seed)
    head = "cumulative" if task.kind in ("rank", "ordinal_triplet") else "softmax"
    return Classifier.create("mlp-300", head, d=2, k=task.k, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=6)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, val_fraction=1.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(epochs=5, learning_rate=rate)

    def test_default_flags(self):
        assert default_flags(Task("pairwise", 2, 3)) == (True, 100, True)
        assert default_flags(Task("pairwise", 2, 3), profile="large") == (True, 20, True)
        assert default_flags(Task("triplet", 3, 3)) == (True, 100, True)
        assert default_flags(Task("llp", 4, 3)) == (False, 0, True)
        assert default_flags(Task("mil", 4, 2)) == (False, 0, False)
        assert default_flags(Task("rank", 2, 3)) == (True, 100, True)
        assert default_flags(Task("ordinal_triplet", 3, 3)) == (True, 100, True)


class TestObservedLikelihood:
    def test_uniform_model_pairwise(self):
        _, task, obs = mixture_observations("pairwise", n_groups=40, k=2)
        model = fresh_model(task)
        for w, b in model.layers:
            w[...] = 0.0
            b[...] = 0.0
        # uniform eta over 2 classes: p(z | pair) = 1/2 for either z
        assert observed_likelihood(task, obs, model) == pytest.approx(40 * np.log(0.5), rel=1e-12)

    def test_near_perfect_model_scores_near_zero(self):
        ds, task, obs = mixture_observations("mil", n_groups=30, k=2)
        model = fresh_model(task)
        # big margin linear separator along the class-mean axis
        centers = np.array([ds.features[ds.labels == c].mean(axis=0) for c in (1, 2)])
        direction = centers[1] - centers[0]
        w, b = model.layers[0]
        w[...] = (20.0 * direction / np.linalg.norm(direction))[:, None]
        b[...] = -float(w[:, 0] @ centers.mean(axis=0))
        assert observed_likelihood(task, obs, model) > -0.5


class TestTrainLoop:
    def test_metrics_log_shape_and_determinism(self):
        _, task, obs = mixture_observations("pairwise", n_groups=50)
        cfg = TrainConfig(epochs=4, warmup=True, warmup_epochs=2, confidence_cache=True,
                          batch_size=16, seed=3, val_fraction=0.2)
        runs = []
        for _ in range(2):
            model = fresh_model(task)
            result = train(obs, task, model, cfg)
            runs.append((result, model.copy_parameters()))
        a, b = runs
        assert [r.to_json() for r in a[0].metrics] == [r.to_json() for r in b[0].metrics]
        for pa, pb in zip(a[1], b[1]):
            np.testing.assert_array_equal(pa, pb)
        assert len(a[0].metrics) == 4
        assert a[0].best_epoch == int(np.argmax([r.val_metric for r in a[0].metrics])) + 1

    def test_likelihood_mostly_increases_on_full_batch(self):
        # soft diagnostic: full-batch warm-free training on easy data should
        # push the group likelihood up in >= 90% of epochs
        _, task, obs = mixture_observations("llp", n_groups=40)
        model = fresh_model(task)
        cfg = TrainConfig(epochs=20, warmup=False, confidence_cache=False,
                          batch_size=len(obs), learning_rate=1e-3, seed=4, val_fraction=0.0)
        result = train(obs, task, model, cfg)
        liks = [r.likelihood for r in result.metrics]
        improved = np.mean(np.diff(liks) >= 0)
        assert improved >= 0.9

    def test_first_batch_weights_come_from_uniform_cache(self):
        _, task, obs = mixture_observations("llp", n_groups=30)
        events = []
        model = fresh_model(task)
        cfg = TrainConfig(epochs=1, warmup=False, confidence_cache=True,
                          batch_size=8, seed=5, val_fraction=0.0)
        train(obs, task, model, cfg, weight_probe=events.append)
        first = next(e for e in events if e["phase"] == "weights")
        uniform = np.full((task.m, task.k), 1.0 / task.k)
        for etas, gi in zip(first["etas"], first["indices"]):
            np.testing.assert_array_equal(etas, uniform)
        # and the weights are the posterior under that uniform eta
        split_order = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(5).spawn(2)[0])
        ).permutation(len(obs))
        train_obs = [obs[i] for i in split_order]  # val_fraction=0 keeps all
        for gi, w in zip(first["indices"], first["weights"]):
            expected = compute_weights(group_posterior(task, uniform, train_obs[gi].z))
            np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_without_cache_weights_track_the_live_model(self):
        _, task, obs = mixture_observations("mil", n_groups=24)
        model = fresh_model(task)
        split_order = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(6).spawn(2)[0])
        ).permutation(len(obs))
        train_obs = [obs[i] for i in split_order]  # val_fraction=0 keeps all
        checked = []

        def probe(event):
            # called before the update, so the etas must equal the live model's
            if event["phase"] != "weights":
                return
            for gi, etas in zip(event["indices"], event["etas"]):
                np.testing.assert_array_equal(etas, model.predict_proba(train_obs[gi].xs))
                checked.append(gi)

        cfg = TrainConfig(epochs=2, warmup=False, confidence_cache=False,
                          batch_size=6, seed=6, val_fraction=0.0)
        train(obs, task, model, cfg, weight_probe=probe)
        assert len(checked) == 2 * len(obs)

    def test_stale_by_design_cache(self):
        _, task, obs = mixture_observations("pairwise", n_groups=40)
        model = fresh_model(task)
        refreshes = []
        cfg = TrainConfig(epochs=1, warmup=False, confidence_cache=True,
                          batch_size=20, seed=7, val_fraction=0.0)
        result = train(obs, task, model, cfg,
                       weight_probe=lambda e: refreshes.append(e) if e["phase"] == "refresh" else None)
        assert len(refreshes) == 2  # two batches
        # the cache rows equal the refresh-time values, not one final recompute
        for event in refreshes:
            np.testing.assert_array_equal(result.confidence[event["indices"]], event["values"])
        # rows refreshed by the last batch match the final model exactly
        split_order = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(7).spawn(2)[0])
        ).permutation(len(obs))
        train_obs = [obs[i] for i in split_order]
        last = refreshes[-1]
        for gi, values in zip(last["indices"], last["values"]):
            np.testing.assert_allclose(model.predict_proba(train_obs[gi].xs), values, atol=1e-12)

    def test_warmup_and_weighted_phases_are_exclusive(self):
        _, task, obs = mixture_observations("pairwise", n_groups=30)
        events = []
        model = fresh_model(task)
        cfg = TrainConfig(epochs=4, warmup=True, warmup_epochs=2, confidence_cache=False,
                          batch_size=10, seed=8, val_fraction=0.0)
        train(obs, task, model, cfg, weight_probe=events.append)
        weight_epochs = {e["epoch"] for e in events if e["phase"] == "weights"}
        assert weight_epochs == {3, 4}

    def test_all_degenerate_aborts(self):
        # all-negative bags of 30 under a model certain every instance is positive
        xs = np.ones((30, 2))
        obs = [GroupObservation(xs, 0, "mil") for _ in range(10)]
        task = Task("mil", 30, 2)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=9)
        w, b = model.layers[0]
        w[...] = 20.0
        b[...] = 0.0  # eta0 clamps to 1e-12 per instance, so pz(z=0) = 1e-360 underflows to 0
        cfg = TrainConfig(epochs=1, warmup=False, confidence_cache=False,
                          batch_size=5, seed=10, val_fraction=0.0)
        with pytest.raises(TrainingAbortError):
            train(obs, task, model, cfg)

    def test_rare_positive_bags_of_64_are_all_weighted(self):
        prior = 1.0 - 3.0 ** (-1 / 64)  # about a third of the bags are negative
        ds = harness.mixture_2class(4000, seed=21, prior=(1.0 - prior, prior))
        task = Task("mil", 64, 2)
        obs = sample_groups(ds, task, m=64, n_groups=200, seed=22)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=23)
        for w, b in model.layers:
            w[...] = 0.0
            b[...] = 0.0  # every eta is 0.5, so a negative bag starts at p(z=0) = 2**-64
        cfg = TrainConfig(epochs=3, warmup=False, confidence_cache=False, batch_size=32, seed=24)
        result = train(obs, task, model, cfg)
        assert all(r.degenerate_groups == 0 for r in result.metrics)
        test = harness.mixture_2class(2000, seed=25, prior=(0.5, 0.5))
        assert np.mean(model.predict(test.features) == (test.labels == 2)) >= 0.9

    def test_task_kind_mismatch(self):
        _, task, obs = mixture_observations("pairwise", n_groups=10)
        model = fresh_model(task)
        with pytest.raises(ValueError):
            train(obs, Task("rank", 2, 3), model, TrainConfig(epochs=1))

    def test_llp_count_vectors_validated_up_front(self):
        xs = np.zeros((3, 2))
        obs = [GroupObservation(xs, (2, 1), "llp")]  # k=3 task needs 3 counts
        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=14)
        with pytest.raises(ValueError, match="count vector"):
            train(obs, Task("llp", 3, 3), model, TrainConfig(epochs=1, val_fraction=0.0))

    def test_variable_bag_sizes_need_no_cache(self):
        rng = np.random.default_rng(11)
        obs = [
            GroupObservation(rng.normal(size=(int(m), 2)), int(rng.integers(0, 2)), "mil")
            for m in rng.integers(2, 6, size=20)
        ]
        task = Task("mil", 2, 2)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=12)
        cfg = TrainConfig(epochs=1, warmup=False, confidence_cache=True, batch_size=5,
                          seed=13, val_fraction=0.0)
        result = train(obs, task, model, cfg)  # the cache keeps one eta row per instance
        assert result.confidence.shape == (sum(o.m for o in obs), 2)
        cfg = TrainConfig(epochs=1, warmup=False, confidence_cache=False, batch_size=5,
                          seed=13, val_fraction=0.0)
        train(obs, task, model, cfg)  # runs fine without the cache


class TestMixedGroupSizes:
    """Groups of sizes 2, 3 and 5 in one run share the flat eta rows."""

    @pytest.mark.parametrize("kind,k", [("mil", 2), ("llp", 3)])
    def test_cached_weights_match_brute_force(self, kind, k):
        obs = []
        for m in (2, 3, 5):
            _, task, groups = mixture_observations(kind, n_groups=12, seed=20 + m, k=k, m=m)
            obs += groups
        model = fresh_model(task)
        split_order = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(15).spawn(2)[0])
        ).permutation(len(obs))
        train_obs = [obs[i] for i in split_order]  # val_fraction=0 keeps all
        last = {}  # group -> its etas at the latest refresh
        checked = []

        def probe(event):
            if event["phase"] == "refresh":
                last.update(zip(event["indices"], event["values"]))
                return
            for gi, etas, w in zip(event["indices"], event["etas"], event["weights"]):
                expected_etas = last.get(gi, np.full((train_obs[gi].m, k), 1.0 / k))
                np.testing.assert_array_equal(etas, expected_etas)
                expected = compute_weights(brute_force_posterior(task, etas, train_obs[gi].z))
                np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-9)
                checked.append(gi)

        cfg = TrainConfig(epochs=3, warmup=False, confidence_cache=True, batch_size=7, seed=15,
                          val_fraction=0.0)
        result = train(obs, task, model, cfg, weight_probe=probe)
        assert len(checked) + sum(r.degenerate_groups for r in result.metrics) == 3 * len(obs)
        assert {o.m for o in train_obs} == {2, 3, 5}
        # the returned flat rows are each group's values at its last refresh, in split order
        ends = np.cumsum([o.m for o in train_obs])
        assert result.confidence.shape == (ends[-1], k)
        for gi, (lo, hi) in enumerate(zip(ends - [o.m for o in train_obs], ends)):
            np.testing.assert_array_equal(result.confidence[lo:hi], last[gi])
