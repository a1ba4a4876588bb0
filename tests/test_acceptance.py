"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured deviations/runtimes.
"""

import os
import time

import numpy as np
import pytest

from agglearn.data import load_csv, sample_groups
from agglearn.evaluation import (
    accuracy,
    brute_force_matching,
    confusion_counts,
    fit_matching,
    group_accuracy_mil,
    matched_accuracy,
    modified_accuracy,
)
from agglearn.losses import compute_weights
from agglearn.models import Classifier
from agglearn.posteriors import group_posterior
from agglearn.tasks import Task
from agglearn.training import TrainConfig, default_flags, train
from agglearn.verify import (
    EM_EQUALITY_TOL,
    EM_JENSEN_SLACK,
    GRAD_REL_TOL,
    MARGINAL_TOL,
    NORMALIZATION_TOL,
    ORACLE_TOL,
    UNBIASED_TOL,
    em_suite,
    grad_suite,
    oracle_suite,
    unbiased_suite,
)

import harness


def _report(criterion, detail, passed=True):
    print(f"[criterion {criterion}] {detail} -- {'PASS' if passed else 'FAIL'}")
    assert passed


class TestCriterion1And2Oracle:
    def test_oracle_equivalence_marginalization_normalization(self):
        t0 = time.perf_counter()
        summary = oracle_suite(trials=200, seed=20240901)
        elapsed = time.perf_counter() - t0
        checks = {c["name"]: c for c in summary["checks"]}
        worst_oracle = max(c["max_deviation"] for n, c in checks.items() if n.startswith("oracle/"))
        worst_marg = max(c["max_deviation"] for n, c in checks.items() if n.startswith("marginalization/"))
        worst_norm = max(c["max_deviation"] for n, c in checks.items() if n.startswith("normalization/"))
        _report(
            1,
            f"oracle equivalence, 200 trials x 6 tasks: max dev {worst_oracle:.2e} "
            f"(tol {ORACLE_TOL}), {elapsed:.1f}s of 30s budget",
            worst_oracle <= ORACLE_TOL and elapsed < 30.0,
        )
        _report(
            2,
            f"marginalization max dev {worst_marg:.2e} (tol {MARGINAL_TOL}); "
            f"normalization max dev {worst_norm:.2e} (tol {NORMALIZATION_TOL})",
            worst_marg <= MARGINAL_TOL and worst_norm <= NORMALIZATION_TOL,
        )


class TestCriterion3Unbiasedness:
    def test_exact_unbiasedness_on_finite_domains(self):
        t0 = time.perf_counter()
        summary = unbiased_suite(classifiers=20, seed=20240902)
        elapsed = time.perf_counter() - t0
        worst = max(c["max_deviation"] for c in summary["checks"])
        _report(
            3,
            f"E[weighted group loss] vs supervised risk, 20 classifiers x {len(summary['checks'])} tasks: "
            f"max dev {worst:.2e} (tol {UNBIASED_TOL}), {elapsed:.1f}s of 60s budget",
            worst <= UNBIASED_TOL and elapsed < 60.0,
        )


class TestCriterion4Jensen:
    def test_bound_equality_and_dominance(self):
        summary = em_suite(cases=10, perturbations=100, seed=20240903)
        checks = {c["name"]: c for c in summary["checks"]}
        worst_eq = max(c["max_deviation"] for n, c in checks.items() if n.startswith("em-equality/"))
        worst_dom = max(c["max_deviation"] for n, c in checks.items() if n.startswith("em-dominance/"))
        _report(
            4,
            f"Jensen bound: tight-at-posterior dev {worst_eq:.2e} (tol {EM_EQUALITY_TOL}); "
            f"perturbation excess {worst_dom:.2e} (slack {EM_JENSEN_SLACK})",
            worst_eq <= EM_EQUALITY_TOL and worst_dom <= EM_JENSEN_SLACK,
        )


class TestCriterion5Gradients:
    def test_finite_difference_agreement(self):
        summary = grad_suite(seed=20240904)
        worst = max(c["max_deviation"] for c in summary["checks"])
        _report(
            5,
            f"loss gradients vs central differences, both architectures, all heads: "
            f"max rel err {worst:.2e} (tol {GRAD_REL_TOL})",
            worst <= GRAD_REL_TOL,
        )


class TestCriterion6Assignment:
    def test_hungarian_matches_factorial_search(self):
        rng = np.random.default_rng(20240905)
        mismatches = 0
        for _ in range(200):
            k = int(rng.integers(2, 7))
            confusion = rng.integers(0, 50, size=(k, k))
            if confusion.sum() == 0:
                confusion[0, 0] = 1
            frac, perm = modified_accuracy(confusion)
            bf_frac, bf_perm = brute_force_matching(confusion)
            if frac != bf_frac or not np.array_equal(perm, bf_perm):
                mismatches += 1
        _report(
            6,
            f"assignment matching vs factorial search: {mismatches} mismatches in 200 matrices (k <= 6)",
            mismatches == 0,
        )


class TestCriterion7DeskScaleLearning:
    """Group-supervised training lands within 5 points of the supervised oracle."""

    @staticmethod
    def _matched_test_accuracy(model, val_ds, test_ds, k):
        _, perm = modified_accuracy(confusion_counts(model.predict(val_ds.features), val_ds.labels, k))
        frac, _ = matched_accuracy(model.predict(test_ds.features), test_ds.labels, k, perm=perm)
        return frac

    def test_pairwise(self):
        t0 = time.perf_counter()
        train_ds = harness.mixture_3class(1500, seed=11)
        val_ds = harness.mixture_3class(500, seed=13)
        test_ds = harness.mixture_3class(2000, seed=12)
        supervised = harness.train_supervised(train_ds, "mlp-300", "softmax", epochs=50, seed=1)
        sup_acc = accuracy(supervised.predict(test_ds.features), test_ds.labels)

        task = Task("pairwise", 2, 3)
        obs = sample_groups(train_ds, task, m=2, n_groups=3000, seed=21)
        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=1)
        train(obs, task, model, TrainConfig(epochs=50, warmup=True, warmup_epochs=15,
                                            confidence_cache=True, batch_size=128, seed=5))
        uum_acc = self._matched_test_accuracy(model, val_ds, test_ds, 3)
        elapsed = time.perf_counter() - t0
        _report(
            "7/pairwise",
            f"matched test acc {uum_acc:.4f} vs supervised {sup_acc:.4f} "
            f"(margin 0.05), {elapsed:.0f}s of 180s budget",
            uum_acc >= sup_acc - 0.05 and elapsed < 180.0,
        )

    def test_triplet(self):
        train_ds = harness.mixture_3class(1500, seed=11)
        val_ds = harness.mixture_3class(500, seed=13)
        test_ds = harness.mixture_3class(2000, seed=12)
        supervised = harness.train_supervised(train_ds, "mlp-300", "softmax", epochs=50, seed=1)
        sup_acc = accuracy(supervised.predict(test_ds.features), test_ds.labels)

        task = Task("triplet", 3, 3)
        obs = sample_groups(train_ds, task, m=3, n_groups=3000, seed=22)
        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=1)
        train(obs, task, model, TrainConfig(epochs=50, warmup=True, warmup_epochs=15,
                                            confidence_cache=True, batch_size=128, seed=5))
        uum_acc = self._matched_test_accuracy(model, val_ds, test_ds, 3)
        _report(
            "7/triplet",
            f"matched test acc {uum_acc:.4f} vs supervised {sup_acc:.4f} (margin 0.05)",
            uum_acc >= sup_acc - 0.05,
        )

    def test_label_proportions(self):
        train_ds = harness.mixture_3class(1500, seed=11)
        test_ds = harness.mixture_3class(2000, seed=12)
        supervised = harness.train_supervised(train_ds, "mlp-300", "softmax", epochs=50, seed=1)
        sup_acc = accuracy(supervised.predict(test_ds.features), test_ds.labels)

        task = Task("llp", 6, 3)
        obs = sample_groups(train_ds, task, m=6, n_groups=1500, seed=23)
        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=1)
        warmup, warmup_epochs, cache = default_flags(task)
        train(obs, task, model, TrainConfig(epochs=50, warmup=warmup, warmup_epochs=0,
                                            confidence_cache=cache, batch_size=128, seed=5))
        # proportions identify the classes, so plain accuracy applies
        uum_acc = accuracy(model.predict(test_ds.features), test_ds.labels)
        _report(
            "7/llp",
            f"test acc {uum_acc:.4f} vs supervised {sup_acc:.4f} (margin 0.05, m=6)",
            uum_acc >= sup_acc - 0.05,
        )

    def test_multiple_instance(self):
        train_ds = harness.mixture_2class(1500, seed=31)
        test_ds = harness.mixture_2class(2000, seed=32)
        supervised = harness.train_supervised(train_ds, "linear", "sigmoid", epochs=50, seed=1)
        labels01 = (test_ds.labels == 2).astype(np.int64)
        sup_acc = accuracy(supervised.predict(test_ds.features), labels01)

        task = Task("mil", 3, 2)
        obs = sample_groups(train_ds, task, m=3, n_groups=1500, seed=24)
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=1)
        warmup, warmup_epochs, cache = default_flags(task)
        train(obs, task, model, TrainConfig(epochs=50, warmup=warmup, warmup_epochs=warmup_epochs,
                                            confidence_cache=cache, batch_size=128, seed=5))
        inst_acc = accuracy(model.predict(test_ds.features), labels01)
        test_obs = sample_groups(test_ds, task, m=3, n_groups=1000, seed=25)
        bag_acc = group_accuracy_mil(model, test_obs)
        _report(
            "7/mil",
            f"instance acc {inst_acc:.4f} vs supervised {sup_acc:.4f} (margin 0.05); "
            f"bag-level acc {bag_acc:.4f}",
            inst_acc >= sup_acc - 0.05,
        )

    @staticmethod
    def _train_ordinal(kind, m):
        """The 3-class mixture at a smaller budget than the runs above: 1,000 groups, 20 epochs."""
        train_ds = harness.mixture_3class(1500, seed=11)
        supervised = harness.train_supervised(train_ds, "mlp-300", "cumulative", epochs=50, seed=1)
        task = Task(kind, m, 3)
        obs = sample_groups(train_ds, task, m=m, n_groups=1000, seed=25)
        model = Classifier.create("mlp-300", "cumulative", d=2, k=3, seed=1)
        train(obs, task, model, TrainConfig(epochs=20, warmup=True, warmup_epochs=5,
                                            confidence_cache=True, batch_size=128, seed=5))
        return model, supervised

    def test_rank(self):
        test_ds = harness.mixture_3class(2000, seed=12)
        model, supervised = self._train_ordinal("rank", 2)
        sup_acc = accuracy(supervised.predict(test_ds.features), test_ds.labels)
        # rank fixes the class order, so plain accuracy applies
        rank_acc = accuracy(model.predict(test_ds.features), test_ds.labels)
        _report("7/rank", f"test acc {rank_acc:.4f} vs supervised {sup_acc:.4f} (margin 0.05)",
                rank_acc >= sup_acc - 0.05)

    def test_ordinal_triplet(self):
        val_ds = harness.mixture_3class(500, seed=13)
        test_ds = harness.mixture_3class(2000, seed=12)
        model, supervised = self._train_ordinal("ordinal_triplet", 3)
        sup_acc = accuracy(supervised.predict(test_ds.features), test_ds.labels)
        # the label cannot tell the class order from its reverse: fit one of the two on val
        perm = fit_matching(model.predict(val_ds.features), val_ds.labels, 3, "reversal")
        frac, _ = matched_accuracy(model.predict(test_ds.features), test_ds.labels, 3, perm=perm)
        _report("7/ordinal_triplet",
                f"test acc {frac:.4f} under matching {[int(p) for p in perm]} vs supervised {sup_acc:.4f} (margin 0.05)",
                frac >= sup_acc - 0.05)


VEHICLE_ENV = "AGGLEARN_VEHICLE_CSV"


class TestCriterion8VehicleBestEffort:
    """Best-effort reproduction of the published pairwise result on the UCI
    vehicle table (78.71 +/- 4.20); the original splits are unknown, so the
    gate is +/- 6 points. Runs only when the CSV is supplied via
    $AGGLEARN_VEHICLE_CSV (headline image benchmarks need deep vision
    backbones and are out of scope by design).
    """

    @pytest.mark.skipif(VEHICLE_ENV not in os.environ, reason=f"set ${VEHICLE_ENV} to run")
    def test_vehicle_pairwise(self):
        ds = load_csv(os.environ[VEHICLE_ENV])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        order = rng.permutation(ds.n)
        n_train, n_val = int(0.6 * ds.n), int(0.2 * ds.n)
        train_ds = ds.subset(order[:n_train])
        val_ds = ds.subset(order[n_train : n_train + n_val])
        test_ds = ds.subset(order[n_train + n_val :])
        # standardize on training statistics; the features span wildly
        # different scales otherwise
        mu = train_ds.features.mean(axis=0)
        sigma = train_ds.features.std(axis=0) + 1e-12
        for split in (train_ds, val_ds, test_ds):
            split.features = (split.features - mu) / sigma

        task = Task("pairwise", 2, ds.k)
        obs = sample_groups(train_ds, task, m=2, n_groups=2 * ds.n, seed=78)
        model = Classifier.create("mlp-300", "softmax", d=ds.d, k=ds.k, seed=79)
        train(obs, task, model, TrainConfig(epochs=200, warmup=True, warmup_epochs=100,
                                            confidence_cache=True, batch_size=128, seed=80))
        _, perm = modified_accuracy(
            confusion_counts(model.predict(val_ds.features), val_ds.labels, ds.k)
        )
        acc, _ = matched_accuracy(model.predict(test_ds.features), test_ds.labels, ds.k, perm=perm)
        _report(
            8,
            f"vehicle pairwise matched acc {acc:.4f}, target 0.7871 +/- 0.06",
            abs(acc - 0.7871) <= 0.06,
        )


class TestCriterion9AlgorithmFidelity:
    def test_full_warmup_is_bit_identical_to_likelihood_baseline(self):
        """Full-length warm-up must reproduce, bit for bit, a standalone
        log-likelihood loop written independently here (same split,
        shuffle, batching, and optimizer conventions)."""
        from agglearn.losses import loglik_loss
        from agglearn.models import AdamState, adam_step
        from agglearn.training import observed_likelihood

        ds = harness.mixture_3class(200, seed=41)
        task = Task("pairwise", 2, 3)
        obs = sample_groups(ds, task, m=2, n_groups=200, seed=42)
        epochs, batch_size, seed = 5, 64, 3

        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=2)
        result = train(obs, task, model, TrainConfig(
            epochs=epochs, warmup=True, warmup_epochs=epochs,
            confidence_cache=False, batch_size=batch_size, seed=seed))
        loop_metrics = [r.to_json() for r in result.metrics]

        # reference baseline: nothing but -log p(z | group) updates
        baseline = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=2)
        opt = AdamState.for_model(baseline)
        seq_split, seq_shuffle = np.random.SeedSequence(seed).spawn(2)
        order = np.random.Generator(np.random.Philox(seq_split)).permutation(len(obs))
        rng_shuffle = np.random.Generator(np.random.Philox(seq_shuffle))
        n_val = int(round(0.1 * len(obs)))
        val_obs = [obs[i] for i in order[:n_val]]
        train_obs = [obs[i] for i in order[n_val:]]
        base_metrics = []
        best = (-np.inf, None)
        for epoch in range(1, epochs + 1):
            epoch_order = rng_shuffle.permutation(len(train_obs))
            total, count = 0.0, 0
            for start in range(0, len(train_obs), batch_size):
                grads = None
                batch_loss = 0.0
                batch = epoch_order[start : start + batch_size]
                for gi in batch:
                    o = train_obs[gi]
                    loss, g = loglik_loss(task, o.xs, o.z, baseline)
                    grads = g if grads is None else [a + b for a, b in zip(grads, g)]
                    batch_loss += loss
                adam_step(baseline, [g / len(batch) for g in grads], opt)
                total += batch_loss
                count += len(batch)
            lik = observed_likelihood(task, train_obs, baseline)
            val = observed_likelihood(task, val_obs, baseline) / len(val_obs)
            base_metrics.append({"epoch": epoch, "train_loss": total / count,
                                 "val_metric": val, "likelihood": lik,
                                 "degenerate_groups": 0})
            if val > best[0]:
                best = (val, baseline.copy_parameters())

        identical = loop_metrics == base_metrics and all(
            np.array_equal(a, b) for a, b in zip(model.copy_parameters(), best[1])
        )
        _report(
            "9/baseline",
            "T_init = T_max reproduces an independent likelihood baseline bit-identically",
            identical,
        )

    def test_cache_toggle_changes_only_the_eta_source(self):
        ds = harness.mixture_3class(150, seed=51)
        task = Task("pairwise", 2, 3)
        obs = sample_groups(ds, task, m=2, n_groups=150, seed=52)
        split_order = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(4).spawn(2)[0])
        ).permutation(len(obs))
        train_obs = [obs[i] for i in split_order]

        # cached run: weights must equal a reference recomputation from the
        # cache mirror (uniform until a refresh touches the row)
        mirror = {}
        deviation = [0.0]

        def cached_probe(event):
            if event["phase"] == "weights":
                for gi, etas, w in zip(event["indices"], event["etas"], event["weights"]):
                    ref_etas = mirror.get(gi, np.full((task.m, task.k), 1.0 / task.k))
                    ref = compute_weights(group_posterior(task, ref_etas, train_obs[gi].z))
                    deviation[0] = max(deviation[0], float(np.max(np.abs(w - ref))))
                    deviation[0] = max(deviation[0], float(np.max(np.abs(etas - ref_etas))))
            else:
                for gi, values in zip(event["indices"], event["values"]):
                    mirror[gi] = values

        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=2)
        train(obs, task, model, TrainConfig(epochs=2, warmup=False, confidence_cache=True,
                                            batch_size=32, seed=4, val_fraction=0.0),
              weight_probe=cached_probe)

        # uncached run: weights must equal a recomputation from the live model
        live_dev = [0.0]
        model2 = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=2)

        def live_probe(event):
            if event["phase"] != "weights":
                return
            for gi, etas, w in zip(event["indices"], event["etas"], event["weights"]):
                ref_etas = model2.predict_proba(train_obs[gi].xs)
                ref = compute_weights(group_posterior(task, ref_etas, train_obs[gi].z))
                live_dev[0] = max(live_dev[0], float(np.max(np.abs(w - ref))))
                live_dev[0] = max(live_dev[0], float(np.max(np.abs(etas - ref_etas))))

        train(obs, task, model2, TrainConfig(epochs=2, warmup=False, confidence_cache=False,
                                             batch_size=32, seed=4, val_fraction=0.0),
              weight_probe=live_probe)
        _report(
            "9/cache-toggle",
            f"weights match reference recomputation: cached dev {deviation[0]:.2e}, "
            f"live dev {live_dev[0]:.2e}",
            deviation[0] == 0.0 and live_dev[0] == 0.0,
        )
