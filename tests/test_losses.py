import numpy as np
import pytest

from agglearn.losses import (
    DegenerateGroupError,
    aggregate_loss,
    compute_weights,
    em_lower_bound,
    estep_omega,
    loglik_loss,
)
from agglearn.models import Classifier
from agglearn.posteriors import GroupPosterior, group_posterior, posterior_mil, posterior_pairwise
from agglearn.tasks import TASKS, Task, aggregate_label, consistent_tuples


def uniform_model(head="softmax", d=2, k=3):
    model = Classifier.create("mlp-300" if head != "sigmoid" else "linear", head, d=d, k=k, seed=0)
    for w, b in model.layers:
        w[...] = 0.0
        b[...] = 0.0
    return model


class TestComputeWeights:
    def test_uniform_pairwise_weights(self):
        post = posterior_pairwise([0.5, 0.5], [0.5, 0.5], 1)
        np.testing.assert_allclose(compute_weights(post), 0.5, atol=1e-12)

    def test_negative_bag_weights(self):
        etas = np.array([[0.3, 0.7], [0.8, 0.2], [0.5, 0.5]])
        w = compute_weights(posterior_mil(etas, 0))
        np.testing.assert_allclose(w[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(w[:, 0], 1.0, atol=1e-12)

    def test_worked_pairwise_example(self):
        post = posterior_pairwise([0.8, 0.2], [0.6, 0.4], 1)
        np.testing.assert_allclose(compute_weights(post)[0], np.array([0.48, 0.08]) / 0.56, atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            etas = rng.dirichlet(np.ones(4), size=3)
            post = group_posterior(Task("triplet", 3, 4), etas, int(rng.integers(0, 2)))
            w = compute_weights(post)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
            assert np.all((w >= 0.0) & (w <= 1.0))

    def test_negative_bag_of_64_below_the_old_floor_gets_exact_weights(self):
        etas = np.tile([0.5, 0.5], (64, 1))  # p(z=0) = 2**-64, about 5e-20
        post = posterior_mil(etas, 0)
        assert 1e-36 < post.pz < 1e-12
        w = compute_weights(post)
        assert np.array_equal(w, np.tile([1.0, 0.0], (64, 1)))

    def test_degenerate_group_raises(self):
        post = GroupPosterior(pz=0.0, joint=np.zeros((2, 3)))
        with pytest.raises(DegenerateGroupError):
            compute_weights(post)


class TestWeightsFromRowSums:
    # one task per registered kind; a kind added to TASKS needs an entry here
    TASKS_BY_KIND = {
        "pairwise": Task("pairwise", 2, 3),
        "triplet": Task("triplet", 3, 4),
        "llp": Task("llp", 6, 3),
        "mil": Task("mil", 16, 2),
        "rank": Task("rank", 2, 4),
        "ordinal_triplet": Task("ordinal_triplet", 3, 4),
    }

    def test_every_kind_is_covered(self):
        assert set(self.TASKS_BY_KIND) == set(TASKS)

    @pytest.mark.parametrize("kind", sorted(TASKS))
    def test_weights_are_joint_rows_over_their_own_sums(self, kind):
        # each joint row sums to p(z) only up to rounding, so dividing by pz
        # instead moves the bits of many groups; this pins the row-sum divisor
        task = self.TASKS_BY_KIND[kind]
        rng = np.random.default_rng(sorted(TASKS).index(kind))
        labels = np.array(task.label_values)
        pz_form_differs = 0
        for _ in range(200):
            etas = rng.dirichlet(np.ones(task.k), size=task.m)
            z = aggregate_label(task, rng.choice(labels, size=task.m))
            post = group_posterior(task, etas, z)
            want = post.joint / post.joint.sum(axis=1, keepdims=True)
            assert np.array_equal(compute_weights(post).view(np.uint64), want.view(np.uint64))
            pz_form_differs += not np.array_equal(want, post.joint / post.pz)
        assert pz_form_differs > 0


class TestAggregateLoss:
    def test_one_hot_weights_reduce_to_supervised_loss(self):
        rng = np.random.default_rng(1)
        model = Classifier.create("mlp-300", "softmax", d=3, k=3, seed=2)
        xs = rng.normal(size=(2, 3))
        labels = np.array([2, 1])
        weights = np.eye(3)[labels - 1]
        loss, _ = aggregate_loss(xs, weights, model)
        probs = model.predict_proba(xs)
        expected = -np.log(probs[[0, 1], labels - 1]).mean()
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_uniform_weights_average_all_classes(self):
        rng = np.random.default_rng(2)
        model = Classifier.create("linear", "softmax", d=3, k=4, seed=3)
        xs = rng.normal(size=(3, 3))
        loss, _ = aggregate_loss(xs, np.full((3, 4), 0.25), model)
        expected = -np.log(model.predict_proba(xs)).mean(axis=1).mean()
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_loss_is_linear_in_weights(self):
        # the weights are constants: mixing weight matrices mixes losses exactly
        rng = np.random.default_rng(3)
        model = Classifier.create("mlp-300", "softmax", d=3, k=3, seed=4)
        xs = rng.normal(size=(2, 3))
        w1 = rng.dirichlet(np.ones(3), size=2)
        w2 = rng.dirichlet(np.ones(3), size=2)
        half, _ = aggregate_loss(xs, 0.5 * w1 + 0.5 * w2, model)
        l1, _ = aggregate_loss(xs, w1, model)
        l2, _ = aggregate_loss(xs, w2, model)
        assert half == pytest.approx(0.5 * l1 + 0.5 * l2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = Classifier.create("linear", "softmax", d=2, k=3, seed=5)
        xs = rng.normal(size=(2, 2))
        weights = rng.dirichlet(np.ones(3), size=2)
        _, grads = aggregate_loss(xs, weights, model)
        h = 1e-5
        scale = max(max(np.max(np.abs(g)) for g in grads), 1e-12)
        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            for c in range(len(flat)):
                keep = flat[c]
                flat[c] = keep + h
                up, _ = aggregate_loss(xs, weights, model)
                flat[c] = keep - h
                down, _ = aggregate_loss(xs, weights, model)
                flat[c] = keep
                assert abs((up - down) / (2 * h) - g.reshape(-1)[c]) / scale < 1e-5

    def test_custom_instance_loss_plugs_in(self):
        # Brier-style loss on the class probabilities, with its own gradient;
        # the weighting machinery must consume it unchanged.
        from agglearn.models import softmax

        def brier(logits):
            probs = softmax(logits)
            m, k = probs.shape
            values = np.empty((m, k))
            dvalues = np.empty((m, k, k))
            eye = np.eye(k)
            for i in range(m):
                jac = np.diag(probs[i]) - np.outer(probs[i], probs[i])
                for j in range(k):
                    diff = probs[i] - eye[j]
                    values[i, j] = float(diff @ diff)
                    dvalues[i, j] = 2.0 * diff @ jac
            return values, dvalues

        rng = np.random.default_rng(5)
        model = Classifier.create("linear", "softmax", d=2, k=3, seed=6)
        xs = rng.normal(size=(2, 2))
        weights = rng.dirichlet(np.ones(3), size=2)
        loss, grads = aggregate_loss(xs, weights, model, instance_loss=brier)
        assert loss > 0.0
        h = 1e-5
        scale = max(max(np.max(np.abs(g)) for g in grads), 1e-12)
        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            for c in range(len(flat)):
                keep = flat[c]
                flat[c] = keep + h
                up, _ = aggregate_loss(xs, weights, model, instance_loss=brier)
                flat[c] = keep - h
                down, _ = aggregate_loss(xs, weights, model, instance_loss=brier)
                flat[c] = keep
                assert abs((up - down) / (2 * h) - g.reshape(-1)[c]) / scale < 1e-5


class TestLoglikLoss:
    def test_certain_consistent_pair_has_zero_loss(self):
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=6)
        w, b = model.layers[0]
        w[...] = 0.0
        b[...] = np.array([50.0, -50.0])  # eta ~ one-hot on class 1 for any x
        loss, _ = loglik_loss(Task("pairwise", 2, 2), np.ones((2, 2)), 1, model)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_pairwise_loss_is_log_two(self):
        model = uniform_model(k=2)
        loss, _ = loglik_loss(Task("pairwise", 2, 2), np.ones((2, 2)), 1, model)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "kind,m,k,head",
        [
            ("pairwise", 2, 3, "softmax"),
            ("llp", 3, 3, "softmax"),
            ("mil", 3, 2, "sigmoid"),
            ("rank", 2, 4, "cumulative"),
        ],
    )
    def test_gradient_matches_finite_differences(self, kind, m, k, head):
        rng = np.random.default_rng(7)
        task = Task(kind, m, k)
        model = Classifier.create("linear", head, d=2, k=k, seed=8)
        xs = rng.normal(size=(m, 2))
        z = (2, 1, 0) if kind == "llp" else 1
        _, grads = loglik_loss(task, xs, z, model)
        h = 1e-5
        scale = max(max(np.max(np.abs(g)) for g in grads), 1e-12)
        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            for c in range(len(flat)):
                keep = flat[c]
                flat[c] = keep + h
                up, _ = loglik_loss(task, xs, z, model)
                flat[c] = keep - h
                down, _ = loglik_loss(task, xs, z, model)
                flat[c] = keep
                assert abs((up - down) / (2 * h) - g.reshape(-1)[c]) / scale < 1e-5


class TestEmLowerBound:
    def test_posterior_responsibilities_make_it_tight(self):
        rng = np.random.default_rng(9)
        task = Task("triplet", 3, 3)
        model = Classifier.create("linear", "softmax", d=2, k=3, seed=10)
        xs = rng.normal(size=(3, 2))
        etas = model.predict_proba(xs)
        for z in (0, 1):
            post = group_posterior(task, etas, z)
            omega = estep_omega(task, etas, z)
            bound = em_lower_bound(task, xs, z, omega, model)
            assert bound == pytest.approx(np.log(post.pz), abs=1e-9)

    def test_other_responsibilities_stay_below(self):
        rng = np.random.default_rng(10)
        task = Task("pairwise", 2, 4)
        model = Classifier.create("linear", "softmax", d=2, k=4, seed=11)
        xs = rng.normal(size=(2, 2))
        etas = model.predict_proba(xs)
        omega_star = estep_omega(task, etas, 1)
        tight = em_lower_bound(task, xs, 1, omega_star, model)
        for _ in range(100):
            omega = rng.dirichlet(np.ones(len(omega_star)))
            assert em_lower_bound(task, xs, 1, omega, model) <= tight + 1e-12

    def test_singleton_support(self):
        task = Task("llp", 3, 2)
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=12)
        xs = np.ones((3, 2))
        z = (3, 0)
        assert consistent_tuples(task, z) == [(1, 1, 1)]
        etas = model.predict_proba(xs)
        bound = em_lower_bound(task, xs, z, np.array([1.0]), model)
        assert bound == pytest.approx(float(np.log(etas[:, 0]).sum()), rel=1e-9)

    @pytest.mark.parametrize("task, z", [
        (Task("pairwise", 2, 3), 0), (Task("triplet", 3, 3), 1), (Task("llp", 4, 3), (2, 1, 1)),
        (Task("mil", 4, 2), 1), (Task("rank", 2, 4), 0), (Task("ordinal_triplet", 3, 3), 1),
    ])
    def test_tuple_masses_match_a_loop_over_the_consistent_tuples(self, task, z):
        rng = np.random.default_rng(13)
        head = {"mil": "sigmoid", "rank": "cumulative", "ordinal_triplet": "cumulative"}.get(task.kind, "softmax")
        model = Classifier.create("linear", head, d=2, k=task.k, seed=14)
        xs = rng.normal(size=(task.m, 2))
        etas = model.predict_proba(xs)
        offset = task.label_values[0]
        masses = np.array([np.prod([etas[i, y - offset] for i, y in enumerate(tup)])
                           for tup in consistent_tuples(task, z)])
        np.testing.assert_allclose(estep_omega(task, etas, z), masses / masses.sum(), rtol=1e-13, atol=0)
        omega = rng.dirichlet(np.ones(len(masses)))
        reference = sum(w * (np.log(p) - np.log(w)) for p, w in zip(masses, omega))
        assert em_lower_bound(task, xs, z, omega, model) == pytest.approx(reference, rel=1e-12)

    def test_rejects_unnormalized_responsibilities(self):
        task = Task("pairwise", 2, 2)
        model = uniform_model(k=2)
        xs = np.ones((2, 2))
        n = len(consistent_tuples(task, 1))
        with pytest.raises(ValueError):
            em_lower_bound(task, xs, 1, np.full(n, 0.7), model)
