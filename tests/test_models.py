import json
import re

import numpy as np
import pytest

from agglearn.models import AdamState, Classifier, adam_step, softmax

# Regression lock for the seeded mlp-300 forward pass; recorded at first
# build and cross-checked below against an explicit-loop matrix multiply.
GOLDEN_MLP = {
    "d": 4,
    "k": 3,
    "seed": 123,
    "x": [0.25, -1.5, 2.0, 0.75],
    "logits": [0.06526085690689708, -0.1874604454106088, -0.04828650793284137],
}


class TestForward:
    def test_zero_weight_linear(self):
        model = Classifier.create("linear", "softmax", d=3, k=4, seed=0)
        for w, b in model.layers:
            w[...] = 0.0
            b[...] = 0.0
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(model.forward(x), np.zeros(4))
        np.testing.assert_allclose(model.predict_proba(x), 0.25, atol=1e-15)

    def test_linear_picks_weight_column_on_one_hot(self):
        model = Classifier.create("linear", "softmax", d=3, k=2, seed=0)
        w, b = model.layers[0]
        w[...] = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        b[...] = 0.0
        np.testing.assert_array_equal(model.forward(np.array([0.0, 1.0, 0.0])), [2.0, 5.0])

    def test_mlp_golden_forward(self):
        model = Classifier.create("mlp-300", "softmax", GOLDEN_MLP["d"], GOLDEN_MLP["k"], seed=GOLDEN_MLP["seed"])
        x = np.array(GOLDEN_MLP["x"])
        np.testing.assert_allclose(model.forward(x), GOLDEN_MLP["logits"], rtol=1e-12)
        # independent recomputation with plain Python loops
        w1, b1 = model.layers[0]
        w2, b2 = model.layers[1]
        hidden = [max(0.0, sum(x[i] * w1[i, j] for i in range(4)) + b1[j]) for j in range(300)]
        loops = [sum(hidden[j] * w2[j, c] for j in range(300)) + b2[c] for c in range(3)]
        np.testing.assert_allclose(loops, GOLDEN_MLP["logits"], rtol=1e-12)

    def test_dimension_mismatch(self):
        model = Classifier.create("linear", "softmax", d=3, k=2, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros(5))


class TestHeads:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 3))), 1.0 / 3.0, atol=1e-15)

    def test_sigmoid_zero_logit(self):
        model = Classifier.create("linear", "sigmoid", d=2, k=2, seed=0)
        for w, b in model.layers:
            w[...] = 0.0
            b[...] = 0.0
        np.testing.assert_allclose(model.predict_proba(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-15)

    def test_softmax_stays_finite_on_extreme_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0], [1.0, 0.0], atol=1e-12)

    def test_probabilities_on_simplex(self):
        rng = np.random.default_rng(0)
        model = Classifier.create("mlp-300", "softmax", d=3, k=5, seed=1)
        probs = model.predict_proba(rng.normal(size=(20, 3)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_sigmoid_pair_sums_to_one(self):
        rng = np.random.default_rng(1)
        model = Classifier.create("linear", "sigmoid", d=3, k=2, seed=2)
        probs = model.predict_proba(rng.normal(size=(20, 3)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_cumulative_head_monotone_with_exact_endpoints(self):
        rng = np.random.default_rng(2)
        model = Classifier.create("mlp-300", "cumulative", d=3, k=4, seed=3)
        cum = model.predict_cumulative(rng.normal(size=(10, 3)))
        assert cum.shape == (10, 5)
        np.testing.assert_array_equal(cum[:, 0], 0.0)
        np.testing.assert_array_equal(cum[:, -1], 1.0)
        assert np.all(np.diff(cum, axis=1) >= -1e-15)

    def test_prediction_invariant_to_logit_shift(self):
        rng = np.random.default_rng(3)
        model = Classifier.create("linear", "softmax", d=3, k=4, seed=4)
        x = rng.normal(size=(15, 3))
        base = model.predict(x)
        model.layers[0][1][...] += 7.5  # constant added to every logit
        np.testing.assert_array_equal(model.predict(x), base)

    def test_argmax_ties_break_low(self):
        model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
        for w, b in model.layers:
            w[...] = 0.0
            b[...] = 0.0
        assert model.predict(np.array([1.0, 1.0])) == 1

    def test_tie_rule_of_each_head(self):
        x = np.zeros((2, 4, 1))  # a (G, m, d) stack, every logit the bias alone
        sigmoid = Classifier("linear", "sigmoid", 1, 2, [(np.ones((1, 1)), np.zeros(1))])
        np.testing.assert_array_equal(sigmoid.predict_proba(x), 0.5)
        np.testing.assert_array_equal(sigmoid.predict(x), 1)  # f = 0, p(1) = 1/2: the positive class
        for head in ("softmax", "cumulative"):
            model = Classifier("linear", head, 1, 4, [(np.ones((1, 4)), np.array([1.0, 3.0, 3.0, 0.0]))])
            np.testing.assert_array_equal(model.predict(x), 2)  # classes 2 and 3 tie: the lower wins


class TestBackward:
    @staticmethod
    def _ce_loss_and_grads(model, x, y):
        logits, cache = model.forward_cached(x)
        probs = softmax(logits)
        onehot = np.eye(model.k)[y - 1]
        loss = float(-np.log(probs[np.arange(len(y)), y - 1]).sum())
        return loss, model.backward(probs - onehot, cache)

    @pytest.mark.parametrize("arch", ["linear", "mlp-300"])
    def test_cross_entropy_gradients_match_finite_differences(self, arch):
        rng = np.random.default_rng(5)
        model = Classifier.create(arch, "softmax", d=3, k=3, seed=6)
        x = rng.normal(size=(4, 3))
        y = rng.integers(1, 4, size=4)
        _, grads = self._ce_loss_and_grads(model, x, y)
        scale = max(max(np.max(np.abs(g)) for g in grads), 1e-12)
        h = 1e-5
        worst = 0.0
        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            coords = range(len(flat)) if len(flat) <= 30 else rng.choice(len(flat), 30, replace=False)
            for c in coords:
                keep = flat[c]
                flat[c] = keep + h
                up, _ = self._ce_loss_and_grads(model, x, y)
                flat[c] = keep - h
                down, _ = self._ce_loss_and_grads(model, x, y)
                flat[c] = keep
                worst = max(worst, abs((up - down) / (2 * h) - g.reshape(-1)[c]) / scale)
        assert worst < 1e-5

    def test_zero_upstream_gives_zero_gradients(self):
        model = Classifier.create("mlp-300", "softmax", d=3, k=2, seed=7)
        logits, cache = model.forward_cached(np.ones((2, 3)))
        for g in model.backward(np.zeros_like(logits), cache):
            np.testing.assert_array_equal(g, 0.0)

    def test_linear_softmax_ce_closed_form(self):
        # single example: gradient of CE w.r.t. W is x (eta - onehot)^T
        model = Classifier.create("linear", "softmax", d=3, k=3, seed=8)
        x = np.array([[0.3, -1.2, 0.8]])
        y = np.array([2])
        _, grads = self._ce_loss_and_grads(model, x, y)
        eta = model.predict_proba(x[0])
        expected = np.outer(x[0], eta - np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(grads[0], expected, atol=1e-12)
        np.testing.assert_allclose(grads[1], eta - np.array([0.0, 1.0, 0.0]), atol=1e-12)

    def test_stale_cache_shape_guard(self):
        model = Classifier.create("linear", "softmax", d=3, k=2, seed=9)
        _, cache = model.forward_cached(np.ones((4, 3)))
        with pytest.raises(ValueError):
            model.backward(np.zeros((3, 2)), cache)


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=10)
        before = model.copy_parameters()
        state = AdamState.for_model(model, lr=0.1)
        adam_step(model, [np.zeros_like(p) for p in model.parameters()], state)
        for p, q in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, q)
        assert state.step == 1

    def test_first_step_is_hand_computable(self):
        # from zero moments: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=11)
        before = model.copy_parameters()
        grads = [np.full_like(p, 0.25) for p in model.parameters()]
        state = AdamState.for_model(model, lr=0.05)
        adam_step(model, grads, state)
        expected_delta = -0.05 * 0.25 / (0.25 + 1e-8)
        for p, q in zip(model.parameters(), before):
            np.testing.assert_allclose(p - q, expected_delta, rtol=1e-12)

    def test_updates_are_bit_reproducible(self):
        runs = []
        for _ in range(2):
            model = Classifier.create("mlp-300", "softmax", d=3, k=3, seed=12)
            state = AdamState.for_model(model)
            rng = np.random.default_rng(13)
            for _ in range(3):
                grads = [rng.normal(size=p.shape) for p in model.parameters()]
                adam_step(model, grads, state)
            runs.append(model.copy_parameters())
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_default_learning_rates(self):
        assert AdamState.for_model(Classifier.create("linear", "sigmoid", 2, 2, 0)).lr == 0.2
        assert AdamState.for_model(Classifier.create("mlp-300", "softmax", 2, 3, 0)).lr == 1e-3

    def test_non_finite_gradient_aborts(self):
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=14)
        state = AdamState.for_model(model)
        grads = [np.zeros_like(p) for p in model.parameters()]
        grads[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(model, grads, state)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = Classifier.create("mlp-300", "cumulative", d=3, k=4, seed=15)
        path = tmp_path / "model.json"
        model.save(path)
        back = Classifier.load(path)
        assert (back.arch, back.head, back.d, back.k) == ("mlp-300", "cumulative", 3, 4)
        for a, b in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_schema_version_guard(self, tmp_path):
        model = Classifier.create("linear", "softmax", d=2, k=2, seed=16)
        path = tmp_path / "model.json"
        model.save(path)
        doc = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            Classifier.load(path)

    @pytest.mark.parametrize("arch, head, d, k, shapes", [
        ("linear", "softmax", 2, 3, [((2, 3), (1,))]),  # bias would broadcast
        ("linear", "softmax", 2, 4, [((2, 3), (3,))]),  # k beyond the output units
        ("linear", "sigmoid", 2, 2, [((3, 1), (1,))]),  # input width off
        ("mlp-300", "softmax", 2, 3, [((2, 3), (3,))]),  # one layer short
        ("mlp-300", "softmax", 2, 3, [((2, 10), (10,)), ((10, 3), (3,))]),  # hidden width off
    ])
    def test_layer_shapes_must_fit_the_architecture(self, arch, head, d, k, shapes):
        layers = [(np.zeros(w), np.zeros(b)) for w, b in shapes]
        with pytest.raises(ValueError):
            Classifier(arch, head, d=d, k=k, layers=layers)

    @pytest.mark.parametrize("key", ["layers", "arch", "d"])
    def test_missing_key_names_the_checkpoint(self, tmp_path, key):
        path = tmp_path / "model.json"
        Classifier.create("linear", "softmax", d=2, k=2, seed=17).save(path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path} lacks the key '{key}'")):
            Classifier.load(path)
