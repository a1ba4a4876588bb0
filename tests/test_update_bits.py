"""The weighted update path, pinned bit for bit against explicit references.

Criterion 9 pins the likelihood warm-up; these tests pin the other half:
the default cross-entropy ``aggregate_loss``, ``Classifier.backward`` and
whole weighted ``train()`` epochs, all compared with ``==``.
"""

import numpy as np
import pytest

import harness
from agglearn.data import sample_groups
from agglearn.losses import DegenerateGroupError, aggregate_loss, compute_weights
from agglearn.models import AdamState, Classifier, adam_step
from agglearn.posteriors import PROB_EPS, PZ_FLOOR, group_posterior
from agglearn.tasks import Task
from agglearn.training import TrainConfig, train

MODELS = [(arch, head) for arch in ("linear", "mlp-300") for head in ("softmax", "sigmoid")]


def _model(arch, head, seed=3):
    return Classifier.create(arch, head, d=4, k=2 if head == "sigmoid" else 3, seed=seed)


def _reference_backward(model, x, dlogits):
    """Gradients written out layer by layer, in parameters() order."""
    if model.arch == "linear":
        return [x.T @ dlogits, dlogits.sum(axis=0)]
    (w1, b1), (w2, b2) = model.layers
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    dhidden = dlogits @ w2.T
    dhidden[pre <= 0.0] = 0.0
    return [x.T @ dhidden, dhidden.sum(axis=0), hidden.T @ dlogits, dlogits.sum(axis=0)]


@pytest.mark.parametrize("arch,head", MODELS)
def test_backward_matches_an_explicit_layer_reference(arch, head):
    rng = np.random.default_rng(11)
    model = _model(arch, head)
    x = rng.normal(size=(7, 4))
    dlogits = rng.normal(size=(7, model.out_dim))
    _, cache = model.forward_cached(x)
    got = model.backward(dlogits, cache)
    want = _reference_backward(model, x, dlogits)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("arch,head", MODELS)
@pytest.mark.parametrize("m", [2, 5])
def test_default_aggregate_loss_is_weighted_cross_entropy_bit_for_bit(arch, head, m):
    rng = np.random.default_rng(m)
    model = _model(arch, head)
    xs = rng.normal(size=(m, 4))
    w = rng.dirichlet(np.ones(model.k), size=m)
    loss, grads = aggregate_loss(xs, w, model)

    logits, cache = model.forward_cached(xs)
    probs = model.probabilities(logits)
    logp = np.log(np.maximum(probs, PROB_EPS))
    row_mass = w.sum(axis=1, keepdims=True)
    dlogits = (row_mass * probs - w) / m
    if head == "sigmoid":
        dlogits = dlogits[:, 1:2]
    assert loss == float(-(w * logp).sum() / m)
    assert all(np.array_equal(a, b) for a, b in zip(grads, _reference_backward(model, xs, dlogits)))


def _reference_weighted_train(obs, task, model, epochs, batch_size, seed, cache):
    """Weighted training written as a plain per-group loop: group_posterior ->
    compute_weights -> aggregate_loss, then adam_step on the batch mean."""
    opt = AdamState.for_model(model)
    seq_split, seq_shuffle = np.random.SeedSequence(seed).spawn(2)
    order = np.random.Generator(np.random.Philox(seq_split)).permutation(len(obs))
    rng_shuffle = np.random.Generator(np.random.Philox(seq_shuffle))
    n_val = int(round(0.1 * len(obs)))
    val_obs = [obs[i] for i in order[:n_val]]
    train_obs = [obs[i] for i in order[n_val:]]
    confidence = [np.full((o.m, task.k), 1.0 / task.k) for o in train_obs]

    def loglik(groups):
        total = 0.0
        for o in groups:
            total += float(np.log(max(group_posterior(task, model.predict_proba(o.xs), o.z).pz, PZ_FLOOR)))
        return total

    records, best = [], (-np.inf, None)
    for epoch in range(1, epochs + 1):
        epoch_order = rng_shuffle.permutation(len(train_obs))
        total, count, degenerate = 0.0, 0, 0
        for start in range(0, len(train_obs), batch_size):
            batch = epoch_order[start : start + batch_size]
            etas = [confidence[gi] if cache else model.predict_proba(train_obs[gi].xs) for gi in batch]
            grads, batch_loss, used = None, 0.0, 0
            weights = []
            for gi, eta in zip(batch, etas):
                try:
                    weights.append((gi, compute_weights(group_posterior(task, eta, train_obs[gi].z))))
                except DegenerateGroupError:
                    degenerate += 1
            for gi, w in weights:
                loss, g = aggregate_loss(train_obs[gi].xs, w, model)
                grads = g if grads is None else [a + b for a, b in zip(grads, g)]
                batch_loss += loss
                used += 1
            if used:
                adam_step(model, [g / used for g in grads], opt)
                total += batch_loss
                count += used
            if cache:
                for gi in batch:
                    confidence[gi] = model.predict_proba(train_obs[gi].xs)
        val = loglik(val_obs) / len(val_obs)
        records.append({"epoch": epoch, "train_loss": total / count, "val_metric": val,
                        "likelihood": loglik(train_obs), "degenerate_groups": degenerate})
        if val > best[0]:
            best = (val, model.copy_parameters())
    return records, best[1]


@pytest.mark.parametrize(
    "kind,m,k,arch,head,cache",
    [
        ("pairwise", 2, 3, "mlp-300", "softmax", True),
        ("pairwise", 2, 3, "mlp-300", "softmax", False),
        ("llp", 4, 3, "linear", "softmax", True),
        # rare positives in bags of 32: many negative bags fall under the p(z) floor
        ("mil", 32, 2, "linear", "sigmoid", False),
    ],
)
def test_weighted_epochs_match_a_per_group_loop(kind, m, k, arch, head, cache):
    ds = harness.mixture_3class(120, seed=7) if k == 3 else harness.mixture_2class(400, seed=7, prior=(0.95, 0.05))
    task = Task(kind, m, k)
    obs = sample_groups(ds, task, m=m, n_groups=120, seed=8)
    epochs, batch_size, seed = 3, 16, 5

    model = Classifier.create(arch, head, d=2, k=k, seed=4)
    result = train(obs, task, model, TrainConfig(
        epochs=epochs, warmup=False, confidence_cache=cache, batch_size=batch_size, seed=seed))

    reference = Classifier.create(arch, head, d=2, k=k, seed=4)
    records, best_params = _reference_weighted_train(obs, task, reference, epochs, batch_size, seed, cache)
    assert [r.to_json() for r in result.metrics] == records
    if kind == "mil":
        assert all(r["degenerate_groups"] > 0 for r in records)  # the skip path ran
    assert all(np.array_equal(a, b) for a, b in zip(model.copy_parameters(), best_params))
