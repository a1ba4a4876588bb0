"""Training objectives built on the group posteriors.

Two differentiable objectives share one model code path:

* ``aggregate_loss`` -- the importance-weighted group loss. Each instance
  contributes every class, weighted by w[i][j] = p(z, y_i=j | x_1..m) /
  p(z | x_1..m); the weights are constants (no gradient flows through
  them). Averaged over groups this is the empirical risk whose expectation
  equals the fully supervised classification risk.

* ``loglik_loss`` -- the group-level negative log-likelihood
  -log p(z | x_1..m), differentiated end to end through the posterior.
  Because p(z | x_1..m) is multilinear in the per-instance class
  probabilities, its exact logit gradient collapses to
  (eta - joint/pz) per instance, the same soft-target form as
  cross-entropy.

``em_lower_bound`` materializes the tuple-level responsibilities over the
consistent set S(z) and evaluates the Jensen lower bound on the group
log-likelihood; with the posterior responsibilities it is tight.

The per-instance loss is softmax cross-entropy (multi-class, cumulative
head included: the per-class probabilities are the softmax outputs either
way) or the logistic loss (sigmoid head), which is exactly 2-class
cross-entropy over (1 - s(f), s(f)).
"""

from __future__ import annotations

import numpy as np

from .models import Classifier
from .posteriors import PROB_EPS, PZ_FLOOR, GroupPosterior, group_posterior
from .tasks import Task, consistent_tuples

# Renormalize a weight row only when it has drifted beyond this.
ROW_SUM_TOL = 1e-9

# The EM bound enumerates S(z) explicitly, so it only supports small groups.
EM_MAX_TUPLES = 10**5


class DegenerateGroupError(ValueError):
    """The observed aggregate label has ~zero probability under the model."""


def compute_weights(posterior: GroupPosterior) -> np.ndarray:
    """Per-instance class weights w[i][j] = joint[i][j] / pz, rows on the simplex.

    Raises DegenerateGroupError at the pz floor; callers skip such groups
    and count them instead of letting a single near-impossible group
    dominate the risk.
    """
    if posterior.pz <= PZ_FLOOR:
        raise DegenerateGroupError(f"p(z | group) = {posterior.pz:.3e} at or below the floor")
    w = posterior.joint / posterior.pz
    sums = w.sum(axis=1, keepdims=True)
    drifted = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(drifted):
        w = np.where(drifted & (sums > 0.0), w / sums, w)
    return np.clip(w, 0.0, 1.0)


def _to_logit_grad(model: Classifier, dprob_style: np.ndarray) -> np.ndarray:
    """Map a (rowsums*probs - target)-style gradient to the model's logits.

    For softmax/cumulative heads that expression already is the logit
    gradient; the sigmoid head keeps only the positive-class column (the
    negative logit is pinned at zero).
    """
    if model.head == "sigmoid":
        return dprob_style[:, 1:2]
    return dprob_style


def aggregate_loss(xs, weights, model: Classifier, instance_loss=None):
    """Weighted group loss and its parameter gradients.

    loss = (1/m) sum_i sum_j w[i][j] * L(x_i, j; f) with L defaulting to
    the per-instance cross-entropy / logistic loss. ``weights`` are treated
    as constants.

    The weighting scheme is loss-agnostic: pass ``instance_loss`` to swap
    L. It receives the logits (m, out_dim) and must return
    ``(values, dlogits)`` with values[i][j] = L(x_i, j; f) and
    dlogits[i][j] the (out_dim,) gradient of that entry w.r.t. instance
    i's logits.

    Returns (loss, grads) with grads aligned to model.parameters().
    """
    xs = np.asarray(xs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    m = xs.shape[0]
    if weights.shape[0] != m:
        raise ValueError("weights and group size disagree")
    if instance_loss is not None:
        logits, cache = model.forward_cached(xs)
        values, dvalues = instance_loss(logits)
        if values.shape != weights.shape:
            raise ValueError("instance_loss values and weights disagree in shape")
        loss = float((weights * values).sum() / m)
        dlogits = np.einsum("ij,ijc->ic", weights, np.asarray(dvalues)) / m
        return loss, model.backward(dlogits, cache)
    logits, cache = model.forward_cached(xs)
    probs = model.probabilities(logits)
    if weights.shape[1] != probs.shape[1]:
        raise ValueError("weights and class count disagree")
    logp = np.log(np.maximum(probs, PROB_EPS))
    loss = float(-(weights * logp).sum() / m)
    row_mass = weights.sum(axis=1, keepdims=True)
    dlogits = _to_logit_grad(model, (row_mass * probs - weights) / m)
    return loss, model.backward(dlogits, cache)


def loglik_loss(task: Task, xs, z, model: Classifier):
    """Group negative log-likelihood -log p(z | x_1..m) with exact gradients.

    The gradient flows through the posterior: d(-log pz)/dlogit[i][c]
    = rowsum_i * eta[i][c]/pz - joint[i][c]/pz, which reduces to
    eta - w when the joint rows marginalize exactly to pz.

    Returns (loss, grads).
    """
    xs = np.asarray(xs, dtype=np.float64)
    logits, cache = model.forward_cached(xs)
    probs = model.probabilities(logits)
    post = group_posterior(task, probs, z)
    pz = max(post.pz, PZ_FLOOR)
    loss = float(-np.log(pz))
    row_mass = post.joint.sum(axis=1, keepdims=True)
    dlogits = _to_logit_grad(model, (row_mass * probs - post.joint) / pz)
    return loss, model.backward(dlogits, cache)


def estep_omega(task: Task, etas, z) -> np.ndarray:
    """Posterior responsibilities over S(z): prod_i eta[i][y_i] / p(z | group).

    Entries align with ``consistent_tuples(task, z)``; this is the
    responsibility choice that makes the Jensen bound tight.
    """
    etas = np.clip(np.asarray(etas, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    tuples = consistent_tuples(task, z, max_tuples=EM_MAX_TUPLES, m=etas.shape[0])
    offset = task.label_values[0]
    masses = np.array(
        [np.prod([etas[i, y - offset] for i, y in enumerate(tup)]) for tup in tuples]
    )
    total = masses.sum()
    if total <= PZ_FLOOR:
        raise DegenerateGroupError("no consistent labeling has usable probability")
    return masses / total


def em_lower_bound(task: Task, xs, z, omega, model: Classifier) -> float:
    """Jensen lower bound on the group log-likelihood under responsibilities omega.

    bound = sum_{y in S(z)} omega_y * log(p(y | x_1..m) / omega_y), with the
    feature density treated as a constant (it cancels against the same
    constant in the log-likelihood this bounds). omega must be a
    distribution over ``consistent_tuples(task, z)``; zero entries
    contribute zero. Maximized, over omega, by the posterior
    responsibilities of ``estep_omega``, where it equals
    log p(z | x_1..m).
    """
    xs = np.asarray(xs, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    tuples = consistent_tuples(task, z, max_tuples=EM_MAX_TUPLES, m=xs.shape[0])
    if omega.shape != (len(tuples),):
        raise ValueError(f"omega must have one entry per consistent tuple ({len(tuples)})")
    if np.any(omega < -1e-12) or abs(omega.sum() - 1.0) > 1e-9:
        raise ValueError("omega must be a distribution over the consistent tuples")
    etas = np.clip(np.atleast_2d(model.predict_proba(xs)), PROB_EPS, 1.0 - PROB_EPS)
    offset = task.label_values[0]
    bound = 0.0
    for tup, w in zip(tuples, omega):
        if w <= 0.0:
            continue
        logp = float(sum(np.log(etas[i, y - offset]) for i, y in enumerate(tup)))
        bound += w * (logp - np.log(w))
    return float(bound)
