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

The default per-class loss is softmax cross-entropy (cumulative head
included: its per-class probabilities are softmax outputs too) or the
logistic loss (sigmoid head), exactly 2-class cross-entropy over
(1 - s(f), s(f)); any other per-class loss plugs into the same path.
"""

from __future__ import annotations

import numpy as np

from .models import Classifier
from .posteriors import PROB_EPS, PZ_FLOOR, GroupPosterior, group_posterior, label_space_product
from .tasks import Task

# The EM bound enumerates S(z) explicitly, so it only supports small groups.
EM_MAX_TUPLES = 10**5


class DegenerateGroupError(ValueError):
    """The observed aggregate label has no representable probability under the model."""


def compute_weights(posterior: GroupPosterior) -> np.ndarray:
    """Per-instance class weights w[i][j] = joint[i][j] / pz, rows on the simplex.

    Each joint row sums to pz, so the weights are the joint rows normalized,
    however small pz is. Raises DegenerateGroupError only when a row has no
    positive mass (pz underflowed, or is NaN); callers skip such groups and
    count them.
    """
    sums = posterior.joint.sum(axis=1, keepdims=True)
    if not (sums > 0.0).all():
        raise DegenerateGroupError(f"p(z | group) = {posterior.pz:.3e} has no representable mass")
    return posterior.joint / sums


def _soft_target_grad(model: Classifier, probs: np.ndarray, targets: np.ndarray, scale) -> np.ndarray:
    """Logit gradient (rowsum(targets) * probs - targets) / scale of a loss of
    soft-target form; the sigmoid head keeps only its positive-class column
    (its negative logit is pinned at zero)."""
    grad = (targets.sum(axis=1, keepdims=True) * probs - targets) / scale
    return grad[:, 1:2] if model.head == "sigmoid" else grad


def aggregate_loss(xs, weights, model: Classifier, instance_loss=None):
    """Weighted group loss and its parameter gradients.

    loss = (1/m) sum_i sum_j w[i][j] * L(x_i, j; f), ``weights`` constant. L
    defaults to cross-entropy, values -log(max(p, PROB_EPS)), whose weighted
    logit gradient is the soft-target form of ``_soft_target_grad``.

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
    if weights.shape != (m, model.k):
        raise ValueError(f"weights {weights.shape} do not fit a group of {m} over {model.k} classes")
    logits, cache = model.forward_cached(xs)
    if instance_loss is None:
        probs = model.probabilities(logits)
        values = -np.log(np.maximum(probs, PROB_EPS))
        dlogits = _soft_target_grad(model, probs, weights, m)
    else:
        values, dvalues = instance_loss(logits)
        if np.shape(values) != weights.shape:
            raise ValueError("instance_loss values and weights disagree in shape")
        dlogits = np.einsum("ij,ijc->ic", weights, np.asarray(dvalues)) / m
    loss = float((weights * values).sum() / m)
    return loss, model.backward(dlogits, cache)


def loglik_loss(task: Task, xs, z, model: Classifier):
    """Group negative log-likelihood -log p(z | x_1..m) with exact gradients.

    The gradient flows through the posterior: d(-log pz)/dlogit[i][c]
    = rowsum_i * eta[i][c]/pz - joint[i][c]/pz (soft targets joint), which
    reduces to eta - w when the joint rows marginalize exactly to pz.

    Returns (loss, grads).
    """
    xs = np.asarray(xs, dtype=np.float64)
    logits, cache = model.forward_cached(xs)
    probs = model.probabilities(logits)
    post = group_posterior(task, probs, z)
    pz = max(post.pz, PZ_FLOOR)
    loss = float(-np.log(pz))
    return loss, model.backward(_soft_target_grad(model, probs, post.joint, pz), cache)


def _tuple_masses(task: Task, etas, z) -> np.ndarray:
    """prod_i eta[i][y_i] over clipped (m, k) etas for each y in S(z), entries aligned with
    ``consistent_tuples(task, z)``: the masked ``label_space_product`` of the rows."""
    etas = np.atleast_2d(etas)
    mask = task.consistency_mask(z, len(etas), EM_MAX_TUPLES)  # bounded before the product
    return label_space_product(etas)[mask]


def estep_omega(task: Task, etas, z) -> np.ndarray:
    """Posterior responsibilities over S(z): prod_i eta[i][y_i] / p(z | group).

    Entries align with ``consistent_tuples(task, z)``; this is the
    responsibility choice that makes the Jensen bound tight.
    """
    masses = _tuple_masses(task, etas, z)
    total = masses.sum()
    if not total > 0.0:
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
    omega = np.asarray(omega, dtype=np.float64)
    masses = _tuple_masses(task, model.predict_proba(np.asarray(xs, dtype=np.float64)), z)
    if omega.shape != masses.shape:
        raise ValueError(f"omega must have one entry per consistent tuple ({masses.size})")
    if np.any(omega < -1e-12) or abs(omega.sum() - 1.0) > 1e-9:
        raise ValueError("omega must be a distribution over the consistent tuples")
    used = omega > 0.0
    return float(np.sum(omega[used] * (np.log(masses[used]) - np.log(omega[used]))))
