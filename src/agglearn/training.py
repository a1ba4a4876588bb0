"""Minibatch training on aggregate observations.

The loop alternates, per epoch, over shuffled groups:

1. During the optional warm-up phase (``warmup`` and epoch <= ``warmup_epochs``)
   every update maximizes the group log-likelihood directly; no importance
   weights are involved.
2. Afterwards each minibatch first obtains per-instance class
   probabilities -- either from the cached confidence tensor C
   (``confidence_cache``) or from the current model with gradients
   detached -- turns them into posterior weights, and takes an
   importance-weighted loss step.
3. Whenever the confidence cache is enabled, the minibatch's rows of C are
   refreshed from the model right after its update, so entries are stale
   by design: they hold the probabilities from whenever their group last
   appeared in a minibatch (uniform 1/k before that).

Weights are always recomputed from whichever probability source is active;
only the eta source changes with ``confidence_cache``.

Validation: a held-out fraction of the observations is scored by mean
group log-likelihood each epoch (aggregate observations carry no instance
labels, so likelihood is the model-selection signal here; labeled-split
metrics live in the evaluation module). The returned model carries the
best-validation parameters.

Everything is deterministic given the config seed: splits and epoch
shuffles draw from independent Philox streams, and batch gradients reduce
in a fixed group order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import GroupObservation
from .losses import DegenerateGroupError, aggregate_loss, compute_weights, loglik_loss
from .models import AdamState, Classifier, adam_step
from .posteriors import PZ_FLOOR, group_posterior
from .tasks import Task


class TrainingAbortError(RuntimeError):
    """Raised when an epoch has no usable groups left to train on."""


@dataclass
class TrainConfig:
    """Knobs of the training loop; see the module docstring for semantics."""

    epochs: int
    warmup: bool = False
    warmup_epochs: int = 0
    confidence_cache: bool = True
    batch_size: int = 128
    learning_rate: float | None = None  # None -> architecture default
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def to_json(self) -> dict:
        return {
            "epochs": self.epochs,
            "warmup": self.warmup,
            "warmup_epochs": self.warmup_epochs,
            "confidence_cache": self.confidence_cache,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "val_fraction": self.val_fraction,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        return cls(**{k: doc[k] for k in doc if k in cls.__dataclass_fields__})


def default_flags(task: Task, profile: str = "small") -> tuple[bool, int, bool]:
    """(warmup, warmup_epochs, confidence_cache) defaults per task.

    The comparison tasks (pairwise/triplet and their ordinal analogues)
    warm up on the likelihood because uniform probabilities make their
    weights uninformative; proportion and bag supervision start weighted
    training immediately. The cache is off only for bags. ``profile``
    picks the warm-up length: 20 epochs for large runs, 100 for small.
    """
    if profile not in ("small", "large"):
        raise ValueError("profile must be 'small' or 'large'")
    spec = task.spec
    warmup_epochs = (20 if profile == "large" else 100) if spec.warmup else 0
    return spec.warmup, warmup_epochs, spec.cache


@dataclass
class EpochRecord:
    """One metrics-log line: epoch number, mean batch loss, validation
    mean group log-likelihood, training-set log-likelihood, and how many
    groups were skipped as degenerate."""

    epoch: int
    train_loss: float
    val_metric: float
    likelihood: float
    degenerate_groups: int = 0

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_metric": self.val_metric,
            "likelihood": self.likelihood,
            "degenerate_groups": self.degenerate_groups,
        }


@dataclass
class TrainResult:
    model: Classifier
    metrics: list[EpochRecord]
    best_epoch: int
    confidence: np.ndarray | None = field(default=None, repr=False)


def observed_likelihood(task: Task, observations: list[GroupObservation], model: Classifier) -> float:
    """Sum of log p(z | group) over the observations under the model."""
    total = 0.0
    for obs in observations:
        post = group_posterior(task, model.predict_proba(obs.xs), obs.z)
        total += float(np.log(max(post.pz, PZ_FLOOR)))
    return total


def _mean_group_loglik(task: Task, observations: list[GroupObservation], model: Classifier) -> float:
    return observed_likelihood(task, observations, model) / len(observations)


def _check_observations(task: Task, observations: list[GroupObservation]) -> None:
    if not observations:
        raise ValueError("no observations to train on")
    for obs in observations:
        if obs.task_kind != task.kind:
            raise ValueError(f"observation for task {obs.task_kind!r} under task {task.kind!r}")
        task.check_group_size(obs.m)
        task.spec.parse_z(obs.z, obs.m, task.k)


def train(
    observations: list[GroupObservation],
    task: Task,
    model: Classifier,
    config: TrainConfig,
    weight_probe=None,
) -> TrainResult:
    """Run the training loop; the model ends at the best-validation parameters.

    ``weight_probe``, when given, is called with a dict on two events and
    exists for diagnostics/tests: ``{"phase": "weights", "epoch", "batch",
    "indices", "etas", "weights"}`` right before each weighted update, and
    ``{"phase": "refresh", "epoch", "batch", "indices", "values"}`` after
    each confidence-cache refresh.
    """
    _check_observations(task, observations)

    seed_split, seed_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng_split = np.random.Generator(np.random.Philox(seed_split))
    rng_shuffle = np.random.Generator(np.random.Philox(seed_shuffle))

    order = rng_split.permutation(len(observations))
    n_val = int(round(config.val_fraction * len(observations)))
    if n_val >= len(observations):
        n_val = len(observations) - 1
    val_obs = [observations[i] for i in order[:n_val]]
    train_obs = [observations[i] for i in order[n_val:]]
    n_train = len(train_obs)

    confidence = None
    if config.confidence_cache:
        sizes = {obs.m for obs in train_obs}
        if len(sizes) > 1:
            raise ValueError("the confidence cache requires a uniform group size")
        confidence = np.full((n_train, sizes.pop(), task.k), 1.0 / task.k)

    opt = AdamState.for_model(model, config.learning_rate)
    metrics: list[EpochRecord] = []
    best_metric = -np.inf
    best_params = model.copy_parameters()
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        warm = config.warmup and epoch <= config.warmup_epochs
        epoch_order = rng_shuffle.permutation(n_train)
        loss_sum = 0.0
        loss_groups = 0
        degenerate = 0

        for batch_no, start in enumerate(range(0, n_train, config.batch_size)):
            batch_idx = epoch_order[start : start + config.batch_size]
            grads = None
            contributed = 0
            batch_loss = 0.0
            if warm:
                for gi in batch_idx:
                    obs = train_obs[gi]
                    loss, g = loglik_loss(task, obs.xs, obs.z, model)
                    grads = g if grads is None else [a + b for a, b in zip(grads, g)]
                    batch_loss += loss
                    contributed += 1
            else:
                batch_etas = []
                batch_weights = []
                usable = []
                for gi in batch_idx:
                    obs = train_obs[gi]
                    if confidence is not None:
                        etas = confidence[gi]
                    else:
                        etas = model.predict_proba(obs.xs)
                    try:
                        weights = compute_weights(group_posterior(task, etas, obs.z))
                    except DegenerateGroupError:
                        degenerate += 1
                        continue
                    usable.append(gi)
                    batch_etas.append(etas)
                    batch_weights.append(weights)
                if weight_probe is not None:
                    weight_probe(
                        {
                            "phase": "weights",
                            "epoch": epoch,
                            "batch": batch_no,
                            "indices": list(usable),
                            "etas": [e.copy() for e in batch_etas],
                            "weights": [w.copy() for w in batch_weights],
                        }
                    )
                for gi, weights in zip(usable, batch_weights):
                    obs = train_obs[gi]
                    loss, g = aggregate_loss(obs.xs, weights, model)
                    grads = g if grads is None else [a + b for a, b in zip(grads, g)]
                    batch_loss += loss
                    contributed += 1

            if contributed:
                adam_step(model, [g / contributed for g in grads], opt)
                loss_sum += batch_loss
                loss_groups += contributed

            if confidence is not None:
                for gi in batch_idx:
                    confidence[gi] = model.predict_proba(train_obs[gi].xs)
                if weight_probe is not None:
                    weight_probe(
                        {
                            "phase": "refresh",
                            "epoch": epoch,
                            "batch": batch_no,
                            "indices": [int(gi) for gi in batch_idx],
                            "values": confidence[batch_idx].copy(),
                        }
                    )

        if loss_groups == 0:
            raise TrainingAbortError(
                f"epoch {epoch}: every group was degenerate under the current model"
            )

        likelihood = observed_likelihood(task, train_obs, model)
        if val_obs:
            val_metric = _mean_group_loglik(task, val_obs, model)
        else:
            val_metric = likelihood / n_train
        metrics.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / loss_groups,
                val_metric=val_metric,
                likelihood=likelihood,
                degenerate_groups=degenerate,
            )
        )
        if val_metric > best_metric:
            best_metric = val_metric
            best_params = model.copy_parameters()
            best_epoch = epoch

    model.load_parameters(best_params)
    return TrainResult(model=model, metrics=metrics, best_epoch=best_epoch, confidence=confidence)
