"""Minibatch training on aggregate observations.

The loop alternates, per epoch, over shuffled groups:

1. During the optional warm-up phase (``warmup`` and epoch <= ``warmup_epochs``)
   every update maximizes the group log-likelihood directly; no importance
   weights are involved.
2. Afterwards each minibatch turns its groups' eta rows (per-instance
   class probabilities) into posterior weights and takes an
   importance-weighted loss step.
3. The eta rows live in one (N, k) array with one row per training
   instance, so groups of any size share it. With ``confidence_cache`` off
   a batch's rows are refreshed from the current model (gradients
   detached) right before its weights; with it on they are refreshed right
   after its update, so entries are stale by design: they hold the
   probabilities from whenever their group last appeared in a minibatch
   (uniform 1/k before that).

Weights are always recomputed from the eta rows; ``confidence_cache``
only picks when a batch's rows refresh.

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

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import GroupObservation, check_observations
from .losses import DegenerateGroupError, aggregate_loss, compute_weights, loglik_loss
from .models import AdamState, Classifier, adam_step
from .posteriors import PZ_FLOOR, group_posterior, parse_int, seeded_rng
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
        self.epochs = parse_int(self.epochs, "epochs", 1)
        self.warmup_epochs = parse_int(self.warmup_epochs, "warmup_epochs")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        self.batch_size = parse_int(self.batch_size, "batch_size", 1)
        self.seed = parse_int(self.seed, "seed", 0)
        if self.learning_rate is not None and not 0.0 < float(self.learning_rate) < np.inf:
            raise ValueError("learning_rate must be a positive finite number or None")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def to_json(self) -> dict:
        return asdict(self)


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
    groups were skipped because their p(z) underflowed."""

    epoch: int
    train_loss: float
    val_metric: float
    likelihood: float
    degenerate_groups: int = 0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    """The best-validation model and the epoch records. ``confidence`` holds the cached
    eta rows (None with the cache off): an (n, m, k) view when every training group
    has m instances, else the flat (N, k) rows, groups in training-split order."""

    model: Classifier
    metrics: list[EpochRecord]
    best_epoch: int
    confidence: np.ndarray | None = field(default=None, repr=False)


def observed_likelihood(task: Task, observations: list[GroupObservation], model: Classifier) -> float:
    """Sum of log p(z | group) over observations that pass ``check_observations``, under
    the model, from stacked forwards and the task's p(z)-only kernel, added in group order."""
    zs = check_observations(observations, task, model.d)
    pz = np.empty(len(observations))
    for idx, stack in model.group_stacks([obs.xs for obs in observations]):
        pz[idx] = task.spec.pz(model.predict_proba(stack), [zs[i] for i in idx])
    total = 0.0
    for p in pz.tolist():
        total += float(np.log(max(p, PZ_FLOOR)))
    return total


def _refresh(model: Classifier, rows: list[np.ndarray], observations: list[GroupObservation], batch_idx) -> None:
    """Overwrite the eta rows of the groups in ``batch_idx`` with the model's
    per-class probabilities, one stacked forward per chunk of equal sizes."""
    for idx, stack in model.group_stacks([observations[gi].xs for gi in batch_idx]):
        for i, etas in zip(idx, model.predict_proba(stack)):
            rows[batch_idx[i]][...] = etas


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
    each confidence-cache refresh; ``etas``, ``weights`` and ``values`` are
    lists of one (m, k) array per group.
    """
    if not observations:
        raise ValueError("no observations to train on")
    check_observations(observations, task, model.d)
    if model.k != task.k:
        raise ValueError(f"model has {model.k} classes for a task with {task.k}")

    rng_split, rng_shuffle = seeded_rng(config.seed).spawn(2)

    order = rng_split.permutation(len(observations))
    n_val = int(round(config.val_fraction * len(observations)))
    if n_val >= len(observations):
        n_val = len(observations) - 1
    val_obs = [observations[i] for i in order[:n_val]]
    train_obs = [observations[i] for i in order[n_val:]]
    n_train = len(train_obs)

    # one eta row per training instance; rows[gi] is a view of group gi's rows
    ends = np.cumsum([obs.m for obs in train_obs]).tolist()
    eta = np.full((ends[-1], task.k), 1.0 / task.k)
    rows = [eta[lo:hi] for lo, hi in zip([0, *ends], ends)]

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
            batch_idx = epoch_order[start : start + config.batch_size].tolist()
            if warm:
                updates = (loglik_loss(task, train_obs[gi].xs, train_obs[gi].z, model) for gi in batch_idx)
            else:
                if not config.confidence_cache:
                    _refresh(model, rows, train_obs, batch_idx)
                usable = []  # (group, weights) of each group that is not degenerate
                for gi in batch_idx:
                    try:
                        usable.append((gi, compute_weights(group_posterior(task, rows[gi], train_obs[gi].z))))
                    except DegenerateGroupError:
                        degenerate += 1
                if weight_probe is not None:
                    weight_probe({"phase": "weights", "epoch": epoch, "batch": batch_no,
                                  "indices": [gi for gi, _ in usable], "etas": [rows[gi].copy() for gi, _ in usable],
                                  "weights": [w.copy() for _, w in usable]})
                updates = (aggregate_loss(train_obs[gi].xs, w, model) for gi, w in usable)

            # one accumulate-and-step for both phases: gradients add in group order
            grads = None
            batch_loss = 0.0
            contributed = 0
            for loss, g in updates:
                if grads is None:
                    grads = g  # backward returns fresh arrays, so later groups add in place
                else:
                    for a, b in zip(grads, g):
                        a += b
                batch_loss += loss
                contributed += 1
            if contributed:
                adam_step(model, [g / contributed for g in grads], opt)
                loss_sum += batch_loss
                loss_groups += contributed

            if config.confidence_cache:
                _refresh(model, rows, train_obs, batch_idx)
                if weight_probe is not None:
                    weight_probe({"phase": "refresh", "epoch": epoch, "batch": batch_no,
                                  "indices": batch_idx,
                                  "values": [rows[gi].copy() for gi in batch_idx]})

        if loss_groups == 0:
            raise TrainingAbortError(
                f"epoch {epoch}: every group was degenerate under the current model"
            )

        likelihood = observed_likelihood(task, train_obs, model)
        if val_obs:
            val_metric = observed_likelihood(task, val_obs, model) / len(val_obs)
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
    confidence = None
    if config.confidence_cache:  # the (n, m, k) view when every group has m instances
        confidence = eta.reshape(n_train, -1, task.k) if len({obs.m for obs in train_obs}) == 1 else eta
    return TrainResult(model=model, metrics=metrics, best_epoch=best_epoch, confidence=confidence)
