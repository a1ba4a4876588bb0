"""The benchmark's workloads: how each one's inputs are made from a seed,
how it is trained, and how its model is scored.

Inputs come from ``agglearn.data`` only: a synthetic Gaussian mixture is
drawn, ``sample_groups`` turns it into aggregate observations, and
``save_observations`` writes the JSONL file the timed part loads. The
labelled validation and test splits are drawn from the same mixture with
their own seeds and never reach the training loop. Model-initialisation
and training seeds are fixed per workload, so a run's inputs, and with
them its accuracy and likelihood, depend on ``--seed`` alone.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from agglearn.data import SyntheticSpec, generate_synthetic, sample_groups, save_observations
from agglearn.evaluation import accuracy, confusion_counts, matched_accuracy, modified_accuracy
from agglearn.models import Classifier
from agglearn.tasks import Task
from agglearn.training import TrainConfig

MEANS_3CLASS = [[0.0, 2.5], [-2.2, -1.3], [2.2, -1.3]]
MEANS_2CLASS = [[-2.5, 0.0], [2.5, 0.0]]

# A bag of 64 is all-negative with probability (1 - p)^64; this prior makes
# that one bag in three.
MIL_POSITIVE_PRIOR = 1.0 - 3.0 ** (-1.0 / 64)

# llp keeps one group in this many drawn, stratified by box volume.
VOLUME_STRATA = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # task kind
    m: int
    k: int  # class count of the mixture and of the task
    means: tuple
    spread: float
    prior: tuple
    arch: str
    head: str
    n_train_points: int  # labelled pool the groups are drawn from
    n_groups: int
    epochs: int
    warmup_epochs: int
    confidence_cache: bool
    batch_size: int
    learning_rate: float | None
    val_fraction: float
    n_eval_points: int  # size of each labelled validation/test split
    acc_floor: float  # test_acc below this fails the run

    @property
    def task(self) -> Task:
        return Task(self.kind, self.m, self.k)

    @property
    def d(self) -> int:
        return len(self.means[0])

    def config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            warmup=self.warmup_epochs > 0,
            warmup_epochs=self.warmup_epochs,
            confidence_cache=self.confidence_cache,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=5,
            val_fraction=self.val_fraction,
        )

    def create_model(self) -> Classifier:
        return Classifier.create(self.arch, self.head, d=self.d, k=self.k, seed=1)


def _one_hot_means(k: int, scale: float) -> tuple:
    return tuple(tuple(scale if j == c else 0.0 for j in range(k)) for c in range(k))


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of two-instance groups: per-group call overhead in the
        # model, loss and loop layers is the cost. Both the likelihood
        # warm-up and the weighted phase run, with the confidence cache on.
        Workload(
            name="pairwise-mlp300",
            kind="pairwise",
            m=2,
            k=3,
            means=tuple(map(tuple, MEANS_3CLASS)),
            spread=0.6,
            prior=(1 / 3,) * 3,
            arch="mlp-300",
            head="softmax",
            n_train_points=1500,
            n_groups=3000,
            epochs=4,
            warmup_epochs=2,
            confidence_cache=True,
            batch_size=128,
            learning_rate=None,
            val_fraction=0.5,
            n_eval_points=2000,
            acc_floor=0.9,
        ),
        # Count-labelled bags of 12 over 10 classes: the label-proportion
        # dynamic program is nearly all of the time; the model is idle.
        Workload(
            name="llp-m12-k10",
            kind="llp",
            m=12,
            k=10,
            means=_one_hot_means(10, 4.0),
            spread=1.0,
            prior=(0.1,) * 10,
            arch="mlp-300",
            head="softmax",
            n_train_points=5000,
            # With fewer groups or epochs, test_acc and val_nll swing by
            # 10% between seeds.
            n_groups=80,
            epochs=3,
            warmup_epochs=0,
            confidence_cache=True,
            batch_size=8,
            learning_rate=1e-2,
            val_fraction=0.25,
            n_eval_points=2000,
            acc_floor=0.6,
        ),
        # Bags of 64 with a rare positive class, so about a third of bags are
        # negative: wide groups, the log-space bag product, live etas (cache
        # off), the largest JSONL, and groups skipped at the p(z) floor.
        Workload(
            name="mil-m64-linear",
            kind="mil",
            m=64,
            k=2,
            means=tuple(map(tuple, MEANS_2CLASS)),
            spread=0.7,
            prior=(1.0 - MIL_POSITIVE_PRIOR, MIL_POSITIVE_PRIOR),
            arch="linear",
            head="sigmoid",
            n_train_points=100000,
            n_groups=3000,
            epochs=3,
            warmup_epochs=0,
            confidence_cache=False,
            batch_size=128,
            learning_rate=None,
            val_fraction=0.5,
            n_eval_points=200000,
            # The initial model scores the negative cluster as positive, every
            # negative bag then sits under PZ_FLOOR and is skipped, and the
            # positive bags give no gradient: the model stays at its initial
            # 0.5% accuracy, so there is no floor to hold it to yet.
            acc_floor=0.0,
        ),
    )
}


def _seeds(seed: int) -> list[int]:
    """Independent data seeds for the group pool, the groups, and the two
    labelled splits, all derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]


def _mixture(w: Workload, n: int, seed: int):
    spec = SyntheticSpec(
        k=w.k, d=w.d, means=w.means, spreads=[w.spread] * w.k, prior=list(w.prior), seed=seed
    )
    return generate_synthetic(spec, n)


def box_volume(z) -> int:
    """prod_j (z_j + 1): the states of the label-proportion dynamic program."""
    return int(np.prod(np.asarray(z, dtype=np.int64) + 1))


def draw_groups(w: Workload, seed: int):
    """The workload's groups for ``seed``.

    The cost of a label-proportion group grows with its box volume, which
    varies several-fold between count vectors. So that the work of a run
    does not swing with the seed, llp draws ``VOLUME_STRATA`` times the
    groups it needs and keeps every ``VOLUME_STRATA``-th in order of box
    volume: the kept groups follow the drawn distribution quantile by
    quantile.
    """
    pool_seed, group_seed, _, _ = _seeds(seed)
    pool = _mixture(w, w.n_train_points, pool_seed)
    if w.kind != "llp":
        return sample_groups(pool, w.task, w.m, w.n_groups, seed=group_seed)
    drawn = sample_groups(pool, w.task, w.m, w.n_groups * VOLUME_STRATA, seed=group_seed)
    by_volume = sorted(range(len(drawn)), key=lambda i: (box_volume(drawn[i].z), i))
    keep = sorted(by_volume[VOLUME_STRATA // 2 :: VOLUME_STRATA])
    return [drawn[i] for i in keep]


def write_observations(w: Workload, seed: int, path) -> None:
    """Draw the workload's groups for ``seed`` and write them as JSONL."""
    save_observations(draw_groups(w, seed), path)


def labelled_splits(w: Workload, seed: int):
    """(validation, test) labelled datasets for scoring the trained model."""
    _, _, val_seed, test_seed = _seeds(seed)
    return _mixture(w, w.n_eval_points, val_seed), _mixture(w, w.n_eval_points, test_seed)


def score_accuracy(w: Workload, model: Classifier, val_ds, test_ds) -> float:
    """Held-out accuracy as the task defines it.

    Pairwise labels do not say which output unit is which class, so the
    pairwise score is matched accuracy under the permutation fitted on the
    validation split. Label proportions identify the classes (plain
    accuracy); bags are scored per instance against the positive class.
    """
    if w.kind == "pairwise":
        val_preds = model.predict(val_ds.features)
        _, perm = modified_accuracy(confusion_counts(val_preds, val_ds.labels, w.k))
        frac, _ = matched_accuracy(model.predict(test_ds.features), test_ds.labels, w.k, perm=perm)
        return frac
    if w.kind == "mil":
        return accuracy(model.predict(test_ds.features), (test_ds.labels == w.k).astype(np.int64))
    return accuracy(model.predict(test_ds.features), test_ds.labels)
