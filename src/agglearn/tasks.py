"""Supervision tasks: the aggregate function g and its label space.

Each task turns a tuple of hidden per-instance labels y_1..y_m into one
observed group label z:

==================  ====  =========  ==========================================
kind                m     labels     z
==================  ====  =========  ==========================================
pairwise            2     1..k       1 if y1 == y2 else 0
triplet             3     1..k       1 if y1 == y2 and y1 != y3 else 0
llp                 >=2   1..k       count vector (n of class 1, ..., class k)
mil                 >=2   {0, 1}     max(y_1..y_m)  -- 1 iff any positive
rank                2     1..k       1 if y1 < y2 else 0
ordinal_triplet     3     1..k       1 if |y1 - y2| < |y1 - y3| else 0
==================  ====  =========  ==========================================

The triplet comparison uses the 0/1 disagreement distance between classes;
the ordinal variant uses |y - y'| on the ordered label set. MIL is binary
with label 1 the positive class.

``TASKS`` holds one ``TaskSpec`` per kind: everything the rest of the
package needs to know about a kind lives in that entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import posteriors as kernels

# Hard cap on the number of count vectors enumerate_z will materialize.
MAX_COMPOSITIONS = 10**6


@dataclass(frozen=True)
class TaskSpec:
    """What differs between supervision kinds.

    ``g`` maps a sequence of m broadcastable label arrays (plain ints work
    too) and the class count k to the components of z, elementwise: one
    0/1 component for the indicator tasks, k counts for label proportions.
    ``posterior`` is the closed form p(z | group), p(z, y_i = j | group)
    for per-class rows (m, k) that passed ``parse_probs`` and a z it checks by ``parse_z``'s rule.
    ``pz`` is p(z | group) alone, shape (G,), for groups stacked as (G, m, k)
    and G validated labels; each entry equals ``posterior(...).pz`` bit for bit.
    """

    g: Callable
    posterior: Callable[[np.ndarray, object], kernels.GroupPosterior]
    pz: Callable[[np.ndarray, list], np.ndarray]
    m: int | None = None  # fixed group size; None allows any m >= 2
    k: int | None = None  # fixed class count; None allows any k >= min_k
    min_k: int = 1
    first_label: int = 1  # labels are first_label .. first_label + k - 1
    counts: bool = False  # z is a count vector rather than a 0/1 bit
    head: str = "softmax"
    arch: str = "mlp-300"
    warmup: bool = True  # likelihood warm-up by default
    cache: bool = True  # confidence cache by default
    identifiable: bool = True  # False: classes are known only up to a permutation

    def parse_z(self, z, m: int, k: int | None = None):
        """z checked for a group of m by the kind's rule, ``kernels.parse_counts`` or ``parse_bit``."""
        return kernels.parse_counts(z, m, k) if self.counts else kernels.parse_bit(z)

    def check_group_size(self, m: int, kind: str) -> int:
        """m as an int when a group of m instances fits the kind: its fixed m, or
        any m >= 2 for the kinds that leave m free; else ValueError."""
        m = kernels.parse_int(m, "m")
        if self.m is not None and m != self.m:
            raise ValueError(f"task {kind!r} requires m={self.m}, got m={m}")
        if self.m is None and m < 2:
            raise ValueError(f"task {kind!r} requires m >= 2, got m={m}")
        return m


TASKS: dict[str, TaskSpec] = {
    "pairwise": TaskSpec(
        g=lambda y, k: [y[0] == y[1]],
        **kernels.indicator(kernels.pairwise_event, 1),
        m=2,
        min_k=2,
        identifiable=False,
    ),
    "triplet": TaskSpec(
        # 0/1 class distance: d(y1,y2) < d(y1,y3) iff y1 == y2 and y1 != y3
        g=lambda y, k: [(y[0] == y[1]) & (y[0] != y[2])],
        **kernels.indicator(kernels.triplet_event, 1),
        m=3,
        min_k=2,
        identifiable=False,
    ),
    "llp": TaskSpec(
        g=lambda y, k: (sum(a == j for a in y) for j in range(1, k + 1)),
        posterior=kernels.llp_kernel,
        pz=kernels.pz_llp,
        counts=True,
        warmup=False,
    ),
    "mil": TaskSpec(
        g=lambda y, k: [functools.reduce(np.maximum, y)],
        **kernels.indicator(kernels.mil_event, 0),
        k=2,
        first_label=0,
        head="sigmoid",
        arch="linear",
        warmup=False,
        cache=False,
    ),
    "rank": TaskSpec(
        g=lambda y, k: [y[0] < y[1]],
        **kernels.indicator(kernels.rank_event, 1, kernels.cumulative_rows),
        m=2,
        head="cumulative",
    ),
    "ordinal_triplet": TaskSpec(
        g=lambda y, k: [abs(y[0] - y[1]) < abs(y[0] - y[2])],
        **kernels.indicator(kernels.ordinal_triplet_event, 1, kernels.cumulative_rows),
        m=3,
        head="cumulative",
    ),
}


@dataclass(frozen=True)
class Task:
    """A supervision regime: kind of aggregate label, group size m, class count k."""

    kind: str
    m: int
    k: int

    def __post_init__(self):
        if self.kind not in TASKS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {list(TASKS)}")
        spec = self.spec
        spec.check_group_size(self.m, self.kind)
        kernels.parse_int(self.k, "k")
        if spec.k is not None and self.k != spec.k:
            raise ValueError(f"task {self.kind!r} requires k={spec.k}, got k={self.k}")
        if self.k < spec.min_k:
            raise ValueError(f"task {self.kind!r} requires k >= {spec.min_k}, got k={self.k}")

    @property
    def spec(self) -> TaskSpec:
        return TASKS[self.kind]

    @property
    def label_values(self) -> tuple[int, ...]:
        """Per-instance label alphabet: {0,1} for MIL, 1..k otherwise."""
        first = self.spec.first_label
        return tuple(range(first, first + self.k))

    def consistency_mask(self, z, m: int | None = None, max_tuples: int = kernels.MAX_TUPLES) -> np.ndarray:
        """Boolean tensor over the full label space of a group of m marking g(y_1..m) = z.

        Axis i indexes y_i by position in ``label_values``. Raises when the
        |labels|^m entries exceed max_tuples.
        """
        m = self.spec.check_group_size(self.m if m is None else m, self.kind)  # llp/mil m may differ
        n = self.k
        if n**m > max_tuples:
            raise ValueError(f"label space {n}^{m} exceeds the enumeration bound {max_tuples}")
        values = np.array(self.label_values)
        grids = [values.reshape([n if axis == i else 1 for axis in range(m)]) for i in range(m)]
        mask = np.ones((n,) * m, dtype=bool)
        for part, target in zip(self.spec.g(grids, self.k), np.atleast_1d(self.spec.parse_z(z, m, n))):
            mask &= part == target
        return mask


def aggregate_label(task: Task, labels):
    """Apply the task's aggregate function g to a tuple of instance labels.

    Returns 0/1 for the indicator tasks and a tuple of k counts for llp.
    """
    labels = kernels.parse_labels(labels, task.k, task.spec.first_label)
    if labels.shape != (task.m,):
        raise ValueError(f"expected {task.m} labels for task {task.kind!r}, got shape {labels.shape}")
    parts = tuple(int(p) for p in task.spec.g(tuple(labels.tolist()), task.k))
    return parts if task.spec.counts else parts[0]


def count_compositions(m: int, k: int) -> int:
    """Number of ways to write m as an ordered sum of k nonnegative counts."""
    return math.comb(m + k - 1, k - 1)


def _compositions(m: int, k: int):
    """All count vectors of length k summing to m, first coordinate descending."""
    if k == 1:
        yield (m,)
        return
    for first in range(m, -1, -1):
        for rest in _compositions(m - first, k - 1):
            yield (first,) + rest


def enumerate_z(task: Task) -> list:
    """All feasible aggregate labels for the task, duplicate-free.

    Binary tasks return [0, 1]. For llp this is every count vector of the
    group size over k classes; raises if that set exceeds MAX_COMPOSITIONS.
    """
    if not task.spec.counts:
        return [0, 1]
    n_comp = count_compositions(task.m, task.k)
    if n_comp > MAX_COMPOSITIONS:
        raise ValueError(
            f"llp label space has {n_comp} count vectors, above the "
            f"{MAX_COMPOSITIONS} enumeration bound"
        )
    return list(_compositions(task.m, task.k))


def consistent_tuples(task: Task, z, max_tuples: int = kernels.MAX_TUPLES, m: int | None = None) -> list[tuple[int, ...]]:
    """All label tuples y_1..y_m with g(y_1..y_m) = z, in lexicographic order.

    The total label space has |labels|^m tuples; raises when that exceeds
    max_tuples. ``m`` defaults to the task's group size (llp/mil groups may
    deviate from it).
    """
    mask = task.consistency_mask(z, m, max_tuples)
    values = np.array(task.label_values)
    return [tuple(row) for row in values[np.argwhere(mask)].tolist()]
