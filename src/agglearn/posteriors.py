"""Group-label posteriors from per-instance class probabilities.

Given a group of m instances with per-instance class probabilities
eta[i][j] = p(y_i = j | x_i) (instances independent given features), every
function here returns the pair

    pz          = p(z | x_1..x_m)
    joint[i][j] = p(z, y_i = j | x_1..x_m)

for the observed aggregate label z. Dividing joint by pz gives the
per-instance importance weights used by the weighted group loss, and the
same quantities drive the group log-likelihood.

There is one closed form per task plus ``brute_force_posterior``, which
sums over every label tuple consistent with z and acts as the reference
implementation for all of them. The label-proportion form is a dynamic
program over running count vectors (forward pass for pz, forward-backward
combination for the joints), polynomial in m and the count-box volume
instead of exponential in m.

Ordinal tasks (rank, ordinal_triplet) are parameterized by cumulative
probabilities cum[j] = p(y <= j) with the sentinels cum[0] = 0 and
cum[k] = 1; interval index arithmetic is clamped into [0, k] so boundary
events get probability from the sentinels, matching the enumeration
definition of the consistent set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tasks import Task

# Probability clamp applied to inputs before products, and the floor under
# pz when it is used as a divisor or inside a log.
PROB_EPS = 1e-12
PZ_FLOOR = PROB_EPS

# Above this group size, products over instances run in log space to dodge
# underflow; below it, direct prefix/suffix products are cheaper.
LOG_SPACE_MIN_M = 9


@dataclass
class GroupPosterior:
    """p(z | x_1..m) and the m-by-k joint p(z, y_i = j | x_1..m)."""

    pz: float
    joint: np.ndarray


def _clamp_probs(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    return np.clip(eta, PROB_EPS, 1.0 - PROB_EPS)


def _finish(pz: float, joint: np.ndarray) -> GroupPosterior:
    # Tiny negatives from cancellation are rounding noise; clamp to zero.
    pz = float(max(pz, 0.0))
    return GroupPosterior(pz=pz, joint=np.maximum(joint, 0.0))


def to_cumulative(probs) -> np.ndarray:
    """Per-class probabilities (k,) -> cumulative vector (k+1,) with exact endpoints."""
    probs = np.asarray(probs, dtype=np.float64)
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    cum[-1] = 1.0
    return cum


def cumulative_rows(etas) -> list[np.ndarray]:
    """Clamped per-class rows (m, k) -> one cumulative vector (k+1,) per instance."""
    return [to_cumulative(row) for row in _clamp_probs(etas)]


def _check_cumulative(cum) -> np.ndarray:
    cum = np.asarray(cum, dtype=np.float64)
    if cum.ndim != 1 or cum.shape[0] < 2:
        raise ValueError("cumulative vector must be 1-D of length k+1")
    if np.any(np.diff(cum) < -1e-9):
        raise ValueError("cumulative probabilities must be nondecreasing")
    if abs(cum[0]) > 1e-9 or abs(cum[-1] - 1.0) > 1e-9:
        raise ValueError("cumulative vector must start at 0 and end at 1")
    return cum


def posterior_pairwise(eta1, eta2, z: int) -> GroupPosterior:
    """Similarity indicator, m=2: z = 1 iff the two hidden labels agree.

    p(z=1) = sum_j eta1[j] eta2[j]; the z=1 joints both equal the
    per-class agreement products, and the z=0 joints pair each class with
    the other instance's disagreement mass.
    """
    eta1 = _clamp_probs(eta1)
    eta2 = _clamp_probs(eta2)
    agree = eta1 * eta2
    p_same = float(agree.sum())
    if z == 1:
        pz = p_same
        joint = np.stack([agree, agree])
    else:
        pz = 1.0 - p_same
        joint = np.stack([(1.0 - eta2) * eta1, (1.0 - eta1) * eta2])
    return _finish(pz, joint)


def posterior_triplet(eta1, eta2, eta3, z: int) -> GroupPosterior:
    """Comparison indicator, m=3: z = 1 iff y1 == y2 and y1 != y3."""
    eta1 = _clamp_probs(eta1)
    eta2 = _clamp_probs(eta2)
    eta3 = _clamp_probs(eta3)
    pair12 = eta1 * eta2
    hit = pair12 * (1.0 - eta3)  # class-j mass of {y1 = y2 = j, y3 != j}
    p_hit = float(hit.sum())
    # For y3 = j the first two must agree on some class other than j.
    other12 = (pair12.sum() - pair12) * eta3
    if z == 1:
        pz = p_hit
        joint = np.stack([hit, hit, other12])
    else:
        pz = 1.0 - p_hit
        joint = np.stack(
            [
                (1.0 - eta2 * (1.0 - eta3)) * eta1,
                (1.0 - eta1 * (1.0 - eta3)) * eta2,
                eta3 - other12,
            ]
        )
    return _finish(pz, joint)


def posterior_mil(etas, z: int) -> GroupPosterior:
    """Bag indicator, k=2: z = max of the binary labels.

    ``etas`` is (m, 2) with columns (negative, positive). A negative bag
    forces every instance negative, so p(z=0, y_i=1) = 0 and the z=0
    joints are all the full product of negative probabilities; in a
    positive bag p(z=1, y_i=1) = eta1[i] while the negative joint removes
    the all-negative event among the other members.
    """
    etas = _clamp_probs(etas)
    if etas.ndim != 2 or etas.shape[1] != 2:
        raise ValueError("MIL expects (m, 2) probabilities over classes {0, 1}")
    eta0 = etas[:, 0]
    prod_all, prod_except = _product_and_leave_one_out(eta0)
    if z == 0:
        pz = prod_all
        joint = np.stack([np.full_like(eta0, prod_all), np.zeros_like(eta0)], axis=1)
    else:
        pz = 1.0 - prod_all
        joint = np.stack([(1.0 - prod_except) * eta0, etas[:, 1]], axis=1)
    return _finish(pz, joint)


def _product_and_leave_one_out(values: np.ndarray) -> tuple[float, np.ndarray]:
    """(prod of all entries, vector of products excluding each entry).

    Direct prefix/suffix products for small m; log-space for m >= LOG_SPACE_MIN_M
    where long products of probabilities underflow.
    """
    m = values.shape[0]
    if m < LOG_SPACE_MIN_M:
        prefix = np.concatenate(([1.0], np.cumprod(values)[:-1]))
        suffix = np.concatenate((np.cumprod(values[::-1])[:-1][::-1], [1.0]))
        return float(prefix[-1] * values[-1]), prefix * suffix
    logs = np.log(values)
    total = logs.sum()
    return float(np.exp(total)), np.exp(total - logs)


def posterior_llp(etas, z) -> GroupPosterior:
    """Label-proportion counts, m>=2: z[j] = number of instances of class j.

    pz sums the tuple products over every labeling with the observed
    counts. Both passes of the dynamic program run over partial count
    vectors confined to the box prod_j [0, z_j]; joint[i][j] convolves the
    prefix distribution before instance i with the suffix distribution
    after it, leaving one count of class j for instance i itself.
    """
    etas = _clamp_probs(etas)
    m, k = etas.shape
    z = tuple(int(c) for c in np.asarray(z).ravel())
    if len(z) != k:
        raise ValueError(f"count vector has {len(z)} entries, expected k={k}")
    if any(c < 0 for c in z):
        raise ValueError("counts must be nonnegative")
    if sum(z) != m:
        raise ValueError(f"counts sum to {sum(z)}, expected group size m={m}")

    zero = (0,) * k
    # forward[i]: mass of each count vector over instances [0, i)
    forward: list[dict[tuple[int, ...], float]] = [{} for _ in range(m + 1)]
    forward[0][zero] = 1.0
    for i in range(m):
        nxt = forward[i + 1]
        for counts, mass in forward[i].items():
            for j in range(k):
                if counts[j] < z[j]:
                    bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0.0) + mass * etas[i, j]
    pz = forward[m].get(z, 0.0)

    # backward[i]: mass of each count vector over instances [i, m)
    backward: list[dict[tuple[int, ...], float]] = [{} for _ in range(m + 1)]
    backward[m][zero] = 1.0
    for i in range(m - 1, -1, -1):
        nxt = backward[i]
        for counts, mass in backward[i + 1].items():
            for j in range(k):
                if counts[j] < z[j]:
                    bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0.0) + mass * etas[i, j]

    joint = np.zeros((m, k))
    for i in range(m):
        suffix = backward[i + 1]
        for prefix_counts, prefix_mass in forward[i].items():
            for j in range(k):
                if prefix_counts[j] >= z[j]:
                    continue
                remainder = tuple(
                    z[v] - prefix_counts[v] - (1 if v == j else 0) for v in range(k)
                )
                suffix_mass = suffix.get(remainder)
                if suffix_mass is not None:
                    joint[i, j] += prefix_mass * etas[i, j] * suffix_mass
    return _finish(pz, joint)


def posterior_rank(cum1, cum2, z: int) -> GroupPosterior:
    """Order indicator on ordinal labels, m=2: z = 1 iff y1 < y2.

    Inputs are cumulative vectors (k+1,). p(z=1) accumulates, over the
    value j of y2, the chance that y1 lands strictly below j.
    """
    cum1 = _check_cumulative(cum1)
    cum2 = _check_cumulative(cum2)
    probs1 = np.diff(cum1)
    probs2 = np.diff(cum2)
    below1 = cum1[:-1]  # p(y1 <= j-1) for j = 1..k
    p_less = float((below1 * probs2).sum())
    if z == 1:
        pz = p_less
        joint = np.stack([(1.0 - cum2[1:]) * probs1, below1 * probs2])
    else:
        pz = 1.0 - p_less
        joint = np.stack([cum2[1:] * probs1, (1.0 - cum1[:-1]) * probs2])
    return _finish(pz, joint)


def _interval_strict(cum: np.ndarray, center: int, radius: int) -> float:
    """p(|y - center| < radius) for ordinal y with cumulative vector cum.

    The event is the open band (center-radius, center+radius); indices are
    clamped into [0, k] so out-of-range ends resolve through the 0/1
    sentinels, and the max guard zeroes the empty radius-0 band.
    """
    k = cum.shape[0] - 1
    hi = min(max(center + radius - 1, 0), k)
    lo = min(max(center - radius, 0), k)
    return max(float(cum[hi] - cum[lo]), 0.0)


def _interval_within(cum: np.ndarray, center: int, radius: int) -> float:
    """p(|y - center| <= radius) with the same clamping conventions."""
    k = cum.shape[0] - 1
    hi = min(max(center + radius, 0), k)
    lo = min(max(center - radius - 1, 0), k)
    return max(float(cum[hi] - cum[lo]), 0.0)


def posterior_ordinal_triplet(cum1, cum2, cum3, z: int) -> GroupPosterior:
    """Comparison indicator with ordinal distance, m=3: z = 1 iff |y1-y2| < |y1-y3|."""
    cum1 = _check_cumulative(cum1)
    cum2 = _check_cumulative(cum2)
    cum3 = _check_cumulative(cum3)
    k = cum1.shape[0] - 1
    probs1 = np.diff(cum1)
    probs2 = np.diff(cum2)
    probs3 = np.diff(cum3)

    # closer2[a][b] = p(|y2 - a| < |b - a|): y2 strictly inside the band
    # around y1 = a whose radius is set by y3 = b.
    closer2 = np.empty((k + 1, k + 1))
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            closer2[a, b] = _interval_strict(cum2, a, abs(b - a))

    joint = np.zeros((3, k))
    for j in range(1, k + 1):
        acc1 = 0.0
        acc2 = 0.0
        acc3 = 0.0
        for v in range(1, k + 1):
            acc1 += probs3[v - 1] * closer2[j, v]
            acc2 += probs1[v - 1] * (1.0 - _interval_within(cum3, v, abs(j - v)))
            acc3 += probs1[v - 1] * closer2[v, j]
        joint[0, j - 1] = acc1 * probs1[j - 1]
        joint[1, j - 1] = acc2 * probs2[j - 1]
        joint[2, j - 1] = acc3 * probs3[j - 1]
    p_closer = float(joint[0].sum())

    if z == 1:
        pz = p_closer
    else:
        pz = 1.0 - p_closer
        for j in range(1, k + 1):
            acc1 = 0.0
            acc2 = 0.0
            acc3 = 0.0
            for v in range(1, k + 1):
                acc1 += probs3[v - 1] * (1.0 - closer2[j, v])
                acc2 += probs1[v - 1] * _interval_within(cum3, v, abs(j - v))
                acc3 += probs1[v - 1] * (1.0 - closer2[v, j])
            joint[0, j - 1] = acc1 * probs1[j - 1]
            joint[1, j - 1] = acc2 * probs2[j - 1]
            joint[2, j - 1] = acc3 * probs3[j - 1]
    return _finish(pz, joint)


def group_posterior(task: Task, etas, z) -> GroupPosterior:
    """Dispatch to the task's closed form.

    ``etas`` is always per-class probabilities, shape (m, k) indexed by the
    task's label order ((0,1) for MIL, 1..k otherwise); ordinal tasks are
    converted to cumulative form internally.
    """
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 2:
        raise ValueError("etas must be (m, k)")
    task.check_group_size(etas.shape[0])
    if np.any(np.abs(etas.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("each probability row must sum to 1")
    spec = task.spec
    return spec.posterior(etas, spec.parse_z(z, *etas.shape))


def brute_force_posterior(task: Task, etas, z, max_tuples: int = 10**7) -> GroupPosterior:
    """Exact posterior by summing over every consistent label tuple.

    Reference implementation for all closed forms; cost is |labels|^m so a
    bound guards the enumeration. ``etas`` is per-class (m, k) exactly as
    in group_posterior; llp/mil accept any group size >= 2.
    """
    etas = _clamp_probs(etas)
    m, k = etas.shape
    if k != task.k:
        raise ValueError(f"got {k} classes for a task with {task.k}")
    consistent = task.consistency_mask(z, m, max_tuples)

    mass = np.ones((1,) * m)
    for i in range(m):
        shape = [1] * m
        shape[i] = k
        mass = mass * etas[i].reshape(shape)
    masked = np.where(consistent, mass, 0.0)

    pz = float(masked.sum())
    joint = np.empty((m, k))
    for i in range(m):
        for j in range(k):
            joint[i, j] = masked.take(j, axis=i).sum()
    return _finish(pz, joint)
