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
implementation for all of them; it shares only the row check ``parse_probs``
with the kernels, and its own clipped outer product ``label_space_product`` with the EM bound's tuple masses.
The label-proportion form is a dense dynamic program over the count box: one
array holds a whole sweep, the suffix sweep contracts against the prefix,
``MAX_LLP_BOX`` bounds the cells; ``pz_llp`` runs the prefix sweep alone. A
bag's z is fixed, so each z's box plan is built once into a read-only cache of
``LLP_PLAN_CACHE_BYTES`` at most.

Every other task observes a 0/1 label z. The events z = 0 and z = 1 split
the label tuples between them, so each of those kernels computes one event
only, in a ``*_event`` function over leading group axes that returns
(marginals, p, joint). ``indicator(event, side)`` derives the other event,
p(z') = 1 - p and joint' = marginals - joint, for one group's posterior and
for p(z) alone over a (G, m, k) stack. The comparison and order kernels
compute z = 1; the bag kernel computes z = 0, the all-negative product.

Ordinal tasks (rank, ordinal_triplet) are parameterized by cumulative
probabilities cum[j] = p(y <= j) with the sentinels cum[0] = 0 and
cum[k] = 1; interval index arithmetic is clamped into [0, k] so boundary
events get probability from the sentinels, matching the enumeration
definition of the consistent set.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tasks import Task

# Probability clamp applied to inputs before products, and the floor under
# pz when it is used as a divisor or inside a log.
PROB_EPS = 1e-12
PZ_FLOOR = PROB_EPS

# Bound on the cells the llp kernel holds, (k + 2) prod_j (z_j + 1): a k-row
# int32 neighbour table and two float64 mass arrays over the count box. One
# call at the bound peaks at 375 MB in tracemalloc (7.5 bytes per cell, k = 2).
MAX_LLP_BOX = 5 * 10**7
MAX_TUPLES = 10**7  # bound on the |labels|^m label tuples an enumeration reference builds
WHOLE_KINDS = "biu"  # numpy dtype kinds whose entries parse_int takes: bools and integers
# Bound on the bytes of the down tables _llp_plan keeps in _LLP_PLANS, least recently used first.
LLP_PLAN_CACHE_BYTES = 2**25
_LLP_PLANS: dict[tuple[int, ...], tuple[tuple[int, ...], np.ndarray]] = {}
_LLP_PLANS_LOCK = threading.Lock()


@dataclass
class GroupPosterior:
    """p(z | x_1..m) and the m-by-k joint p(z, y_i = j | x_1..m)."""

    pz: float
    joint: np.ndarray


def parse_int(value, name: str, minimum: int | None = None) -> int:
    """The whole-number rule: value as an int (numpy integers pass, floats do not), >= ``minimum`` if given."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return number


def parse_labels(values, k, first: int = 1, name: str = "label") -> np.ndarray:
    """The instance-label rule: values as int64, each a whole number in first..first+k-1, else ValueError."""
    last = first + parse_int(k, "k", 1) - 1
    labels = np.asarray(values)
    whole = labels.dtype.kind in WHOLE_KINDS
    bad = np.flatnonzero((labels < first) | (labels > last)) if whole else range(labels.size)
    if len(bad):
        raise ValueError(f"{name} {labels.ravel().tolist()[bad[0]]!r} is not an integer in {first}..{last}")
    return labels.astype(np.int64, copy=False)


def seeded_rng(seed) -> np.random.Generator:
    """The seeded stream: a Philox generator over ``SeedSequence(seed)``, the seed a whole number >= 0."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parse_int(seed, "seed", 0))))


def parse_bit(z) -> int:
    """The 0/1 rule: z as an int when it is 0 or 1, else ValueError."""
    if z in (0, 1):
        return int(z)
    raise ValueError(f"aggregate label {z!r} must be 0 or 1")


def parse_counts(z, m: int, k: int | None = None) -> tuple[int, ...]:
    """The count rule: z as a tuple of k nonnegative integer counts summing to the
    group size m (k defaults to the vector's length), else ValueError."""
    try:
        counts = tuple(operator.index(c) for c in z)
    except TypeError:
        raise ValueError(f"count vector {z!r} is not a sequence of integer counts") from None
    if not counts or len(counts) != (k or len(counts)):
        raise ValueError(f"count vector {z!r} has {len(counts)} entries, expected k={k}" if k else "count vector is empty")
    if min(counts) < 0 or sum(counts) != m:
        raise ValueError(f"count vector {z!r} needs nonnegative counts that sum to m={m}; its counts sum to {sum(counts)}")
    return counts


def parse_probs(etas, k: int | None = None) -> np.ndarray:
    """The probability-row rule: etas as float64 (m, k) rows (k given or not), each summing to 1 within 1e-6, else ValueError."""
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 2:
        raise ValueError("etas must be (m, k)")
    if k is not None and etas.shape[1] != k:
        raise ValueError(f"got {etas.shape[1]} classes for a task with {k}")
    if not (np.abs(etas.sum(axis=1) - 1.0) <= 1e-6).all():  # NaN fails every comparison
        raise ValueError("each probability row must sum to 1")
    return etas


def _clamp_probs(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    return np.minimum(np.maximum(eta, PROB_EPS), 1.0 - PROB_EPS)  # np.clip's bits, less overhead


def _finish(pz: float, joint: np.ndarray) -> GroupPosterior:
    # Tiny negatives from cancellation are rounding noise; clamp to zero.
    pz = float(max(pz, 0.0))
    return GroupPosterior(pz=pz, joint=np.maximum(joint, 0.0))


def to_cumulative(probs) -> np.ndarray:
    """Per-class probabilities (..., k) -> cumulative vectors (..., k+1) with exact endpoints."""
    probs = np.asarray(probs, dtype=np.float64)
    cum = np.concatenate([np.zeros(probs.shape[:-1] + (1,)), np.cumsum(probs, axis=-1)], axis=-1)
    cum[..., -1] = 1.0
    return cum


def cumulative_rows(etas) -> np.ndarray:
    """Clamped per-class rows (..., m, k) -> one cumulative vector (k+1,) per instance.

    Clamping lifts near-zero entries, so a row can sum to 1 + (k-1) PROB_EPS;
    each row is rescaled to sum 1 first, or pinning cum[k] = 1 would leave
    p(y = k) negative.
    """
    rows = _clamp_probs(etas)
    return to_cumulative(rows / rows.sum(axis=-1, keepdims=True))


def _check_cumulative(cums) -> np.ndarray:
    """A group's cumulative vectors, each checked, stacked as (m, k+1)."""
    cum = np.asarray(cums, dtype=np.float64)
    if cum.ndim != 2 or cum.shape[1] < 2:
        raise ValueError("each cumulative vector must be 1-D of length k+1")
    if np.any(np.diff(cum) < -1e-9):
        raise ValueError("cumulative probabilities must be nondecreasing")
    if np.any(np.abs(cum[:, 0]) > 1e-9) or np.any(np.abs(cum[:, -1] - 1.0) > 1e-9):
        raise ValueError("cumulative vector must start at 0 and end at 1")
    return cum


def indicator(event, side: int, rows=_clamp_probs) -> dict:
    """A 0/1 kind's registry pair {"posterior", "pz"} from ``event(rows(etas))``, the (marginals,
    p, joint) of z = ``side``; z = 1 - side has 1 - p and marginals - joint (``pz`` skips the joint)."""
    def posterior(etas, z) -> GroupPosterior:
        marginals, pz, joint = event(rows(etas))
        return _finish(pz, joint) if parse_bit(z) == side else _finish(1.0 - pz, marginals - joint)

    def pz(etas, zs) -> np.ndarray:
        own = event(rows(etas))[1]
        return np.maximum(np.where(np.asarray(zs) == side, own, 1.0 - own), 0.0)

    return {"posterior": posterior, "pz": pz}


def pairwise_event(etas):
    agree = etas[..., 0, :] * etas[..., 1, :]
    return etas, agree.sum(axis=-1), np.stack([agree, agree], axis=-2)


def posterior_pairwise(eta1, eta2, z: int) -> GroupPosterior:
    """Similarity indicator, m=2: z = 1 iff the two hidden labels agree.

    p(z=1) = sum_j eta1[j] eta2[j], and both z=1 joints equal the
    per-class agreement products.
    """
    return indicator(pairwise_event, 1)["posterior"](parse_probs([eta1, eta2]), z)


def triplet_event(etas):
    pair12 = etas[..., 0, :] * etas[..., 1, :]
    hit = pair12 * (1.0 - etas[..., 2, :])  # class-j mass of {y1 = y2 = j, y3 != j}
    # For y3 = j the first two must agree on some class other than j.
    other12 = (pair12.sum(axis=-1, keepdims=True) - pair12) * etas[..., 2, :]
    return etas, hit.sum(axis=-1), np.stack([hit, hit, other12], axis=-2)


def posterior_triplet(eta1, eta2, eta3, z: int) -> GroupPosterior:
    """Comparison indicator, m=3: z = 1 iff y1 == y2 and y1 != y3."""
    return indicator(triplet_event, 1)["posterior"](parse_probs([eta1, eta2, eta3]), z)


def mil_event(etas):
    pz = etas[..., 0].prod(axis=-1)
    joint = np.zeros(etas.shape)
    joint[..., 0] = pz[..., None]
    return etas, pz, joint


def posterior_mil(etas, z: int) -> GroupPosterior:
    """Bag indicator, k=2: z = max of the binary labels.

    ``etas`` is (m, 2) with columns (negative, positive). A negative bag
    forces every instance negative, so p(z=0) is the product of the
    negative probabilities and every z=0 joint row is (p(z=0), 0).
    """
    return indicator(mil_event, 0)["posterior"](parse_probs(etas, 2), z)


def _level_order(z: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Number the count box prod_j [0, z_j] by level |c| = sum_j c_j, then C order.

    Level L is cells starts[L]:starts[L + 1]. The read-only int32 table down[j, p] numbers
    cell c - e_j of cell p = c, or is the zero sentinel ``volume`` when c_j = 0.
    """
    shape = tuple(c + 1 for c in z)
    volume = math.prod(shape)
    level = functools.reduce(np.add.outer, [np.arange(n, dtype=np.min_scalar_type(sum(z))) for n in shape])
    order = np.argsort(level, axis=None, kind="stable")  # C-order index of each numbered cell
    starts = (0, *np.cumsum(np.bincount(level.ravel())).tolist())
    numbers = np.empty(shape, dtype=np.int32)
    np.put(numbers, order, np.arange(volume, dtype=np.int32))
    down = np.empty((len(z), volume), dtype=np.int32)
    lower = np.empty(shape, dtype=np.int32)
    for axis in range(len(z)):
        lower.fill(volume)
        lower[(slice(None),) * axis + (slice(1, None),)] = numbers[(slice(None),) * axis + (slice(-1),)]
        down[axis] = lower.ravel()[order]
    down.flags.writeable = False
    return starts, down


def _llp_plan(z: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    with _LLP_PLANS_LOCK:
        if z in _LLP_PLANS:  # a hit becomes the most recently used
            _LLP_PLANS[z] = _LLP_PLANS.pop(z)
            return _LLP_PLANS[z]
        plan = _level_order(z)
        if plan[1].nbytes <= LLP_PLAN_CACHE_BYTES:  # a larger plan serves this call only
            _LLP_PLANS[z] = plan
            while sum(down.nbytes for _, down in _LLP_PLANS.values()) > LLP_PLAN_CACHE_BYTES:
                del _LLP_PLANS[next(iter(_LLP_PLANS))]
        return plan


def _llp_prefix(etas: np.ndarray, z):
    """Check counts z against clamped (m, k) etas and run the prefix sweep:
    (starts, down, mass), where mass[-2], the cell of z itself, is p(z)."""
    z = parse_counts(z, *etas.shape)
    volume = math.prod(c + 1 for c in z)
    if (len(z) + 2) * volume > MAX_LLP_BOX:
        raise ValueError(f"llp count box of volume {volume} needs {(len(z) + 2) * volume} cells, over {MAX_LLP_BOX}")

    starts, down = _llp_plan(z)
    mass = np.zeros(volume + 1)  # index ``volume`` is the zero sentinel
    mass[0] = 1.0  # the empty count vector
    for eta, lo, hi in zip(etas, starts[1:-1], starts[2:]):
        mass[lo:hi] = eta @ mass.take(down[:, lo:hi])
    return starts, down, mass


def posterior_llp(etas, z) -> GroupPosterior:
    """Label-proportion counts, m>=2: z[j] = number of instances of class j; ``llp_kernel`` on checked rows."""
    return llp_kernel(parse_probs(etas), z)


def llp_kernel(etas, z) -> GroupPosterior:
    """``posterior_llp`` on rows already checked, the registry's llp entry.

    A dense dynamic program over the count box prod_j [0, z_j]. Count vector
    c is reached after exactly |c| instances, so one box-sized array holds a
    sweep: the mass of instances [0, |c|) having counts c, then, overwritten
    level by level, that of instances [m - |c|, m). Each step is one gather
    and one matrix-vector product, and the suffix sweep contracts as it goes:
    joint[i, j] = eta[i, j] * sum_{|q| = m - i} prefix[z - q] * suffix[q - e_j].
    """
    etas = _clamp_probs(etas)
    starts, down, mass = _llp_prefix(etas, z)
    volume = mass.size - 1
    # prefix[p] = prefix mass of z - c for cell p = c: the flip c -> z - c maps p to volume - 1 - p
    prefix = mass[volume - 1 :: -1].copy()
    joint = np.empty(etas.shape)
    for i, lo, hi in zip(range(len(etas) - 1, -1, -1), starts[1:-1], starts[2:]):
        rest = mass.take(down[:, lo:hi])  # rest[j, q] = suffix[q - e_j]
        mass[lo:hi] = etas[i] @ rest
        joint[i] = rest @ prefix[lo:hi]
    return _finish(prefix[0], etas * joint)


def pz_llp(etas, zs) -> np.ndarray:
    """p(z | group) for stacked groups (G, m, k): the prefix sweep alone, per group."""
    return np.array([max(_llp_prefix(_clamp_probs(e), z)[2][-2], 0.0) for e, z in zip(etas, zs)])


def rank_event(cum):
    probs = np.diff(cum, axis=-1)
    below1 = cum[..., 0, :-1] * probs[..., 1, :]  # p(y1 <= j-1, y2 = j) for j = 1..k
    joint = np.stack([(1.0 - cum[..., 1, 1:]) * probs[..., 0, :], below1], axis=-2)
    return probs, below1.sum(axis=-1), joint


def posterior_rank(cum1, cum2, z: int) -> GroupPosterior:
    """Order indicator on ordinal labels, m=2: z = 1 iff y1 < y2.

    Inputs are cumulative vectors (k+1,). p(z=1) accumulates, over the
    value j of y2, the chance that y1 lands strictly below j.
    """
    return indicator(rank_event, 1, _check_cumulative)["posterior"]([cum1, cum2], z)


def _band(cum: np.ndarray, lo, hi) -> np.ndarray:
    """p(lo < y <= hi) elementwise for ordinal y with cumulative vectors (..., k+1).

    Indices are clamped into [0, k] so out-of-range ends resolve through
    the 0/1 sentinels, and the max zeroes empty bands (hi < lo).
    """
    k = cum.shape[-1] - 1
    return np.maximum(cum[..., np.clip(hi, 0, k)] - cum[..., np.clip(lo, 0, k)], 0.0)


def ordinal_triplet_event(cum):
    probs = np.diff(cum, axis=-1)
    labels = np.arange(1, cum.shape[-1])
    a, b = labels[:, None], labels[None, :]
    radius = np.abs(b - a)
    # closer2[a, b] = p(|y2 - a| < |b - a|): y2 strictly inside the band
    # around y1 = a whose radius is set by y3 = b.
    closer2 = _band(cum[..., 1, :], a - radius, a + radius - 1)
    # beyond3[a, c] = p(|y3 - a| > |c - a|): y3 outside the closed band
    # around y1 = a whose radius is set by y2 = c.
    beyond3 = 1.0 - _band(cum[..., 2, :], a - radius - 1, a + radius)
    # explicit sums, not BLAS matrix-vector products, give a stack each group's bits
    p1, p3 = probs[..., 0, :, None], probs[..., 2, None, :]
    joint = probs * np.stack([(closer2 * p3).sum(axis=-1), (p1 * beyond3).sum(axis=-2), (p1 * closer2).sum(axis=-2)], axis=-2)
    return probs, joint[..., 0, :].sum(axis=-1), joint


def posterior_ordinal_triplet(cum1, cum2, cum3, z: int) -> GroupPosterior:
    """Comparison indicator with ordinal distance, m=3: z = 1 iff |y1-y2| < |y1-y3|."""
    return indicator(ordinal_triplet_event, 1, _check_cumulative)["posterior"]([cum1, cum2, cum3], z)


def group_posterior(task: Task, etas, z) -> GroupPosterior:
    """Dispatch to the task's closed form.

    ``etas`` is always per-class probabilities, shape (m, k) indexed by the
    task's label order ((0,1) for MIL, 1..k otherwise); ordinal tasks are
    converted to cumulative form internally.
    """
    etas = parse_probs(etas, task.k)
    task.spec.check_group_size(etas.shape[0], task.kind)
    return task.spec.posterior(etas, z)  # the kernel checks z by the kind's rule


def label_space_product(etas) -> np.ndarray:
    """prod_i eta[i][y_i] over every label tuple (axis i is y_i) of (m, k) etas clipped to [PROB_EPS, 1 - PROB_EPS]."""
    etas = np.clip(np.asarray(etas, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return functools.reduce(np.multiply.outer, etas)


def brute_force_posterior(task: Task, etas, z, max_tuples: int = MAX_TUPLES) -> GroupPosterior:
    """Exact posterior by summing over every consistent label tuple.

    Reference implementation for all closed forms; cost is |labels|^m so a
    bound guards the enumeration. ``etas`` is per-class (m, k) exactly as
    in group_posterior; llp/mil accept any group size >= 2.
    """
    etas = parse_probs(etas, task.k)  # checked, never changed: the oracle's arithmetic is its own
    consistent = task.consistency_mask(z, len(etas), max_tuples)  # bounded before the product
    masked = np.where(consistent, label_space_product(etas), 0.0)  # axis i is y_i
    joint = np.stack([masked.sum(axis=tuple(a for a in range(masked.ndim) if a != i)) for i in range(masked.ndim)])
    return GroupPosterior(pz=float(masked.sum()), joint=joint)
