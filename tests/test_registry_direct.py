"""The registry calls each 0/1 kind's event directly; its bits are the public wrappers'."""

import numpy as np
import pytest

from agglearn.posteriors import (
    cumulative_rows,
    one_group,
    posterior_mil,
    posterior_ordinal_triplet,
    posterior_pairwise,
    posterior_rank,
    posterior_triplet,
)
from agglearn.tasks import TASKS, Task

PUBLIC_KERNELS = {
    "pairwise": lambda etas, z: posterior_pairwise(*etas, z),
    "triplet": lambda etas, z: posterior_triplet(*etas, z),
    "mil": posterior_mil,
    "rank": lambda etas, z: posterior_rank(*cumulative_rows(etas), z),
    "ordinal_triplet": lambda etas, z: posterior_ordinal_triplet(*cumulative_rows(etas), z),
}


def test_every_indicator_kind_has_a_public_kernel():
    assert set(PUBLIC_KERNELS) == {kind for kind, spec in TASKS.items() if not spec.counts}


@pytest.mark.parametrize("kind", sorted(PUBLIC_KERNELS))
@pytest.mark.parametrize("z", [0, 1])
def test_registry_posterior_equals_the_public_kernel(kind, z):
    spec = TASKS[kind]
    task = Task(kind, spec.m or 3, spec.k or 4)
    etas = np.random.default_rng(7).dirichlet(np.ones(task.k), size=task.m)
    ours, public = one_group(spec.kernel, etas, z), PUBLIC_KERNELS[kind](etas, z)
    assert ours.pz == public.pz
    assert np.array_equal(ours.joint, public.joint)
