"""The public 0/1-label kernels refuse an aggregate label other than 0 or 1.

``group_posterior`` validates z through the task registry; these kernels
are also public, so each one is called directly here.
"""

import pytest

from agglearn.posteriors import (
    posterior_mil,
    posterior_ordinal_triplet,
    posterior_pairwise,
    posterior_rank,
    posterior_triplet,
    to_cumulative,
)

ETA = [0.5, 0.3, 0.2]
CUM = to_cumulative(ETA)

KERNELS = {
    "pairwise": lambda z: posterior_pairwise(ETA, ETA, z),
    "triplet": lambda z: posterior_triplet(ETA, ETA, ETA, z),
    "mil": lambda z: posterior_mil([[0.6, 0.4], [0.7, 0.3]], z),
    "rank": lambda z: posterior_rank(CUM, CUM, z),
    "ordinal_triplet": lambda z: posterior_ordinal_triplet(CUM, CUM, CUM, z),
}


@pytest.mark.parametrize("z", [-3, 2, 7, 0.5])
@pytest.mark.parametrize("kind", KERNELS)
def test_label_outside_0_and_1_is_refused(kind, z):
    with pytest.raises(ValueError, match="0 or 1"):
        KERNELS[kind](z)
