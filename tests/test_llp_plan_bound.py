"""The label-proportion box bound is checked where a plan is built, ``posteriors._level_order``.

A count box over ``MAX_LLP_BOX`` cells is refused on every call, is never cached, and so
a plan read back from the cache needs no second check.
"""

import numpy as np
import pytest

from agglearn import posteriors
from agglearn.posteriors import posterior_llp


@pytest.fixture(autouse=True)
def empty_cache():
    posteriors._LLP_PLANS.clear()
    yield
    posteriors._LLP_PLANS.clear()


def test_the_plan_builder_refuses_a_box_over_the_bound(monkeypatch):
    monkeypatch.setattr(posteriors, "MAX_LLP_BOX", 100)
    with pytest.raises(ValueError, match="llp count box of volume 27 needs 135 cells, over 100"):
        posteriors._level_order((2, 2, 2))
    assert posteriors._level_order((2, 2, 1))[1].shape == (3, 18)  # 90 cells


def test_a_box_over_the_bound_is_refused_on_every_call_and_never_cached(monkeypatch):
    monkeypatch.setattr(posteriors, "MAX_LLP_BOX", 100)
    etas = np.full((6, 3), 1.0 / 3.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="over 100"):
            posteriors._llp_plan((2, 2, 2))
        with pytest.raises(ValueError, match="over 100"):
            posterior_llp(etas, (2, 2, 2))
        assert not posteriors._LLP_PLANS
    posterior_llp(etas[:5], (2, 2, 1))
    assert list(posteriors._LLP_PLANS) == [(2, 2, 1)]
