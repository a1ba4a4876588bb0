"""The label-proportion plan cache: same bits warm or cold, read-only, byte-bounded LRU.

``posterior_llp`` and the llp kernel's p(z) alone (``TASKS["llp"].kernel`` with ``joint=False``)
read each count vector's box plan (level starts and neighbour table) from
``posteriors._LLP_PLANS``. A plan served
from the cache must give the bits of a freshly built one, must not be
writable by a caller, and the cache must hold at most
``LLP_PLAN_CACHE_BYTES`` of tables, evicting the least recently used.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn import posteriors
from agglearn.posteriors import posterior_llp
from agglearn.tasks import TASKS


def pz_llp(etas, zs):
    return TASKS["llp"].kernel(etas, zs, joint=False)[0]


# per-class masses before row normalization, near-0/1 entries included
MASSES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-13, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(1e-6, 1.0))

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# every count vector of a bag of 6 over 3 classes, 28 in all
COUNTS_6_3 = [z for z in itertools.product(range(7), repeat=3) if sum(z) == 6]


@pytest.fixture(autouse=True)
def empty_cache():
    posteriors._LLP_PLANS.clear()
    yield
    posteriors._LLP_PLANS.clear()


def table_bytes():
    return sum(down.nbytes for _, down in posteriors._LLP_PLANS.values())


def etas_for(m, k, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(k), size=m)


@st.composite
def bags(draw):
    m, k = draw(st.integers(2, 8)), draw(st.integers(2, 10))
    etas = np.array([draw(st.lists(MASSES, min_size=k, max_size=k)) for _ in range(m)])
    etas[etas.sum(axis=1) == 0.0, 0] = 1.0
    labels = st.lists(st.integers(0, k - 1), min_size=m, max_size=m)
    zs = [tuple(np.bincount(draw(labels), minlength=k).tolist()) for _ in range(draw(st.integers(1, 4)))]
    return etas / etas.sum(axis=1, keepdims=True), zs


def results(etas, z):
    post = posterior_llp(etas, z)
    return post.pz, post.joint.tobytes(), pz_llp(etas[None], [z]).tobytes()


@PROPERTY
@given(bag=bags())
def test_warm_plans_give_the_bits_of_cold_ones(bag):
    etas, zs = bag
    cold = []
    for z in zs:
        posteriors._LLP_PLANS.clear()
        cold.append(results(etas, z))
    for z in zs:  # fill the cache with every plan of this bag size first
        results(etas, z)
    assert [results(etas, z) for z in zs] == cold
    assert set(posteriors._LLP_PLANS) == set(zs)


def test_cached_tables_are_read_only():
    posterior_llp(etas_for(6, 3), (2, 3, 1))
    starts, down = posteriors._LLP_PLANS[(2, 3, 1)]
    assert isinstance(starts, tuple)
    with pytest.raises(ValueError, match="read-only"):
        down[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        down.fill(0)


def test_bytes_stay_under_the_bound_and_the_least_recently_used_goes(monkeypatch):
    bound = 1200  # a few of the 84- to 324-byte tables of m = 6, k = 3
    monkeypatch.setattr(posteriors, "LLP_PLAN_CACHE_BYTES", bound)
    etas = etas_for(6, 3)
    order = np.random.default_rng(3).permutation(len(COUNTS_6_3))
    accesses = [COUNTS_6_3[i] for i in order] + [COUNTS_6_3[i] for i in order[::-1]]
    sizes = {z: posteriors._level_order(z)[1].nbytes for z in COUNTS_6_3}
    model = []  # the LRU order a correct cache keeps, oldest first
    for z in accesses:
        posterior_llp(etas, z)
        if z in model:
            model.remove(z)
        model.append(z)
        while sum(sizes[q] for q in model) > bound:
            model.pop(0)
        assert list(posteriors._LLP_PLANS) == model
        assert table_bytes() <= bound


def test_a_hit_protects_a_plan_from_eviction(monkeypatch):
    etas = etas_for(6, 3)
    first, second, third, fourth = (2, 2, 2), (2, 3, 1), (3, 2, 1), (1, 2, 3)  # 324, 288, 288, 288 bytes
    for z in (first, second, third):
        posterior_llp(etas, z)
    monkeypatch.setattr(posteriors, "LLP_PLAN_CACHE_BYTES", table_bytes())
    pz_llp(etas[None], [first])  # first is now the most recently used
    posterior_llp(etas, fourth)
    assert list(posteriors._LLP_PLANS) == [third, first, fourth]


def test_a_plan_over_the_bound_is_used_but_not_kept(monkeypatch):
    etas = etas_for(6, 3)
    expected = results(etas, (2, 2, 2))
    posteriors._LLP_PLANS.clear()
    small = (6, 0, 0)  # a 7-cell box, 84 bytes
    posterior_llp(etas, small)
    monkeypatch.setattr(posteriors, "LLP_PLAN_CACHE_BYTES", 100)
    assert results(etas, (2, 2, 2)) == expected  # 27 cells, 324 bytes
    assert list(posteriors._LLP_PLANS) == [small]


@pytest.mark.parametrize("z, message", [
    ((2, 2, 2), "over 100"),  # (k + 2) * 27 = 135 cells
    ((2, 2, 1), "counts sum to 5"),
    ((2, 2, 1, 1), "expected k=3"),
])
def test_a_refused_box_leaves_the_cache_unchanged(monkeypatch, z, message):
    etas = etas_for(6, 3)
    for held in ((6, 0, 0), (5, 1, 0)):
        posterior_llp(etas, held)
    before = list(posteriors._LLP_PLANS.items())
    monkeypatch.setattr(posteriors, "MAX_LLP_BOX", 100)
    for call in (lambda: posterior_llp(etas, z), lambda: pz_llp(etas[None], [z])):
        with pytest.raises(ValueError, match=message):
            call()
        after = list(posteriors._LLP_PLANS.items())
        assert [q for q, _ in after] == [q for q, _ in before]
        assert all(plan is kept for (_, plan), (_, kept) in zip(after, before))
