"""Closed-form posteriors: frozen examples, oracle equivalence, structure.

Expected values in the frozen tests were computed by brute-force
enumeration over all consistent label tuples (the same definition
``brute_force_posterior`` implements) before being written down here.
"""

import time
import zlib

import numpy as np
import pytest

from agglearn.posteriors import (
    brute_force_posterior,
    group_posterior,
    posterior_llp,
    posterior_mil,
    posterior_ordinal_triplet,
    posterior_pairwise,
    posterior_rank,
    posterior_triplet,
    to_cumulative,
)
from agglearn.tasks import Task, enumerate_z

from test_tasks import ALL_KINDS, make_task

UNIFORM2 = np.array([0.5, 0.5])


def random_task_etas_z(kind, rng):
    k = int(rng.integers(2, 6))
    if kind == "mil":
        task = Task("mil", m=int(rng.integers(2, 7)), k=2)
    elif kind == "llp":
        task = Task("llp", m=int(rng.integers(2, 7)), k=k)
    else:
        task = make_task(kind, k=k)
    n_classes = 2 if kind == "mil" else task.k
    etas = rng.dirichlet(np.ones(n_classes), size=task.m)
    if kind == "llp":
        labels = rng.integers(1, task.k + 1, size=task.m)
        z = tuple(int(c) for c in np.bincount(labels, minlength=task.k + 1)[1:])
    else:
        z = int(rng.integers(0, 2))
    return task, etas, z


class TestPairwise:
    def test_uniform_symmetry(self):
        post = posterior_pairwise(UNIFORM2, UNIFORM2, 1)
        assert post.pz == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(post.joint, 0.25, atol=1e-12)

    def test_worked_example(self):
        # brute force over the 4 label pairs: (1,1) -> .48, (2,2) -> .08
        post = posterior_pairwise([0.8, 0.2], [0.6, 0.4], 1)
        assert post.pz == pytest.approx(0.56, abs=1e-12)
        np.testing.assert_allclose(post.joint[0], [0.48, 0.08], atol=1e-12)
        np.testing.assert_allclose(post.joint[1], [0.48, 0.08], atol=1e-12)

    def test_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eta1, eta2 = rng.dirichlet(np.ones(4), size=2)
            p1 = posterior_pairwise(eta1, eta2, 1).pz
            p0 = posterior_pairwise(eta1, eta2, 0).pz
            assert p0 == pytest.approx(1.0 - p1, abs=1e-12)


class TestTriplet:
    def test_uniform_binary(self):
        # 8 equiprobable triples; y1=y2!=y3 covers 2 of them
        post = posterior_triplet(UNIFORM2, UNIFORM2, UNIFORM2, 1)
        assert post.pz == pytest.approx(0.25, abs=1e-12)
        assert posterior_triplet(UNIFORM2, UNIFORM2, UNIFORM2, 0).pz == pytest.approx(0.75, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            etas = rng.dirichlet(np.ones(5), size=3)
            for z in (0, 1):
                closed = posterior_triplet(etas[0], etas[1], etas[2], z)
                brute = brute_force_posterior(Task("triplet", 3, 5), etas, z)
                assert closed.pz == pytest.approx(brute.pz, abs=1e-10)
                np.testing.assert_allclose(closed.joint, brute.joint, atol=1e-10)


class TestLabelProportions:
    def test_worked_example(self):
        # tuples with counts (1,1): (1,2) -> .7*.6 = .42 and (2,1) -> .3*.4 = .12
        post = posterior_llp([[0.7, 0.3], [0.4, 0.6]], (1, 1))
        assert post.pz == pytest.approx(0.54, abs=1e-12)
        np.testing.assert_allclose(post.joint[0], [0.42, 0.12], atol=1e-12)

    def test_single_consistent_tuple(self):
        rng = np.random.default_rng(5)
        etas = rng.dirichlet(np.ones(3), size=4)
        post = posterior_llp(etas, (4, 0, 0))
        expected = float(np.prod(etas[:, 0]))
        assert post.pz == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(post.joint[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(post.joint[:, 1:], 0.0, atol=1e-15)

    def test_infeasible_counts_are_not_an_error(self):
        # a zero-probability z is a value, only a bad sum is an error
        post = posterior_llp([[1.0, 0.0], [1.0, 0.0]], (0, 2))
        assert post.pz == pytest.approx(0.0, abs=1e-20)
        with pytest.raises(ValueError):
            posterior_llp([[1.0, 0.0], [1.0, 0.0]], (1, 2))

    def test_dp_matches_oracle_and_is_faster_at_scale(self):
        rng = np.random.default_rng(6)
        etas = rng.dirichlet(np.ones(10), size=6)
        labels = rng.integers(1, 11, size=6)
        z = tuple(int(c) for c in np.bincount(labels, minlength=11)[1:])
        t0 = time.perf_counter()
        closed = posterior_llp(etas, z)
        dp_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        brute = brute_force_posterior(Task("llp", 6, 10), etas, z)
        brute_time = time.perf_counter() - t0
        assert closed.pz == pytest.approx(brute.pz, abs=1e-10)
        np.testing.assert_allclose(closed.joint, brute.joint, atol=1e-10)
        # the DP scans count boxes, the oracle scans all 10^6 tuples
        assert dp_time < brute_time


class TestMultipleInstance:
    def test_worked_example(self):
        etas = np.array([[0.1, 0.9], [0.5, 0.5]])
        assert posterior_mil(etas, 0).pz == pytest.approx(0.05, abs=1e-12)
        post = posterior_mil(etas, 1)
        assert post.pz == pytest.approx(0.95, abs=1e-12)
        assert post.joint[0, 1] == pytest.approx(0.9, abs=1e-12)

    def test_all_negative_certainty(self):
        etas = np.array([[1.0, 0.0]] * 4)
        assert posterior_mil(etas, 0).pz == pytest.approx(1.0, abs=1e-9)
        assert posterior_mil(etas, 1).pz == pytest.approx(0.0, abs=1e-9)

    def test_negative_bag_forbids_positives(self):
        rng = np.random.default_rng(7)
        etas = rng.dirichlet(np.ones(2), size=5)
        post = posterior_mil(etas, 0)
        np.testing.assert_allclose(post.joint[:, 1], 0.0, atol=1e-15)

    def test_long_bags_use_log_space_without_drift(self):
        rng = np.random.default_rng(8)
        etas = rng.dirichlet(np.ones(2), size=12)  # above the log-space switchover
        for z in (0, 1):
            closed = posterior_mil(etas, z)
            brute = brute_force_posterior(Task("mil", 12, 2), etas, z)
            assert closed.pz == pytest.approx(brute.pz, abs=1e-10)
            np.testing.assert_allclose(closed.joint, brute.joint, atol=1e-10)


class TestRank:
    def test_uniform_binary(self):
        cum = np.array([0.0, 0.5, 1.0])
        # only (y1=1, y2=2) of the four pairs is strictly increasing
        assert posterior_rank(cum, cum, 1).pz == pytest.approx(0.25, abs=1e-12)

    def test_single_class_never_ordered(self):
        cum = np.array([0.0, 1.0])
        assert posterior_rank(cum, cum, 1).pz == pytest.approx(0.0, abs=1e-9)

    def test_rows_marginalize_to_pz(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            cum1 = to_cumulative(rng.dirichlet(np.ones(5)))
            cum2 = to_cumulative(rng.dirichlet(np.ones(5)))
            for z in (0, 1):
                post = posterior_rank(cum1, cum2, z)
                np.testing.assert_allclose(post.joint.sum(axis=1), post.pz, atol=1e-10)

    def test_rejects_non_monotone_input(self):
        with pytest.raises(ValueError):
            posterior_rank([0.0, 0.7, 0.4, 1.0], [0.0, 0.5, 0.8, 1.0], 1)


class TestOrdinalTriplet:
    def test_uniform_binary_matches_oracle(self):
        etas = np.tile(UNIFORM2, (3, 1))
        closed = group_posterior(Task("ordinal_triplet", 3, 2), etas, 1)
        brute = brute_force_posterior(Task("ordinal_triplet", 3, 2), etas, 1)
        assert closed.pz == pytest.approx(brute.pz, abs=1e-10)

    def test_zero_radius_band_is_empty(self):
        # when y1 and y3 share a value the strict band around it is empty
        cum = to_cumulative([0.2, 0.3, 0.5])
        post = posterior_ordinal_triplet(cum, cum, cum, 1)
        brute = brute_force_posterior(
            Task("ordinal_triplet", 3, 3), np.tile([0.2, 0.3, 0.5], (3, 1)), 1
        )
        assert post.pz == pytest.approx(brute.pz, abs=1e-10)

    def test_z_complement(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            cums = [to_cumulative(rng.dirichlet(np.ones(4))) for _ in range(3)]
            p1 = posterior_ordinal_triplet(*cums, 1).pz
            p0 = posterior_ordinal_triplet(*cums, 0).pz
            assert p1 + p0 == pytest.approx(1.0, abs=1e-10)


class TestBruteForce:
    def test_one_hot_is_an_indicator(self):
        task = Task("pairwise", 2, 3)
        etas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # y = (1, 2), dissimilar
        assert brute_force_posterior(task, etas, 0).pz == pytest.approx(1.0, abs=1e-9)
        assert brute_force_posterior(task, etas, 1).pz == pytest.approx(0.0, abs=1e-9)

    def test_total_probability_over_z(self):
        rng = np.random.default_rng(11)
        for kind in ALL_KINDS:
            task = make_task(kind)
            n_classes = 2 if kind == "mil" else task.k
            etas = rng.dirichlet(np.ones(n_classes), size=task.m)
            total = sum(brute_force_posterior(task, etas, z).pz for z in enumerate_z(task))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_enumeration_bound(self):
        task = Task("llp", 6, 10)
        etas = np.full((6, 10), 0.1)
        with pytest.raises(ValueError):
            brute_force_posterior(task, etas, (6, 0, 0, 0, 0, 0, 0, 0, 0, 0), max_tuples=1000)


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_closed_form_matches_enumeration(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(50):
            task, etas, z = random_task_etas_z(kind, rng)
            closed = group_posterior(task, etas, z)
            brute = brute_force_posterior(task, etas, z)
            assert closed.pz == pytest.approx(brute.pz, abs=1e-9)
            np.testing.assert_allclose(closed.joint, brute.joint, atol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_structure_invariants(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()) % 2**31)
        for _ in range(30):
            task, etas, z = random_task_etas_z(kind, rng)
            post = group_posterior(task, etas, z)
            assert post.pz >= 0.0
            assert np.all(post.joint >= 0.0)
            assert np.all(post.joint <= post.pz + 1e-12)
            np.testing.assert_allclose(post.joint.sum(axis=1), post.pz, atol=1e-9)
            total = sum(group_posterior(task, etas, zz).pz for zz in enumerate_z(task))
            assert total == pytest.approx(1.0, abs=1e-9)
