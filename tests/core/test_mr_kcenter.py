"""Tests for repro.core.mr_kcenter (2-round MapReduce k-center)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MapReduceKCenter, gmm_select
from repro.evaluation import optimal_kcenter_radius
from repro.exceptions import InvalidParameterError, MemoryBudgetExceededError


class TestMapReduceKCenterConfiguration:
    def test_mutually_exclusive_knobs(self):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenter(5, epsilon=0.5, coreset_multiplier=2)

    def test_default_epsilon_when_unspecified(self):
        solver = MapReduceKCenter(5)
        assert solver.epsilon == 1.0
        assert solver.coreset_multiplier is None

    def test_invalid_partitioning(self):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenter(5, partitioning="zigzag")

    def test_k_too_large(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenter(small_blobs.shape[0] + 1).fit(small_blobs)


class TestMapReduceKCenterExecution:
    def test_returns_k_centers(self, medium_blobs):
        result = MapReduceKCenter(6, ell=4, coreset_multiplier=4, random_state=0).fit(medium_blobs)
        assert result.k == 6
        assert result.centers.shape == (6, medium_blobs.shape[1])
        np.testing.assert_allclose(result.centers, medium_blobs[result.center_indices])

    def test_two_rounds_plus_evaluation_executed(self, medium_blobs):
        result = MapReduceKCenter(6, ell=4, coreset_multiplier=2, random_state=0).fit(medium_blobs)
        assert result.stats.n_rounds == 3

    def test_coreset_size_equals_ell_times_tau(self, medium_blobs):
        k, ell, mu = 6, 4, 2
        result = MapReduceKCenter(k, ell=ell, coreset_multiplier=mu, random_state=0).fit(medium_blobs)
        assert result.coreset_size == ell * mu * k

    def test_local_memory_accounting(self, medium_blobs):
        ell = 4
        result = MapReduceKCenter(6, ell=ell, coreset_multiplier=2, random_state=0).fit(medium_blobs)
        n = medium_blobs.shape[0]
        # Round-1 reducers receive ~n/ell points; round 2 receives the union
        # of the coresets. Peak local memory must be the larger of the two.
        expected = max(int(np.ceil(n / ell)), result.coreset_size)
        assert result.stats.peak_local_memory == expected

    def test_memory_limit_enforced(self, medium_blobs):
        with pytest.raises(MemoryBudgetExceededError):
            MapReduceKCenter(
                6, ell=2, coreset_multiplier=2, local_memory_limit=10, random_state=0
            ).fit(medium_blobs)

    def test_ell_one_huge_coreset_degenerates_to_gmm_quality(self, small_blobs):
        # With a single partition and mu so large the coreset is the whole
        # dataset, the second round runs GMM on all of S (in a different
        # order), so the result carries GMM's guarantee: its radius is at
        # most twice the radius of a direct GMM run (both are
        # 2-approximations of the same optimum).
        result = MapReduceKCenter(5, ell=1, coreset_multiplier=100, random_state=0).fit(small_blobs)
        assert result.coreset_size == small_blobs.shape[0]
        direct = gmm_select(small_blobs, 5)
        assert result.radius <= 2.0 * direct.radius + 1e-9

    def test_ell_capped_at_n(self):
        points = np.arange(6, dtype=float).reshape(-1, 1)
        result = MapReduceKCenter(2, ell=50, coreset_multiplier=1, random_state=0).fit(points)
        assert result.ell <= 6

    def test_partitioning_strategies_all_work(self, medium_blobs):
        for partitioning in ("contiguous", "round_robin", "random"):
            result = MapReduceKCenter(
                5, ell=4, coreset_multiplier=2, partitioning=partitioning, random_state=0
            ).fit(medium_blobs)
            assert result.radius > 0

    def test_reproducible_with_seed(self, medium_blobs):
        a = MapReduceKCenter(5, ell=4, coreset_multiplier=2, random_state=42).fit(medium_blobs)
        b = MapReduceKCenter(5, ell=4, coreset_multiplier=2, random_state=42).fit(medium_blobs)
        assert a.radius == pytest.approx(b.radius)
        np.testing.assert_array_equal(a.center_indices, b.center_indices)


class TestMapReduceKCenterQuality:
    def test_theorem1_bound_small_instance(self, rng):
        # Theorem 1: (2 + eps)-approximation. Verify against brute force.
        points = rng.normal(size=(20, 2)) * 5
        k, epsilon = 3, 1.0
        result = MapReduceKCenter(k, ell=2, epsilon=epsilon, random_state=0).fit(points)
        optimum = optimal_kcenter_radius(points, k)
        assert result.radius <= (2.0 + epsilon) * optimum + 1e-9

    def test_larger_coreset_improves_or_matches(self, medium_blobs):
        k = 8
        radii = []
        for mu in (1, 4, 16):
            result = MapReduceKCenter(k, ell=4, coreset_multiplier=mu, random_state=1).fit(medium_blobs)
            radii.append(result.radius)
        # Not strictly monotone run by run, but mu=16 should not be worse
        # than mu=1 by more than a hair on a well-clustered instance.
        assert radii[-1] <= radii[0] * 1.05 + 1e-9

    def test_epsilon_rule_beats_baseline_coreset(self, medium_blobs):
        k = 8
        baseline = MapReduceKCenter(k, ell=4, coreset_multiplier=1, random_state=2).fit(medium_blobs)
        adaptive = MapReduceKCenter(k, ell=4, epsilon=0.25, random_state=2).fit(medium_blobs)
        assert adaptive.coreset_size >= baseline.coreset_size
        assert adaptive.radius <= baseline.radius * 1.05 + 1e-9
