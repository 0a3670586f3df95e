"""Tests for thread-parallel execution of the simulated MapReduce runtime."""

from __future__ import annotations

import numpy as np
import pytest
from _rounds import modulo_groups

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.mapreduce import MapReduceRuntime


def summing_reducer(key, values):
    yield (key, sum(values))


class TestParallelRuntime:
    def test_invalid_max_workers(self):
        with pytest.raises(InvalidParameterError):
            MapReduceRuntime(max_workers=0)

    def test_same_output_as_sequential(self):
        groups = modulo_groups(range(40), 4)
        sequential = MapReduceRuntime(max_workers=1).execute_round(groups, summing_reducer)
        parallel = MapReduceRuntime(max_workers=4).execute_round(groups, summing_reducer)
        assert sequential == parallel

    def test_stats_recorded_for_every_reducer(self):
        runtime = MapReduceRuntime(max_workers=3)
        runtime.execute_round(modulo_groups(range(20), 4), summing_reducer)
        round_stats = runtime.stats.rounds[0]
        assert round_stats.n_reducers == 4
        assert len(round_stats.reducer_times) == 4

    def test_memory_limit_still_enforced(self):
        from repro.exceptions import MemoryBudgetExceededError

        runtime = MapReduceRuntime(max_workers=2, local_memory_limit=2)
        with pytest.raises(MemoryBudgetExceededError):
            runtime.execute_round(modulo_groups(range(20), 4), summing_reducer)


class TestParallelSolvers:
    def test_mr_kcenter_parallel_matches_sequential(self, medium_blobs):
        kwargs = dict(ell=4, coreset_multiplier=2, random_state=42)
        sequential = MapReduceKCenter(6, max_workers=1, **kwargs).fit(medium_blobs)
        parallel = MapReduceKCenter(6, max_workers=4, **kwargs).fit(medium_blobs)
        assert sequential.radius == pytest.approx(parallel.radius)
        np.testing.assert_array_equal(sequential.center_indices, parallel.center_indices)

    def test_mr_outliers_parallel_matches_sequential(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        kwargs = dict(ell=4, coreset_multiplier=2, random_state=42)
        sequential = MapReduceKCenterOutliers(5, z, max_workers=1, **kwargs).fit(data)
        parallel = MapReduceKCenterOutliers(5, z, max_workers=4, **kwargs).fit(data)
        assert sequential.radius == pytest.approx(parallel.radius)
        np.testing.assert_array_equal(sequential.center_indices, parallel.center_indices)

    def test_randomized_variant_parallel_matches_sequential(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        kwargs = dict(
            ell=4, coreset_multiplier=2, randomized=True,
            include_log_term=False, random_state=7,
        )
        sequential = MapReduceKCenterOutliers(5, z, max_workers=1, **kwargs).fit(data)
        parallel = MapReduceKCenterOutliers(5, z, max_workers=3, **kwargs).fit(data)
        assert sequential.radius == pytest.approx(parallel.radius)
