"""Unified empty-partition behavior of the two MapReduce drivers.

Decision under test: when the routing leaves a partition empty —
possible under random partitioning on tiny inputs — both drivers *drop*
the empty part (no round-1 or round-3 reducer runs for it). Dropping
only lowers the effective parallelism; re-drawing would silently change
the random partitioning the randomized algorithm's analysis (Lemma 7)
relies on, and raising would make small seeded runs flaky.

The empty parts come from the real hash routing: on the 12-point input
below, ``random_state=4`` leaves one of 4 partitions and one of 6
partitions empty (seed found once by search and pinned here).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.mapreduce import ChunkRouter, hashed_assignment

SEED = 4


@pytest.fixture
def tiny_random():
    return np.random.default_rng(0).normal(size=(12, 2))


def test_pinned_seed_leaves_one_partition_empty():
    seed = int(np.random.default_rng(SEED).integers(2**63 - 1))
    for ell in (4, 6):
        counts = np.bincount(hashed_assignment(np.arange(12), ell, seed), minlength=ell)
        assert np.count_nonzero(counts == 0) == 1


class TestEmptyPartitionsDropped:
    def test_kcenter_drops_empty_partition(self, tiny_random):
        result = MapReduceKCenter(
            2, ell=4, coreset_multiplier=1, partitioning="random", random_state=SEED
        ).fit(tiny_random)
        assert result.k == 2
        assert result.radius > 0
        # Only the three non-empty parts became reducers.
        assert result.ell == 3
        assert result.stats.rounds[0].n_reducers == 3
        assert result.stats.rounds[2].n_reducers == 3

    def test_outliers_drops_empty_partition(self, tiny_random):
        result = MapReduceKCenterOutliers(
            2, 1, ell=4, coreset_multiplier=1, partitioning="random", random_state=SEED
        ).fit(tiny_random)
        assert result.k <= 2
        assert result.ell == 3
        assert result.stats.rounds[0].n_reducers == 3

    def test_both_solvers_report_same_reducer_count(self, tiny_random):
        kcenter = MapReduceKCenter(
            2, ell=6, coreset_multiplier=1, partitioning="random", random_state=SEED
        ).fit(tiny_random)
        outliers = MapReduceKCenterOutliers(
            2, 1, ell=6, coreset_multiplier=1, partitioning="random", random_state=SEED
        ).fit(tiny_random)
        assert kcenter.ell == outliers.ell == 5
        assert (
            kcenter.stats.rounds[0].n_reducers
            == outliers.stats.rounds[0].n_reducers
            == 5
        )


class TestEllLargerThanN:
    def test_kcenter_caps_ell_at_n(self):
        points = np.arange(6, dtype=float).reshape(-1, 1)
        result = MapReduceKCenter(2, ell=50, coreset_multiplier=1, random_state=0).fit(points)
        assert result.ell <= 6

    def test_outliers_caps_ell_at_n(self):
        points = np.arange(8, dtype=float).reshape(-1, 1)
        result = MapReduceKCenterOutliers(
            2, 1, ell=50, coreset_multiplier=1, random_state=0
        ).fit(points)
        assert result.ell <= 8

    def test_contiguous_router_still_rejects_ell_above_n(self):
        with pytest.raises(InvalidParameterError, match="non-empty parts"):
            ChunkRouter(5, "contiguous", n_total=3)

    def test_unknown_partitioning_rejected(self):
        with pytest.raises(InvalidParameterError, match="partitioning"):
            MapReduceKCenter(5, partitioning="zigzag")
        with pytest.raises(InvalidParameterError, match="partitioning"):
            MapReduceKCenterOutliers(5, 1, partitioning="zigzag")
