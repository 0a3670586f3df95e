"""Bit-identical equivalence of the distributed backend with the serial reference.

The distributed counterpart of ``test_property_mr_equivalence``: for
fixed seeds, a 2-worker loopback :class:`~repro.mapreduce.LocalCluster`
must produce **bit-identical** centers, center indices, radii and
outlier sets compared with ``backend="serial"`` across

* both MapReduce drivers (k-center and k-center-with-outliers),
* ``fit`` and ``fit_stream`` at several chunk sizes, on the disk tier
  (a partition reaches a worker only as a spill file pushed as raw
  bytes; the memory tier is refused before the stream is read),
* every partitioning and several chunk sizes,

and a worker killed mid-job must not change the solution — only add a
reassignment to :attr:`~repro.mapreduce.runtime.JobStats.worker_assignments`.
This is the acceptance contract of the distributed backend (ISSUE 5):
all randomness is drawn in the coordinator before dispatch, so remote
execution may only move computation, never change it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.mapreduce import LocalCluster
from repro.streaming import ArrayStream, GeneratorStream

STORAGE_TIERS = ("auto", "disk")
CHUNK_SIZES = (64, 251, 4096)


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import higgs_like, inject_outliers

    points = higgs_like(1200, random_state=17)
    return inject_outliers(points, 40, random_state=18)


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as loopback:
        yield loopback


def _kcenter(workers=None, **kwargs):
    kwargs.setdefault("partitioning", "random")
    kwargs.setdefault("random_state", 5)
    return MapReduceKCenter(6, ell=4, coreset_multiplier=3, workers=workers, **kwargs)


def _outliers(workers=None, **kwargs):
    return MapReduceKCenterOutliers(
        5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
        random_state=5, workers=workers, **kwargs,
    )


def _assert_kcenter_equal(result, reference):
    np.testing.assert_array_equal(result.center_indices, reference.center_indices)
    np.testing.assert_array_equal(result.centers, reference.centers)
    assert result.radius == reference.radius
    assert result.coreset_size == reference.coreset_size


def _assert_outliers_equal(result, reference):
    np.testing.assert_array_equal(result.center_indices, reference.center_indices)
    np.testing.assert_array_equal(result.centers, reference.centers)
    assert result.radius == reference.radius
    assert result.radius_all_points == reference.radius_all_points
    assert result.estimated_radius == reference.estimated_radius
    np.testing.assert_array_equal(result.outlier_indices, reference.outlier_indices)


class TestKCenterEquivalence:
    def test_fit_matches_serial(self, dataset, cluster):
        points = dataset.points
        reference = _kcenter().fit(points)
        distributed = _kcenter(cluster.addresses).fit(points)
        assert distributed.stats.storage_tier == "disk"
        _assert_kcenter_equal(distributed, reference)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fit_stream_matches_serial_fit(self, dataset, cluster, storage, chunk_size):
        points = dataset.points
        reference = _kcenter().fit(points)
        distributed = _kcenter(cluster.addresses).fit_stream(
            ArrayStream(points), chunk_size=chunk_size, storage=storage
        )
        assert distributed.stats.storage_tier == "disk"
        _assert_kcenter_equal(distributed, reference)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_memory_tier_rejected_before_the_stream_is_read(
        self, dataset, cluster, chunk_size
    ):
        chunks = iter([dataset.points])
        stream = GeneratorStream(chunks, length_hint=len(dataset.points))
        with pytest.raises(InvalidParameterError, match="distributed"):
            _kcenter(cluster.addresses).fit_stream(
                stream, chunk_size=chunk_size, storage="memory"
            )
        # The single-pass source still holds its first chunk.
        assert next(chunks).shape == dataset.points.shape

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_partitionings_match_across_paths(self, dataset, cluster, partitioning):
        points = dataset.points
        reference = _kcenter(partitioning=partitioning, random_state=9).fit(points)
        d_fit = _kcenter(
            cluster.addresses, partitioning=partitioning, random_state=9
        ).fit(points)
        d_stream = _kcenter(
            cluster.addresses, partitioning=partitioning, random_state=9
        ).fit_stream(ArrayStream(points), chunk_size=200)
        _assert_kcenter_equal(d_fit, reference)
        _assert_kcenter_equal(d_stream, reference)


class TestOutliersEquivalence:
    def test_fit_matches_serial(self, dataset, cluster):
        points = dataset.points
        reference = _outliers().fit(points)
        distributed = _outliers(cluster.addresses).fit(points)
        _assert_outliers_equal(distributed, reference)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_fit_stream_matches_serial_fit(self, dataset, cluster, storage):
        points = dataset.points
        reference = _outliers().fit(points)
        distributed = _outliers(cluster.addresses).fit_stream(
            ArrayStream(points), chunk_size=251, storage=storage
        )
        assert distributed.stats.storage_tier == "disk"
        _assert_outliers_equal(distributed, reference)

    def test_memory_tier_rejected_before_the_stream_is_read(self, dataset, cluster):
        chunks = iter([dataset.points])
        stream = GeneratorStream(chunks, length_hint=len(dataset.points))
        with pytest.raises(InvalidParameterError, match="distributed"):
            _outliers(cluster.addresses).fit_stream(stream, chunk_size=251, storage="memory")
        assert next(chunks).shape == dataset.points.shape

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_randomized_variant_matches(self, dataset, cluster, chunk_size):
        points = dataset.points
        reference = _outliers(randomized=True).fit(points)
        distributed = _outliers(cluster.addresses, randomized=True).fit_stream(
            ArrayStream(points), chunk_size=chunk_size
        )
        np.testing.assert_array_equal(
            distributed.center_indices, reference.center_indices
        )
        assert distributed.radius == reference.radius
        np.testing.assert_array_equal(
            distributed.outlier_indices, reference.outlier_indices
        )

    def test_recovers_planted_outliers(self, dataset, cluster):
        distributed = _outliers(cluster.addresses, randomized=True).fit_stream(
            ArrayStream(dataset.points), chunk_size=128, storage="disk"
        )
        assert set(distributed.outlier_indices) == set(dataset.outlier_indices)


class TestWorkerKillEquivalence:
    """A mid-job worker death must not change the solution (ISSUE 5 acceptance)."""

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_kcenter_survives_worker_death(self, dataset, storage):
        points = dataset.points
        reference = _kcenter().fit(points)
        with LocalCluster(2, fail_after_tasks={0: 1}) as flaky:
            distributed = _kcenter(flaky.addresses).fit_stream(
                ArrayStream(points), chunk_size=251, storage=storage
            )
        _assert_kcenter_equal(distributed, reference)
        retried = [
            key
            for round_assignments in distributed.stats.worker_assignments
            for key, attempts in round_assignments.items()
            if len(attempts) > 1
        ]
        assert retried, "JobStats must record the reassignment"

    def test_outliers_survive_truncated_result(self, dataset):
        points = dataset.points
        reference = _outliers().fit(points)
        with LocalCluster(2, fail_after_tasks={0: 1}, fail_mode="truncate") as flaky:
            distributed = _outliers(flaky.addresses).fit_stream(
                ArrayStream(points), chunk_size=251, storage="disk"
            )
        _assert_outliers_equal(distributed, reference)

    def test_fit_on_disk_survives_worker_death(self, dataset):
        points = dataset.points
        reference = _outliers().fit(points)
        with LocalCluster(2, fail_after_tasks={1: 1}) as flaky:
            distributed = _outliers(flaky.addresses).fit(points)
        assert distributed.stats.storage_tier == "disk"
        _assert_outliers_equal(distributed, reference)


class TestAccounting:
    def test_reducer_side_accounting_matches_serial(self, dataset, cluster):
        points = dataset.points
        reference = _kcenter().fit_stream(ArrayStream(points), chunk_size=251)
        distributed = _kcenter(cluster.addresses).fit_stream(
            ArrayStream(points), chunk_size=251
        )
        # The paper's M_L is computed in the coordinator before dispatch
        # and must not depend on where the reducers ran.
        assert (
            distributed.stats.peak_local_memory == reference.stats.peak_local_memory
        )
        assert distributed.stats.bytes_shipped > 0
        assert reference.stats.bytes_shipped == 0
        assert len(distributed.stats.worker_assignments) == len(
            distributed.stats.rounds
        )
