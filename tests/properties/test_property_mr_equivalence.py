"""Golden outputs and cross-configuration equivalence of the MapReduce drivers.

``fit(points)`` is ``fit_stream(ArrayStream(points))`` with the default
chunk size and storage tier. Its serial outputs on six seeded
configurations are pinned as literals below (recorded when ``fit`` still
had its own in-memory implementation), and for fixed seeds the solvers
must produce **bit-identical** centers, center indices, radii and
outlier sets across

* every executor backend (serial / threads / processes),
* every partition-storage tier (in-process memory / disk spill files),
  and
* every chunk size, fed from both an
  :class:`~repro.streaming.stream.ArrayStream` and a single-pass
  :class:`~repro.streaming.stream.GeneratorStream`.

It doubles as the acceptance check that the coordinator's working set is
bounded by O(chunk + coreset) instead of O(n) — including when the
partitions spill past the in-memory budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.streaming import ArrayStream, GeneratorStream

BACKENDS = ("serial", "threads", "processes")
STORAGE_TIERS = ("memory", "disk")
CHUNK_SIZES = (64, 251, 4096)

_OUTLIERS_CONTIGUOUS = [
    12, 150, 216, 236, 284, 292, 308, 344, 373, 446, 453, 463, 522, 535, 539, 543, 562,
    576, 587, 608, 675, 746, 749, 750, 756, 800, 802, 813, 823, 864, 884, 893, 895, 917,
    971, 1019, 1038, 1130, 1166, 1238,
]
_OUTLIERS_RANDOMIZED = [
    150, 216, 236, 239, 284, 292, 308, 344, 373, 446, 453, 463, 522, 535, 539, 543, 562,
    576, 587, 608, 675, 746, 749, 750, 756, 800, 802, 813, 823, 864, 884, 893, 895, 917,
    971, 1019, 1038, 1130, 1166, 1238,
]
_OUTLIERS_ADVERSARIAL = [
    12, 150, 216, 236, 239, 284, 292, 308, 344, 373, 446, 453, 463, 522, 535, 539, 543,
    576, 587, 608, 675, 735, 746, 749, 750, 756, 800, 802, 813, 823, 864, 884, 895, 917,
    971, 1019, 1038, 1130, 1166, 1238,
]

#: Serial ``fit`` outputs on the ``dataset`` fixture, keyed by configuration.
GOLDEN = {
    "kcenter-contiguous": dict(
        center_indices=[587, 344, 373, 800, 746, 562],
        radius=8749.374685005621,
        coreset_size=72,
    ),
    "kcenter-round_robin": dict(
        center_indices=[193, 236, 308, 562, 917, 884],
        radius=6987.763360021945,
        coreset_size=72,
    ),
    "kcenter-random": dict(
        center_indices=[800, 971, 284, 1238, 463, 802],
        radius=8514.103108086736,
        coreset_size=72,
    ),
    "outliers-contiguous": dict(
        center_indices=[49, 50, 14, 250, 239],
        radius=72.14782294664589,
        radius_all_points=6956.535143224409,
        estimated_radius=19.56103093701996,
        coreset_size=540,
        outlier_indices=_OUTLIERS_CONTIGUOUS,
    ),
    "outliers-randomized": dict(
        center_indices=[1117, 1189, 561, 949, 50],
        radius=70.05745948298136,
        radius_all_points=6961.833203222562,
        estimated_radius=18.99367670634236,
        coreset_size=780,
        outlier_indices=_OUTLIERS_RANDOMIZED,
    ),
    "outliers-adversarial": dict(
        center_indices=[1050, 250, 1064, 893, 562],
        radius=75.97762954889836,
        radius_all_points=6964.629882864681,
        estimated_radius=20.688997061585724,
        coreset_size=540,
        outlier_indices=_OUTLIERS_ADVERSARIAL,
    ),
}


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import higgs_like, inject_outliers

    points = higgs_like(1200, random_state=17)
    return inject_outliers(points, 40, random_state=18)


def _kcenter(backend, partitioning="random"):
    return MapReduceKCenter(
        6, ell=4, coreset_multiplier=3, partitioning=partitioning,
        random_state=5, backend=backend, max_workers=2,
    )


def _outliers(backend, **kwargs):
    return MapReduceKCenterOutliers(
        5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
        random_state=5, backend=backend, max_workers=2, **kwargs,
    )


def _solver(config, backend, dataset):
    """The solver of one ``GOLDEN`` configuration on ``backend``."""
    family, variant = config.split("-")
    if family == "kcenter":
        return _kcenter(backend, variant)
    if variant == "randomized":
        return _outliers(backend, randomized=True)
    if variant == "adversarial":
        return _outliers(
            backend, partitioning="adversarial", adversarial_indices=dataset.outlier_indices
        )
    return _outliers(backend)


def _assert_same(result, reference):
    np.testing.assert_array_equal(result.center_indices, reference.center_indices)
    np.testing.assert_array_equal(result.centers, reference.centers)
    assert result.radius == reference.radius
    assert result.coreset_size == reference.coreset_size
    if hasattr(reference, "outlier_indices"):
        assert result.radius_all_points == reference.radius_all_points
        assert result.estimated_radius == reference.estimated_radius
        np.testing.assert_array_equal(result.outlier_indices, reference.outlier_indices)


@pytest.fixture(scope="module")
def references(dataset):
    """Serial ``fit`` result of every ``GOLDEN`` configuration."""
    return {
        config: _solver(config, "serial", dataset).fit(dataset.points) for config in GOLDEN
    }


class TestGoldenOutputs:
    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_fit_matches_golden(self, references, config):
        result = references[config]
        golden = GOLDEN[config]
        assert result.center_indices.tolist() == golden["center_indices"]
        assert result.radius == golden["radius"]
        assert result.coreset_size == golden["coreset_size"]
        if config.startswith("outliers"):
            assert result.radius_all_points == golden["radius_all_points"]
            assert result.estimated_radius == golden["estimated_radius"]
            assert result.outlier_indices.tolist() == golden["outlier_indices"]

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_fit_runs_three_rounds(self, references, config):
        stats = references[config].stats
        assert stats.n_rounds == 3
        assert stats.rounds[0].n_reducers == stats.rounds[2].n_reducers == 4
        assert stats.rounds[1].n_reducers == 1


class TestKCenterEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_backends_and_chunk_sizes_match_fit(
        self, dataset, references, backend, chunk_size
    ):
        streamed = _kcenter(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size
        )
        _assert_same(streamed, references["kcenter-random"])

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_partitionings_match_across_chunk_sizes(self, dataset, references, partitioning):
        streamed = _kcenter("serial", partitioning).fit_stream(
            ArrayStream(dataset.points), chunk_size=200
        )
        _assert_same(streamed, references[f"kcenter-{partitioning}"])

    def test_generator_stream_matches_array_stream(self, dataset):
        points = dataset.points

        def chunks():
            for start in range(0, points.shape[0], 300):
                yield points[start : start + 300]

        # Unknown-length single-pass source; round_robin needs no length.
        solver = MapReduceKCenter(
            6, ell=4, coreset_multiplier=3, partitioning="round_robin", random_state=5
        )
        from_array = solver.fit_stream(ArrayStream(points), chunk_size=300)
        from_generator = solver.fit_stream(GeneratorStream(chunks()), chunk_size=300)
        _assert_same(from_generator, from_array)


class TestOutliersEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "config", ("outliers-contiguous", "outliers-randomized", "outliers-adversarial")
    )
    def test_backends_match_fit(self, dataset, references, backend, config):
        streamed = _solver(config, backend, dataset).fit_stream(
            ArrayStream(dataset.points), chunk_size=251
        )
        _assert_same(streamed, references[config])

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("config", ("outliers-randomized", "outliers-adversarial"))
    def test_chunk_sizes_match_fit(self, dataset, references, chunk_size, config):
        streamed = _solver(config, None, dataset).fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size
        )
        _assert_same(streamed, references[config])

    def test_adversarial_needs_a_sized_stream(self, dataset):
        solver = _solver("outliers-adversarial", "serial", dataset)
        with pytest.raises(InvalidParameterError, match="length"):
            solver.fit_stream(GeneratorStream(iter([dataset.points])), chunk_size=251)

    def test_recovers_planted_outliers_out_of_core(self, dataset):
        streamed = _outliers("processes", randomized=True).fit_stream(
            ArrayStream(dataset.points), chunk_size=128
        )
        assert set(streamed.outlier_indices) == set(dataset.outlier_indices)


class TestCoordinatorMemoryBound:
    def test_coordinator_peak_is_chunk_plus_coreset(self, dataset, references):
        points = dataset.points
        n = points.shape[0]
        chunk_size = 128
        reference = references["outliers-contiguous"]
        streamed = _outliers("serial").fit_stream(
            ArrayStream(points), chunk_size=chunk_size
        )
        # fit: one default-size chunk (here the whole input) or the union.
        assert reference.stats.coordinator_peak_items <= max(
            min(4096, n), reference.coreset_size
        )
        # One chunk or the coreset union, whichever is larger — measurably
        # below the full materialisation.
        bound = max(chunk_size, streamed.coreset_size)
        assert streamed.stats.coordinator_peak_items <= bound
        assert streamed.stats.coordinator_peak_items < n
        # Reducer-side accounting (the paper's M_L) does not depend on the chunk.
        assert (
            streamed.stats.rounds[0].max_local_memory
            == reference.stats.rounds[0].max_local_memory
        )

    def test_peak_working_memory_reported_on_results(self, dataset):
        points = dataset.points
        streamed = _kcenter("serial").fit_stream(ArrayStream(points), chunk_size=100)
        stats = streamed.stats
        assert streamed.peak_working_memory_size == max(
            stats.peak_local_memory, stats.coordinator_peak_items
        )
        assert streamed.peak_working_memory_size < points.shape[0]


class TestStorageTierEquivalence:
    """Both partition-storage tiers must be bit-identical to ``fit``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_kcenter_every_tier_on_every_backend(
        self, dataset, references, backend, storage
    ):
        streamed = _kcenter(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage=storage
        )
        assert streamed.stats.storage_tier == storage
        _assert_same(streamed, references["kcenter-random"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kcenter_auto_tier_matches_the_plan(self, dataset, references, backend):
        # One "auto" rule serves the planner and the runtime: the tier a
        # run picks is the one plan_mapreduce predicts for that backend.
        from repro.core import plan_mapreduce

        n, d = dataset.points.shape
        plan = plan_mapreduce(
            n, 6, doubling_dimension=2, backend=backend, point_dimension=d
        )
        streamed = _kcenter(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage="auto"
        )
        assert streamed.stats.storage_tier == plan.storage
        assert plan.storage == ("disk" if backend == "processes" else "memory")
        _assert_same(streamed, references["kcenter-random"])

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_kcenter_disk_tier_across_chunk_sizes(self, dataset, references, chunk_size):
        streamed = _kcenter("serial").fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size, storage="disk"
        )
        _assert_same(streamed, references["kcenter-random"])
        assert streamed.stats.spilled_bytes > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("config", ("outliers-contiguous", "outliers-adversarial"))
    def test_outliers_disk_tier_on_every_backend(self, dataset, references, backend, config):
        streamed = _solver(config, backend, dataset).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage="disk"
        )
        assert streamed.stats.storage_tier == "disk"
        _assert_same(streamed, references[config])

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_disk_tier_across_partitionings(self, dataset, references, partitioning):
        streamed = _kcenter("serial", partitioning).fit_stream(
            ArrayStream(dataset.points), chunk_size=200, storage="disk"
        )
        _assert_same(streamed, references[f"kcenter-{partitioning}"])


class TestAutoSpillAcceptance:
    """The acceptance contract of the disk tier.

    A dataset whose partition footprint exceeds the configured in-memory
    budget must complete under ``storage="auto"`` by spilling
    (``spilled_bytes > 0``), bit-identically, while the coordinator stays
    at O(chunk + union coreset).
    """

    def test_dataset_above_budget_completes_by_spilling(self, dataset, references):
        points = dataset.points
        chunk_size = 128
        # Budget far below the ~(n, d) float64 partition footprint.
        budget = points.nbytes // 8
        streamed = _outliers("serial").fit_stream(
            ArrayStream(points),
            chunk_size=chunk_size,
            storage="auto",
            memory_budget_bytes=budget,
        )
        assert streamed.stats.storage_tier == "disk"
        assert streamed.stats.spilled_bytes > budget
        _assert_same(streamed, references["outliers-contiguous"])
        # The coordinator never held more than one chunk plus the union.
        assert streamed.stats.coordinator_peak_items <= max(
            chunk_size, streamed.coreset_size
        )
        assert streamed.stats.coordinator_peak_items < points.shape[0]

    def test_generous_budget_stays_in_memory(self, dataset):
        points = dataset.points
        streamed = _kcenter("serial").fit_stream(
            ArrayStream(points),
            chunk_size=251,
            storage="auto",
            memory_budget_bytes=10 * points.nbytes,
        )
        assert streamed.stats.storage_tier == "memory"
        assert streamed.stats.spilled_bytes == 0
