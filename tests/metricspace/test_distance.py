"""Tests for repro.metricspace.distance."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets import higgs_like
from repro.exceptions import InvalidParameterError
from repro.metricspace import (
    DistanceCounter,
    Metric,
    available_metrics,
    cdist,
    chebyshev,
    euclidean,
    get_metric,
    manhattan,
    pairwise,
    point_to_points,
)
from repro.metricspace.distance import DEFAULT_BLOCK_ELEMENTS


class TestEuclidean:
    def test_known_distance(self):
        result = euclidean(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert result.shape == (1, 1)
        assert result[0, 0] == pytest.approx(5.0)

    def test_zero_distance_to_self(self):
        points = np.array([[1.5, -2.0, 7.0]])
        assert euclidean(points, points)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matrix_shape(self):
        a = np.random.default_rng(0).normal(size=(4, 3))
        b = np.random.default_rng(1).normal(size=(6, 3))
        assert euclidean(a, b).shape == (4, 6)

    def test_matches_naive_computation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(7, 4))
        fast = euclidean(a, b)
        naive = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(fast, naive, atol=1e-9)


class TestOtherMetrics:
    def test_manhattan_known_value(self):
        result = manhattan(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert result[0, 0] == pytest.approx(7.0)

    def test_chebyshev_known_value(self):
        result = chebyshev(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert result[0, 0] == pytest.approx(4.0)

    def test_metric_ordering(self):
        # Chebyshev <= Euclidean <= Manhattan for the same pair of points.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 5))
        b = rng.normal(size=(10, 5))
        c = chebyshev(a, b)
        e = euclidean(a, b)
        m = manhattan(a, b)
        assert np.all(c <= e + 1e-9)
        assert np.all(e <= m + 1e-9)


class TestMetricRegistry:
    def test_available_metrics(self):
        names = available_metrics()
        assert "euclidean" in names
        assert "manhattan" in names
        assert "chebyshev" in names

    def test_get_metric_by_name_case_insensitive(self):
        assert get_metric("Euclidean").name == "euclidean"

    def test_get_metric_passthrough(self):
        metric = get_metric("manhattan")
        assert get_metric(metric) is metric

    def test_get_metric_unknown_raises(self):
        with pytest.raises(InvalidParameterError):
            get_metric("cosine-similarity")

    def test_get_metric_invalid_type_raises(self):
        with pytest.raises(InvalidParameterError):
            get_metric(42)


class TestMetricHelpers:
    def test_point_to_points(self):
        distances = point_to_points([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(distances, [1.0, 2.0])

    def test_pairwise_is_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(8, 3))
        matrix = pairwise(points)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    def test_cdist_matches_pairwise_on_same_input(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(6, 2))
        np.testing.assert_allclose(cdist(points, points), pairwise(points), atol=1e-6)

    def test_metric_distance_scalar(self):
        metric = get_metric("euclidean")
        assert metric.distance([0.0, 0.0], [0.0, 3.0]) == pytest.approx(3.0)

    def test_triangle_inequality_euclidean(self):
        rng = np.random.default_rng(6)
        a, b, c = rng.normal(size=(3, 4))
        metric = get_metric("euclidean")
        assert metric.distance(a, c) <= metric.distance(a, b) + metric.distance(b, c) + 1e-9


class TestBlockedPrimitives:
    metric_names = ("euclidean", "manhattan", "chebyshev", "angular")

    def _sets(self):
        rng = np.random.default_rng(31)
        return rng.normal(size=(41, 4)), rng.normal(size=(13, 4))

    @pytest.mark.parametrize("name", metric_names)
    @pytest.mark.parametrize("max_block_elements", (16, 200, 10**7))
    def test_cdist_blocked_matches_cdist(self, name, max_block_elements):
        a, b = self._sets()
        metric = get_metric(name)
        full = metric.cdist(a, b)
        blocked = metric.cdist_blocked(a, b, max_block_elements=max_block_elements)
        np.testing.assert_allclose(blocked, full, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", metric_names)
    @pytest.mark.parametrize("max_block_elements", (16, 200, 10**7))
    def test_nearest_matches_full_matrix(self, name, max_block_elements):
        a, b = self._sets()
        metric = get_metric(name)
        full = metric.cdist(a, b)
        distances, indices = metric.nearest(a, b, max_block_elements=max_block_elements)
        np.testing.assert_allclose(distances, full.min(axis=1), rtol=1e-12, atol=1e-12)
        assert np.array_equal(indices, full.argmin(axis=1))

    @pytest.mark.parametrize("name", metric_names)
    @pytest.mark.parametrize("max_block_elements", (9, 200, 10**7))
    def test_distances_from_matches_point_to_points_blocked(self, name, max_block_elements):
        # 9 elements is two rows of d = 4 per block, so most blocks end
        # mid-matrix; the evaluator must reproduce the blocked kernel's
        # values bit for bit, duplicate rows included.
        points, _ = self._sets()
        points[::5] = points[3]
        metric = get_metric(name)
        distances_from = metric.distances_from(points, max_block_elements=max_block_elements)
        for index in range(points.shape[0]):
            expected = metric.point_to_points_blocked(
                points[index], points, max_block_elements=max_block_elements
            )
            assert distances_from(index).tobytes() == expected.tobytes()

    def test_cdist_blocked_out_parameter(self):
        a, b = self._sets()
        metric = get_metric("euclidean")
        out = np.empty((a.shape[0], b.shape[0]))
        result = metric.cdist_blocked(a, b, out=out)
        assert result is out

    def test_cdist_blocked_bad_out_shape_raises(self):
        a, b = self._sets()
        with pytest.raises(InvalidParameterError):
            get_metric("euclidean").cdist_blocked(a, b, out=np.empty((1, 1)))

    def test_nearest_empty_candidates_raises(self):
        with pytest.raises(InvalidParameterError):
            get_metric("euclidean").nearest(np.zeros((3, 2)), np.empty((0, 2)))

    @pytest.mark.parametrize("name", metric_names)
    def test_column_mismatch_raises(self, name):
        metric = get_metric(name)
        with pytest.raises(InvalidParameterError, match="dimension"):
            metric.nearest(np.ones((3, 2)), np.ones((4, 3)))
        with pytest.raises(InvalidParameterError, match="dimension"):
            metric.cdist_blocked(np.ones((3, 2)), np.ones((4, 3)))

    @pytest.mark.parametrize("n, m", [(4096, 1760), (125_000, 20)])
    def test_euclidean_nearest_peak_memory(self, n, m):
        # At most one (block, m) float64 GEMM block, the 16 n output bytes
        # and 2 MiB of slices and per-row vectors.
        points = higgs_like(n + m, random_state=3)
        a, b = points[:n], points[n:]
        block = min(n, DEFAULT_BLOCK_ELEMENTS // (m * a.shape[1]))
        tracemalloc.start()
        try:
            get_metric("euclidean").nearest(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * block * m + 16 * n + 2 * 2**20

    def test_euclidean_pairwise_peak_memory(self):
        # One (m, m) float64 matrix plus 2 MiB of tiles and row norms.
        m = 3000
        points = higgs_like(m, random_state=4)
        tracemalloc.start()
        try:
            get_metric("euclidean").pairwise(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * m + 2 * 2**20

    def test_nearest_tie_break_is_lowest_index(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        _, indices = get_metric("euclidean").nearest(np.array([[0.0, 0.0]]), points)
        assert indices[0] == 0

    @pytest.mark.parametrize("name", ("manhattan", "chebyshev"))
    def test_elementwise_metrics_skip_symmetrisation(self, name):
        metric = get_metric(name)
        assert metric.exactly_symmetric
        points = np.random.default_rng(8).normal(size=(20, 3))
        raw = metric.cross(points, points)
        assert np.array_equal(raw, raw.T)

    @pytest.mark.parametrize("name", metric_names)
    def test_pairwise_still_symmetric_with_zero_diagonal(self, name):
        points = np.random.default_rng(9).normal(size=(25, 3))
        matrix = get_metric(name).pairwise(points)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)


class TestDistanceCounter:
    def test_counts_evaluations(self):
        counter = DistanceCounter("euclidean")
        counter.metric.cdist(np.zeros((3, 2)), np.zeros((5, 2)))
        assert counter.count == 15

    def test_reset(self):
        counter = DistanceCounter()
        counter.metric.cdist(np.zeros((2, 2)), np.zeros((2, 2)))
        counter.reset()
        assert counter.count == 0

    def test_distances_from_counts_every_row(self):
        # A counted metric takes the per-call path, so each call is n evaluations.
        counter = DistanceCounter("euclidean")
        points = np.random.default_rng(2).normal(size=(17, 3))
        distances_from = counter.metric.distances_from(points)
        distances_from(0)
        distances_from(5)
        assert counter.count == 34

    def test_nearest_counts_every_pair_and_matches_euclidean(self):
        # A counted metric keeps the blocked loop, so the count stays exact;
        # its results are those of the Euclidean proxy path bit for bit.
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(57, 4)), rng.normal(size=(80, 4))
        b[7] = b[3]
        counter = DistanceCounter("euclidean")
        counted = counter.metric.nearest(a, b, max_block_elements=200)
        plain = get_metric("euclidean").nearest(a, b, max_block_elements=200)
        assert counter.count == len(a) * len(b)
        assert counted[0].tobytes() == plain[0].tobytes()
        assert np.array_equal(counted[1], plain[1])

    def test_counted_metric_is_a_metric(self):
        counter = DistanceCounter()
        assert isinstance(counter.metric, Metric)
