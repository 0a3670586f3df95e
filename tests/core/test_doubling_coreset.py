"""Tests for repro.core.doubling_coreset (the streaming coreset invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StreamingCoreset
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.metricspace import Metric


def _feed(coreset: StreamingCoreset, points: np.ndarray) -> StreamingCoreset:
    for point in points:
        coreset.process(point)
    return coreset


class TestInitialisation:
    def test_buffers_first_tau_plus_one_points(self):
        coreset = StreamingCoreset(tau=5)
        for i in range(5):
            coreset.process([float(i), 0.0])
        assert not coreset.is_initialized
        assert coreset.working_memory_size == 5
        coreset.process([5.0, 0.0])
        assert coreset.is_initialized

    def test_coreset_before_initialisation(self):
        coreset = StreamingCoreset(tau=10)
        coreset.process([1.0])
        coreset.process([2.0])
        weighted = coreset.coreset()
        assert len(weighted) == 2
        np.testing.assert_allclose(weighted.weights, 1.0)

    def test_empty_coreset_raises(self):
        with pytest.raises(NotFittedError):
            StreamingCoreset(tau=3).coreset()

    def test_rejects_bad_points(self):
        coreset = StreamingCoreset(tau=3)
        with pytest.raises(InvalidParameterError):
            coreset.process([np.nan])

    def test_rejects_dimension_change(self):
        coreset = StreamingCoreset(tau=2)
        coreset.process([1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            coreset.process([1.0])


class TestInvariants:
    def test_invariant_a_size_bounded(self, medium_blobs):
        tau = 20
        coreset = _feed(StreamingCoreset(tau=tau), medium_blobs)
        assert coreset.size <= tau
        assert coreset.working_memory_size <= tau + 1

    def test_invariant_b_centers_separated(self, medium_blobs):
        coreset = _feed(StreamingCoreset(tau=15), medium_blobs)
        centers = coreset.centers
        if centers.shape[0] > 1:
            from repro.metricspace import pairwise

            distances = pairwise(centers)
            off_diagonal = distances[np.triu_indices(centers.shape[0], k=1)]
            assert off_diagonal.min() > 4.0 * coreset.phi - 1e-9

    def test_invariant_c_every_point_near_a_center(self, medium_blobs):
        coreset = _feed(StreamingCoreset(tau=25), medium_blobs)
        centers = coreset.centers
        distances = np.linalg.norm(
            medium_blobs[:, None, :] - centers[None, :, :], axis=2
        ).min(axis=1)
        # Invariant (c) bounds the distance to the *proxy*, which may itself
        # have been merged into another center; chained merges can at most
        # double the bound each time, but the final guarantee used in the
        # analysis (8 * phi against the final phi) must hold.
        assert distances.max() <= 8.0 * coreset.phi + 1e-9

    def test_invariant_d_weights_sum_to_stream_length(self, medium_blobs):
        coreset = _feed(StreamingCoreset(tau=20), medium_blobs)
        assert coreset.weights.sum() == pytest.approx(medium_blobs.shape[0])

    def test_invariant_e_phi_lower_bounds_optimal_radius(self, small_blobs):
        from repro.core import gmm_select

        tau = 10
        coreset = _feed(StreamingCoreset(tau=tau), small_blobs)
        # GMM gives a 2-approximation of r*_tau, so r*_tau >= gmm_radius / 2;
        # invariant (e) requires phi <= r*_tau.
        gmm_radius = gmm_select(small_blobs, tau).radius
        assert coreset.phi <= gmm_radius + 1e-9

    def test_n_processed_counts_every_point(self, small_blobs):
        coreset = _feed(StreamingCoreset(tau=8), small_blobs)
        assert coreset.n_processed == small_blobs.shape[0]


class TestDegenerateStreams:
    def test_all_identical_points(self):
        points = np.ones((50, 3))
        coreset = _feed(StreamingCoreset(tau=4), points)
        assert coreset.size == 1
        assert coreset.weights.sum() == pytest.approx(50.0)
        assert coreset.phi == 0.0

    def test_two_distinct_values_tau_one(self):
        points = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0]] * 5)
        coreset = _feed(StreamingCoreset(tau=1), points)
        assert coreset.size == 1
        assert coreset.weights.sum() == pytest.approx(points.shape[0])

    def test_stream_shorter_than_tau(self):
        points = np.arange(3, dtype=float).reshape(-1, 1)
        coreset = _feed(StreamingCoreset(tau=10), points)
        weighted = coreset.coreset()
        assert len(weighted) == 3

    def test_weights_conserved_under_merges(self):
        # A widening spiral forces many merges; total weight must be conserved.
        rng = np.random.default_rng(0)
        angles = np.linspace(0, 12 * np.pi, 400)
        radii = np.linspace(0.1, 100.0, 400)
        points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        points = points[rng.permutation(points.shape[0])]
        coreset = _feed(StreamingCoreset(tau=12), points)
        assert coreset.weights.sum() == pytest.approx(400.0)


class TestOneMatrixPerCenterSet:
    """Each center set's pairwise matrix is built once, not once per use."""

    @pytest.fixture
    def pairwise_rows(self, monkeypatch):
        rows = []
        pairwise = Metric.pairwise

        def spy(self, points):
            rows.append(len(points))
            return pairwise(self, points)

        monkeypatch.setattr(Metric, "pairwise", spy)
        return rows

    def test_initialisation_builds_one_matrix(self, pairwise_rows):
        tau = 16
        points = np.random.default_rng(3).normal(size=(tau + 1, 4))
        coreset = StreamingCoreset(tau=tau)
        coreset.process_batch(points)
        # phi and the first merge both read the matrix of the tau + 1 points.
        assert pairwise_rows == [tau + 1]
        assert coreset.phi > 0.0 and coreset.size <= tau

    def test_coinciding_buffer_builds_one_matrix(self, pairwise_rows):
        tau = 5
        coreset = StreamingCoreset(tau=tau)
        coreset.process_batch(np.ones((tau + 1, 2)))
        assert pairwise_rows == [tau + 1]
        assert coreset.size == 1 and coreset.phi == 0.0

    def test_merge_rule_at_phi_zero_builds_one_matrix(self, pairwise_rows):
        tau = 5
        coreset = StreamingCoreset(tau=tau)
        coreset.process_batch(np.zeros((tau + 1, 2)))
        # Five new distinct centers overflow the budget at phi == 0: the least
        # positive distance and the merge read one matrix.
        coreset.process_batch(np.arange(1.0, tau + 1).reshape(-1, 1) * [1.0, 2.0])
        assert pairwise_rows == [tau + 1, tau + 1]
        assert coreset.phi > 0.0 and coreset.size <= tau
        assert coreset.weights.sum() == 2 * tau + 1
