"""Tests for repro.core.gmm (Gonzalez's farthest-first traversal)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GMM, gmm_adaptive, gmm_select, gmm_until_radius
from repro.evaluation import optimal_kcenter_radius
from repro.exceptions import InvalidParameterError
from repro.metricspace import DistanceCounter


class TestGMMClass:
    def test_initial_state(self, small_blobs):
        traversal = GMM(small_blobs)
        assert traversal.n_centers == 1
        assert traversal.centers[0] == 0
        assert traversal.radius > 0

    def test_random_first_center(self, small_blobs):
        traversal = GMM(small_blobs, random_state=3)
        assert 0 <= traversal.centers[0] < small_blobs.shape[0]

    def test_explicit_first_center(self, small_blobs):
        traversal = GMM(small_blobs, first_center=17)
        assert traversal.centers[0] == 17

    def test_invalid_first_center(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            GMM(small_blobs, first_center=10_000)

    def test_radius_history_non_increasing(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(20)
        history = traversal.radius_history
        assert np.all(np.diff(history) <= 1e-9)

    def test_extend_to_saturation(self):
        points = np.array([[0.0], [1.0], [2.0]])
        traversal = GMM(points)
        traversal.extend_to(10)
        assert traversal.n_centers == 3
        assert traversal.radius == pytest.approx(0.0)

    def test_extend_stops_on_duplicates(self):
        points = np.array([[1.0, 1.0]] * 5)
        traversal = GMM(points)
        assert traversal.extend_by_one() is False
        assert traversal.n_centers == 1

    def test_centers_are_distinct(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(15)
        assert len(set(traversal.centers.tolist())) == 15

    def test_extend_until_radius(self, small_blobs):
        traversal = GMM(small_blobs)
        target = traversal.radius / 4.0
        traversal.extend_until_radius(target)
        assert traversal.radius <= target

    def test_radius_at(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(10)
        assert traversal.radius_at(5) >= traversal.radius_at(10)
        with pytest.raises(InvalidParameterError):
            traversal.radius_at(11)

    def test_assignment_points_to_closest_center(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(8)
        centers = small_blobs[traversal.centers]
        expected = np.argmin(
            np.linalg.norm(small_blobs[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        distances_via_assignment = np.linalg.norm(
            small_blobs - centers[traversal.assignment], axis=1
        )
        distances_expected = np.linalg.norm(small_blobs - centers[expected], axis=1)
        np.testing.assert_allclose(distances_via_assignment, distances_expected, atol=1e-9)


class TestReadOnlyViews:
    """The state accessors return aliasing views, not per-access copies.

    Regression tests for the O(n)/O(tau)-copy-per-access bug: callers
    polling ``assignment``/``distances_to_centers``/``centers``/
    ``radius_history`` once per extension step used to pay quadratic
    copying over a traversal.
    """

    def test_accessors_alias_instead_of_copying(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(5)
        for name in ("assignment", "distances_to_centers", "centers", "radius_history"):
            first = getattr(traversal, name)
            second = getattr(traversal, name)
            assert np.shares_memory(first, second), f"{name} copies on access"

    def test_views_reject_writes(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(5)
        for name in ("assignment", "distances_to_centers", "centers", "radius_history"):
            view = getattr(traversal, name)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = -1

    def test_in_place_extension_keeps_aliases_live(self, small_blobs):
        traversal = GMM(small_blobs)
        assignment = traversal.assignment
        distances = traversal.distances_to_centers
        traversal.extend_to(4)
        # The handles observe the in-place updates of later extensions.
        np.testing.assert_array_equal(assignment, traversal.assignment)
        np.testing.assert_array_equal(distances, traversal.distances_to_centers)
        assert assignment.max() == 3

    def test_result_snapshot_is_stable(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_to(3)
        snapshot = traversal.result()
        before = snapshot.assignment.copy()
        traversal.extend_to(10)
        np.testing.assert_array_equal(snapshot.assignment, before)
        assert snapshot.n_centers == 3


class TestGMMSelect:
    def test_returns_k_centers(self, small_blobs):
        result = gmm_select(small_blobs, 7)
        assert result.n_centers == 7
        assert result.radius > 0

    def test_k_capped_at_n(self):
        points = np.array([[0.0], [5.0]])
        result = gmm_select(points, 10)
        assert result.n_centers == 2

    def test_radius_matches_evaluation(self, small_blobs):
        result = gmm_select(small_blobs, 5)
        centers = small_blobs[result.centers]
        distances = np.linalg.norm(small_blobs[:, None, :] - centers[None, :, :], axis=2)
        assert result.radius == pytest.approx(distances.min(axis=1).max())

    def test_two_approximation_against_brute_force(self, rng):
        points = rng.normal(size=(18, 2))
        for k in (2, 3, 4):
            result = gmm_select(points, k)
            optimum = optimal_kcenter_radius(points, k)
            assert result.radius <= 2.0 * optimum + 1e-9

    def test_well_separated_clusters_recovered(self):
        # Three clusters far apart: with k=3, GMM must place one center per
        # cluster, so the radius equals the intra-cluster spread.
        rng = np.random.default_rng(0)
        clusters = [rng.normal(loc=center, scale=0.1, size=(30, 2))
                    for center in ([0, 0], [100, 0], [0, 100])]
        points = np.vstack(clusters)
        result = gmm_select(points, 3)
        assert result.radius < 1.0


class TestDistanceCounts:
    @pytest.mark.parametrize("name", ["euclidean", "manhattan"])
    def test_gmm_select_counts_n_per_center(self, medium_blobs, name):
        # One first pass plus one pass per added center: the work counts
        # the paper's figures report. The Euclidean fast path must not
        # bypass a counted metric.
        counter = DistanceCounter(name)
        k = 12
        result = gmm_select(medium_blobs, k, counter.metric)
        assert result.n_centers == k
        assert counter.count == medium_blobs.shape[0] * k


class TestGMMUntilRadius:
    def test_reaches_target(self, small_blobs):
        start = gmm_select(small_blobs, 1).radius
        result = gmm_until_radius(small_blobs, start / 3.0)
        assert result.radius <= start / 3.0

    def test_max_centers_cap(self, small_blobs):
        result = gmm_until_radius(small_blobs, 0.0, max_centers=5)
        assert result.n_centers == 5

    def test_extend_until_radius_cap(self, small_blobs):
        traversal = GMM(small_blobs)
        traversal.extend_until_radius(0.0, max_centers=7)
        assert traversal.n_centers == 7
        assert traversal.radius > 0.0

    def test_negative_target_raises(self, small_blobs):
        traversal = GMM(small_blobs)
        with pytest.raises(InvalidParameterError):
            traversal.extend_until_radius(-1.0)
        with pytest.raises(InvalidParameterError):
            gmm_until_radius(small_blobs, -1.0)

    def test_nan_target_raises(self, small_blobs):
        # A NaN compares false with every radius, which used to stop the
        # traversal at one center.
        traversal = GMM(small_blobs)
        with pytest.raises(InvalidParameterError):
            traversal.extend_until_radius(float("nan"))
        with pytest.raises(InvalidParameterError):
            gmm_until_radius(small_blobs, float("nan"))
        assert traversal.n_centers == 1

    @pytest.mark.parametrize("max_centers", [0, -3, 2.5, True])
    def test_bad_max_centers_raises(self, small_blobs, max_centers):
        traversal = GMM(small_blobs)
        with pytest.raises(InvalidParameterError):
            traversal.extend_until_radius(0.0, max_centers=max_centers)
        with pytest.raises(InvalidParameterError):
            gmm_until_radius(small_blobs, 0.0, max_centers=max_centers)


class TestGMMAdaptive:
    def test_stopping_condition(self, small_blobs):
        k, epsilon = 5, 0.5
        result = gmm_adaptive(small_blobs, k, epsilon)
        radius_at_k = result.radius_history[k - 1]
        assert result.radius <= (epsilon / 2.0) * radius_at_k + 1e-12
        assert result.n_centers >= k

    def test_smaller_epsilon_larger_coreset(self, medium_blobs):
        loose = gmm_adaptive(medium_blobs, 5, 1.0)
        tight = gmm_adaptive(medium_blobs, 5, 0.25)
        assert tight.n_centers >= loose.n_centers

    def test_max_centers_respected(self, small_blobs):
        result = gmm_adaptive(small_blobs, 5, 0.01, max_centers=12)
        assert result.n_centers <= 12

    def test_invalid_epsilon(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            gmm_adaptive(small_blobs, 5, 0.0)
