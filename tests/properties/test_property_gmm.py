"""Property-based tests for GMM and the exact solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import GMM, gmm_adaptive, gmm_select
from repro.evaluation import (
    optimal_kcenter_radius,
    optimal_kcenter_with_outliers_radius,
)
from repro.metricspace import DistanceCounter

from _reference_gmm import reference_traversal

coordinates = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def small_point_sets(min_points=4, max_points=14, max_dim=3):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(min_points, max_points), st.integers(1, max_dim)),
        elements=coordinates,
    )


class TestGMMProperties:
    @given(points=small_point_sets(), k=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_two_approximation(self, points, k):
        k = min(k, points.shape[0])
        result = gmm_select(points, k)
        optimum = optimal_kcenter_radius(points, k)
        scale = max(1.0, np.abs(points).max())
        assert result.radius <= 2.0 * optimum + 1e-6 * scale

    @given(points=small_point_sets())
    @settings(max_examples=40, deadline=None)
    def test_radius_history_non_increasing(self, points):
        result = gmm_select(points, min(6, points.shape[0]))
        history = result.radius_history
        assert np.all(np.diff(history) <= 1e-9 * max(1.0, history[0]))

    @given(points=small_point_sets(), k=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_centers_distinct_until_saturation(self, points, k):
        k = min(k, points.shape[0])
        result = gmm_select(points, k)
        assert len(set(result.centers.tolist())) == result.n_centers

    @given(points=small_point_sets(), k=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_adaptive_stopping_condition(self, points, k):
        k = min(k, points.shape[0])
        epsilon = 0.5
        result = gmm_adaptive(points, k, epsilon)
        radius_at_k = result.radius_history[min(k, result.n_centers) - 1]
        assert result.radius <= (epsilon / 2.0) * radius_at_k + 1e-9 * max(1.0, radius_at_k)


@st.composite
def traversal_inputs(draw):
    """``(points, first_center, n_centers)`` with distinct, duplicate or equal rows.

    Coordinates are optionally rounded to a coarse grid so equal
    distances (argmax ties) are common too.
    """
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["distinct", "duplicates", "all_equal"]))
    decimals = draw(st.sampled_from([None, 0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = {"distinct": n, "duplicates": max(1, n // 4), "all_equal": 1}[layout]
    rows = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=(n_rows, d))
    if decimals is not None:
        rows = np.round(rows, decimals)
    points = rows[rng.integers(n_rows, size=n)] if n_rows < n else rows
    first_center = draw(st.integers(0, n - 1))
    n_centers = draw(st.integers(1, n + 2))
    return np.ascontiguousarray(points), first_center, n_centers


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestGMMMatchesReference:
    """The traversal equals the pre-evaluator per-step rule bit for bit."""

    @pytest.mark.parametrize(
        "metric", ["euclidean", "manhattan", "chebyshev", "angular", "counted-euclidean"]
    )
    @given(inputs=traversal_inputs())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_state(self, metric, inputs):
        points, first_center, n_centers = inputs
        if metric == "counted-euclidean":
            counter, reference_counter = DistanceCounter(), DistanceCounter()
            metric, reference_metric = counter.metric, reference_counter.metric
        else:
            counter = reference_counter = None
            reference_metric = metric

        traversal = GMM(points, metric, first_center=first_center)
        traversal.extend_to(n_centers)
        centers, history, assignment, distances = reference_traversal(
            points, reference_metric, first_center, n_centers
        )

        assert_bitwise_equal(traversal.centers, centers)
        assert_bitwise_equal(traversal.radius_history, history)
        assert_bitwise_equal(traversal.assignment, assignment)
        assert_bitwise_equal(traversal.distances_to_centers, distances)
        if counter is not None:
            assert counter.count == reference_counter.count == points.shape[0] * len(centers)


class TestExactSolverProperties:
    @given(points=small_point_sets(min_points=5, max_points=10), z=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_outlier_optimum_monotone_in_z(self, points, z):
        k = 2
        z = min(z, points.shape[0] - 1)
        with_z = optimal_kcenter_with_outliers_radius(points, k, z)
        without = optimal_kcenter_with_outliers_radius(points, k, 0)
        assert with_z <= without + 1e-12

    @given(points=small_point_sets(min_points=6, max_points=10))
    @settings(max_examples=30, deadline=None)
    def test_equation_1(self, points):
        # r*_{k+z}(S) <= r*_{k,z}(S) for every instance.
        k, z = 2, 2
        lhs = optimal_kcenter_radius(points, k + z)
        rhs = optimal_kcenter_with_outliers_radius(points, k, z)
        assert lhs <= rhs + 1e-12
