"""Tests for repro.core.radius_search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OutliersClusterSolver, search_radius
from repro.core.radius_search import delta_for
from repro.evaluation import optimal_kcenter_with_outliers_radius
from repro.exceptions import InvalidParameterError
from repro.metricspace import WeightedPoints


def _unit_coreset(points: np.ndarray) -> WeightedPoints:
    return WeightedPoints(points=points, weights=np.ones(points.shape[0]))


class TestDeltaFor:
    def test_zero_eps_hat(self):
        assert delta_for(0.0) == 0.0

    def test_formula(self):
        eps_hat = 0.3
        assert delta_for(eps_hat) == pytest.approx(eps_hat / (3 + 4 * eps_hat))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            delta_for(-0.1)

    @pytest.mark.parametrize("eps_hat", (float("nan"), float("inf")))
    def test_non_finite_rejected(self, eps_hat):
        with pytest.raises(InvalidParameterError):
            delta_for(eps_hat)


class TestSearchRadius:
    def test_found_radius_is_feasible(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=4, eps_hat=0.1)
        result = search_radius(solver, z=5)
        assert result.solution.uncovered_weight <= 5

    def test_probes_counted(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs[:50]), k=3, eps_hat=0.1)
        result = search_radius(solver, z=2)
        assert result.probes >= 1

    def test_zero_radius_for_duplicate_points(self):
        points = np.zeros((10, 2))
        solver = OutliersClusterSolver(_unit_coreset(points), k=1, eps_hat=0.0)
        result = search_radius(solver, z=0)
        assert result.radius == pytest.approx(0.0)
        assert result.solution.uncovered_weight == pytest.approx(0.0)

    def test_radius_close_to_optimum_unit_weights(self, rng):
        # With unit weights and eps_hat = 0, the search reproduces Charikar
        # et al.: the accepted radius is at most the optimal r*_{k,z} (the
        # optimum itself is feasible because of the 3r coverage balls), and
        # the final clustering radius is at most 3x that.
        points = rng.normal(size=(15, 2))
        points[:2] += 40.0
        k, z = 3, 2
        solver = OutliersClusterSolver(_unit_coreset(points), k=k, eps_hat=0.0)
        result = search_radius(solver, z=z)
        optimum = optimal_kcenter_with_outliers_radius(points, k, z)
        assert result.radius <= optimum + 1e-9

    def test_smaller_z_larger_radius(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=0.1)
        tight = search_radius(solver, z=0)
        loose = search_radius(solver, z=30)
        assert loose.radius <= tight.radius + 1e-9

    def test_geometric_refinement_does_not_break_feasibility(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3, eps_hat=0.5)
        result = search_radius(solver, z=4)
        check = solver.run(result.radius)
        assert check.uncovered_weight <= 4

    @pytest.mark.parametrize("delta", (-0.1, float("nan"), float("inf")))
    def test_invalid_delta_rejected(self, small_blobs, delta):
        # A NaN delta used to skip the geometric refinement silently,
        # dropping the (1 + delta) guarantee on the returned radius.
        solver = OutliersClusterSolver(_unit_coreset(small_blobs[:30]), k=3, eps_hat=0.1)
        with pytest.raises(InvalidParameterError):
            search_radius(solver, z=2, delta=delta)

    def test_negative_z_rejected(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        with pytest.raises(InvalidParameterError):
            search_radius(solver, z=-1)

    def test_all_identical_points_converge_to_zero(self):
        # Fully degenerate coreset: every pairwise distance is zero, so the
        # zero-radius probe must decide immediately (no geometric loop).
        points = np.full((8, 3), 2.5)
        solver = OutliersClusterSolver(_unit_coreset(points), k=2, eps_hat=0.25)
        result = search_radius(solver, z=3)
        assert result.radius == 0.0
        assert result.solution.uncovered_weight == 0.0

    @pytest.mark.parametrize(
        "points", (np.array([[1.0, -2.0]]), np.full((40, 3), -0.5)), ids=("m=1", "coincident")
    )
    def test_degenerate_coreset_skips_candidate_list(self, monkeypatch, points):
        # Radius 0 is probed first and ends the search, so the O(m^2)
        # candidate list is never built and exactly one probe is counted.
        solver = OutliersClusterSolver(_unit_coreset(points), k=1, eps_hat=0.1)
        calls = []
        monkeypatch.setattr(solver, "candidate_radii", lambda: calls.append(1))
        result = search_radius(solver, z=0)
        assert result.probes == 1
        assert calls == []
        assert result.radius == 0.0
        assert result.solution.uncovered_weight == 0.0
        assert list(result.solution.center_indices) == [0]

    def test_two_distinct_distances_converge(self):
        # Two tight clusters: the candidate set collapses to ~two distinct
        # values (intra ~0, inter ~100). The search must terminate with a
        # feasible radius and bounded probes even with a small delta.
        points = np.vstack([np.zeros((5, 2)), np.full((5, 2), 100.0)])
        solver = OutliersClusterSolver(_unit_coreset(points), k=1, eps_hat=0.05)
        result = search_radius(solver, z=5)
        assert solver.run(result.radius).uncovered_weight <= 5
        assert result.probes <= 200

    def test_refinement_exhaustion_raises_instead_of_silent_radius(self):
        # Regression: a feasibility landscape whose feasible region extends
        # far below the smallest candidate distance used to burn all
        # max_geometric_steps and silently return the last radius probed,
        # voiding the documented (1 + delta) tolerance. It must now raise.
        from repro.exceptions import RadiusSearchError

        class BottomlessSolver:
            """Feasible at every positive radius, infeasible at zero."""

            eps_hat = 0.1

            def candidate_radii(self):
                return np.array([1.0, 2.0])

            def run(self, radius):
                class Result:
                    uncovered_weight = 1.0 if radius <= 0.0 else 0.0
                    center_indices = np.array([0])

                return Result()

        with pytest.raises(RadiusSearchError, match="did not converge"):
            search_radius(BottomlessSolver(), z=0, max_geometric_steps=16)

    def test_refinement_converging_on_last_step_does_not_raise(self):
        # Boundary case: the walk establishes the (1 + delta) invariant on
        # its final allowed shrink (the *next* candidate would cross the
        # infeasible floor); that is convergence, not exhaustion.
        delta = 0.5

        class NarrowGapSolver:
            eps_hat = 0.0  # delta passed explicitly

            def candidate_radii(self):
                return np.array([1.0, 9.0])

            def run(self, radius):
                class Result:
                    # Feasible strictly above 1.0; 1.0 itself and below
                    # (including 0) infeasible.
                    uncovered_weight = 0.0 if radius > 1.0 else 10.0
                    center_indices = np.array([0])

                return Result()

        # From 9.0, two /1.5 shrinks reach 4.0; the third would hit
        # 4.0/1.5 = 2.67 > floor... use max steps such that the next
        # candidate crosses the floor exactly after the budget.
        # floor = 1.0; 9 / 1.5^5 = 1.185 (feasible, > floor); next
        # candidate 0.79 <= floor -> converged on the last step.
        result = search_radius(
            NarrowGapSolver(), z=0, delta=delta, max_geometric_steps=5
        )
        assert result.radius == pytest.approx(9.0 / 1.5**5)

    def test_doubling_exhaustion_raises_clear_error(self):
        from repro.exceptions import RadiusSearchError

        class NeverFeasibleSolver:
            """No radius is ever feasible (pathological weights)."""

            eps_hat = 0.0

            def candidate_radii(self):
                return np.array([1.0])

            def run(self, radius):
                class Result:
                    uncovered_weight = np.inf
                    center_indices = np.array([0])

                return Result()

        with pytest.raises(RadiusSearchError, match="no feasible radius"):
            search_radius(NeverFeasibleSolver(), z=0, max_geometric_steps=8)

    def test_weighted_coreset_budget_respected(self):
        # Heavy far-away point cannot be declared an outlier if z is smaller
        # than its weight, so the radius must stretch to cover it.
        points = np.array([[0.0], [1.0], [100.0]])
        light = WeightedPoints(points=points, weights=np.array([1.0, 1.0, 1.0]))
        heavy = WeightedPoints(points=points, weights=np.array([1.0, 1.0, 10.0]))
        light_result = search_radius(OutliersClusterSolver(light, k=1, eps_hat=0.0), z=1)
        heavy_result = search_radius(OutliersClusterSolver(heavy, k=1, eps_hat=0.0), z=1)
        assert heavy_result.radius > light_result.radius
