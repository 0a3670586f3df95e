"""Tests for repro.core.outliers_cluster (Algorithm 1)."""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.core import OutliersClusterSolver, outliers_cluster, search_radius
from repro.core.mr_outliers import MapReduceKCenterOutliers
from repro.core.outliers_cluster import OutliersClusterResult
from repro.datasets import higgs_like
from repro.evaluation import optimal_kcenter_with_outliers_radius
from repro.exceptions import InvalidParameterError
from repro.metricspace import WeightedPoints

from _reference_outliers_cluster import ReferenceSolver, naive_run, reference_candidates

# The modules, not the functions and classes that repro.core exports.
solver_module = importlib.import_module("repro.core.outliers_cluster")
mr_outliers_module = importlib.import_module("repro.core.mr_outliers")


def _unit_coreset(points: np.ndarray) -> WeightedPoints:
    return WeightedPoints(points=points, weights=np.ones(points.shape[0]))


class TestOutliersClusterSolver:
    def test_selects_at_most_k_centers(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        result = solver.run(radius=5.0)
        assert result.n_centers <= 3

    def test_all_covered_with_huge_radius(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        diameter = float(solver.pairwise_distances.max())
        result = solver.run(radius=diameter)
        assert result.uncovered_weight == pytest.approx(0.0)

    def test_zero_radius_covers_only_duplicates(self):
        points = np.array([[0.0], [0.0], [1.0], [2.0], [3.0]])
        solver = OutliersClusterSolver(_unit_coreset(points), k=1)
        result = solver.run(radius=0.0)
        # One center covers only the duplicate pair, leaving three uncovered.
        assert result.uncovered_weight == pytest.approx(3.0)

    def test_first_center_maximizes_covered_weight(self):
        # A heavy point far from a dense cluster: with weights, the heavy
        # point's ball must be picked first.
        points = np.array([[0.0], [0.5], [100.0]])
        weights = np.array([1.0, 1.0, 50.0])
        coreset = WeightedPoints(points=points, weights=weights)
        solver = OutliersClusterSolver(coreset, k=1)
        result = solver.run(radius=1.0)
        assert result.center_indices[0] == 2

    def test_covered_points_within_coverage_radius(self, small_blobs):
        eps_hat = 0.25
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=4, eps_hat=eps_hat)
        radius = 3.0
        result = solver.run(radius=radius)
        covered = ~result.uncovered_mask
        if covered.any():
            distances = solver.pairwise_distances[np.ix_(covered, result.center_indices)]
            assert distances.min(axis=1).max() <= (3 + 4 * eps_hat) * radius + 1e-9

    def test_uncovered_points_outside_coverage_radius(self, small_blobs):
        eps_hat = 0.1
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=eps_hat)
        radius = 2.0
        result = solver.run(radius=radius)
        if result.uncovered_mask.any() and result.n_centers:
            distances = solver.pairwise_distances[
                np.ix_(result.uncovered_mask, result.center_indices)
            ]
            assert distances.min(axis=1).min() > (3 + 4 * eps_hat) * radius - 1e-9

    def test_stops_early_when_everything_covered(self):
        points = np.array([[0.0], [0.1], [0.2]])
        solver = OutliersClusterSolver(_unit_coreset(points), k=3)
        result = solver.run(radius=1.0)
        assert result.n_centers == 1

    def test_lemma5_uncovered_weight_at_most_z_at_optimal_radius(self, rng):
        # Lemma 5 (unit weights, eps_hat=0 is the Charikar setting): at any
        # radius >= r*_{k,z}, the uncovered weight is at most z.
        points = rng.normal(size=(16, 2))
        points[0] += 50.0  # one clear outlier
        k, z = 3, 1
        optimum = optimal_kcenter_with_outliers_radius(points, k, z)
        solver = OutliersClusterSolver(_unit_coreset(points), k=k, eps_hat=0.0)
        result = solver.run(radius=optimum)
        assert result.uncovered_weight <= z + 1e-9

    def test_weighted_uncovered_weight(self):
        points = np.array([[0.0], [10.0], [20.0]])
        weights = np.array([5.0, 7.0, 11.0])
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=1)
        result = solver.run(radius=0.5)
        # One center grabs the heaviest point; the other two stay uncovered.
        assert result.uncovered_weight == pytest.approx(12.0)

    def test_negative_radius_rejected(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2)
        with pytest.raises(InvalidParameterError):
            solver.run(radius=-1.0)

    def test_nan_radius_rejected(self, small_blobs):
        # NaN compares false with every distance: without the check, the run
        # picked center 0 k times and left every point uncovered.
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2)
        with pytest.raises(InvalidParameterError):
            solver.run(radius=float("nan"))

    def test_negative_eps_hat_rejected(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=-0.1)

    @pytest.mark.parametrize("eps_hat", (float("nan"), float("inf")))
    def test_non_finite_eps_hat_rejected(self, small_blobs, eps_hat):
        with pytest.raises(InvalidParameterError):
            OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=eps_hat)

    def test_requires_weighted_points(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            OutliersClusterSolver(small_blobs, k=2)

    def test_candidate_radii_sorted_unique(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs[:20]), k=2)
        candidates = solver.candidate_radii()
        assert np.all(np.diff(candidates) > 0)

    def test_uncovered_weight_helper(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        assert solver.uncovered_weight(1e9) == pytest.approx(0.0)


def _integer_weights(size: int, seed: int = 4, high: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.asarray(rng.integers(1, high, size=size), dtype=np.float64)


class TestIncrementalBallWeights:
    """The incremental ball-weight maintenance must match Algorithm 1 literally."""

    @staticmethod
    def _assert_matches_naive(
        solver: OutliersClusterSolver, radius: float
    ) -> OutliersClusterResult:
        result = solver.run(radius)
        expected_centers, expected_uncovered = naive_run(solver, radius)
        assert list(result.center_indices) == expected_centers
        assert np.array_equal(result.uncovered_mask, expected_uncovered)
        weights = solver.coreset.weights
        assert result.uncovered_weight == float(weights[expected_uncovered].sum())
        return result

    @staticmethod
    def _spy_on_updates(monkeypatch) -> list[tuple[str, np.ndarray]]:
        """Record the balls class and the rows of each ball-weight update."""
        calls = []
        for balls in (solver_module._DenseBalls, solver_module._GraphBalls):

            def spy(self, rows, _original=balls.weights_of, _name=balls.__name__):
                calls.append((_name, rows.copy()))
                return _original(self, rows)

            monkeypatch.setattr(balls, "weights_of", spy)
        return calls

    @staticmethod
    def _spy_on_passes(monkeypatch) -> list[str]:
        """Record each upper-triangle dense pass and each graph build."""
        calls = []
        for name in ("_upper_triangle_weights", "_build_graph"):

            def spy(*args, _original=getattr(solver_module, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(solver_module, name, spy)
        return calls

    # "dense" thresholds whole rows of D as fractional weights would;
    # "triangle" thresholds its upper triangle, as a probe above the counted
    # bound does; "build" builds the graph at a bound every pair fits under;
    # "graph" filters that graph, built by an earlier probe.
    PATHS = ("dense", "triangle", "build", "graph")
    PASSES = {"dense": [], "triangle": ["_upper_triangle_weights"], "build": ["_build_graph"],
              "graph": []}

    @staticmethod
    def _use_path(solver: OutliersClusterSolver, path: str, monkeypatch) -> str:
        """Make the next probe of ``solver`` take ``path``; return its balls class."""
        if path in ("dense", "triangle"):
            monkeypatch.setattr(solver, "_graph_bound", -np.inf)
            monkeypatch.setattr(solver, "_graph_allowed", path == "triangle")
            return "_DenseBalls"
        # With a cap of m * m entries every pair fits: the counted bound is
        # the largest distance.
        monkeypatch.setattr(solver_module, "_GRAPH_FILL", 1)
        solver.candidate_radii()
        assert solver._graph_bound == float(solver.pairwise_distances.max())
        assert solver._graph is None
        if path == "graph":
            solver.run(0.0)
            assert solver._graph is not None
        return "_GraphBalls"

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    @pytest.mark.parametrize("quantile", (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0))
    def test_matches_naive_reference(self, small_blobs, quantile, eps_hat):
        weights = _integer_weights(small_blobs.shape[0])
        coreset = WeightedPoints(points=small_blobs, weights=weights)
        solver = OutliersClusterSolver(coreset, k=4, eps_hat=eps_hat)
        radius = float(np.quantile(solver.candidate_radii(), quantile))
        self._assert_matches_naive(solver, radius)

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    def test_recompute_from_uncovered_rows(self, rng, monkeypatch, eps_hat):
        # A dense cluster of 300 points and 40 scattered ones: the first
        # center covers the cluster, so fewer points stay uncovered than
        # were just covered and the weights are rebuilt from those rows.
        points = np.vstack([rng.normal(size=(300, 2)), rng.uniform(-80, 80, size=(40, 2))])
        coreset = WeightedPoints(points=points, weights=_integer_weights(340))
        for path in self.PATHS:
            with monkeypatch.context() as patch:
                solver = OutliersClusterSolver(coreset, k=6, eps_hat=eps_hat)
                balls = self._use_path(solver, path, patch)
                calls = self._spy_on_updates(patch)
                passes = self._spy_on_passes(patch)
                self._assert_matches_naive(solver, radius=1.5)
            assert (solver._graph is None) == (path in ("dense", "triangle")), path
            assert passes == self.PASSES[path], path
            # Every update reads the path's balls, and the first passes the
            # 40-odd uncovered rows, not the ~300 newly covered ones.
            assert calls and {name for name, _ in calls} == {balls}, path
            assert calls[0][1].size < 150, path

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_kth_center_exit_skips_the_update(self, small_blobs, monkeypatch, k):
        coreset = WeightedPoints(points=small_blobs, weights=_integer_weights(200))
        for path in self.PATHS:
            with monkeypatch.context() as patch:
                solver = OutliersClusterSolver(coreset, k=k, eps_hat=1 / 6)
                radius = float(np.quantile(solver.candidate_radii(), 0.01))
                balls = self._use_path(solver, path, patch)
                calls = self._spy_on_updates(patch)
                passes = self._spy_on_passes(patch)
                result = self._assert_matches_naive(solver, radius)
            assert (solver._graph is None) == (path in ("dense", "triangle")), path
            assert passes == self.PASSES[path], path
            assert result.n_centers == k, path
            # One update between consecutive centers, none after the k-th.
            assert [name for name, _ in calls] == [balls] * (k - 1), path

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    def test_zero_radius_with_duplicates(self, rng, eps_hat):
        base = rng.normal(size=(30, 3))
        points = base[rng.integers(0, 30, size=120)]
        coreset = WeightedPoints(points=points, weights=_integer_weights(120))
        for k in (1, 5, 40):
            solver = OutliersClusterSolver(coreset, k=k, eps_hat=eps_hat)
            self._assert_matches_naive(solver, radius=0.0)

    @pytest.mark.parametrize("k", (7, 8, 20))
    def test_k_at_least_m(self, rng, k):
        points = rng.normal(size=(7, 2))
        coreset = WeightedPoints(points=points, weights=_integer_weights(7))
        solver = OutliersClusterSolver(coreset, k=k, eps_hat=1 / 6)
        for radius in (0.0, *solver.candidate_radii()):
            self._assert_matches_naive(solver, float(radius))

    def test_weights_beyond_float32_exactness(self):
        # Ball weights of 2**25 + 1 and 2**25 differ by one, which float32
        # cannot represent: a float32 sum would tie them and argmax would
        # pick index 0. The float64 sums pick the heavier ball at index 1.
        points = np.array([[100.0], [0.0], [0.5]])
        weights = np.array([2.0**25, 2.0**25, 1.0])
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=1)
        result = solver.run(radius=1.0)
        assert list(result.center_indices) == [1]
        assert result.uncovered_weight == 2.0**25

    @pytest.mark.parametrize("quantile", (0.05, 0.3, 0.9))
    def test_large_integer_weights_match_naive(self, small_blobs, quantile):
        # Total weight far above 2**24: every running sum must stay exact.
        weights = 2.0**24 + _integer_weights(200, seed=9, high=1000)
        assert weights.sum() > 2**24
        coreset = WeightedPoints(points=small_blobs, weights=weights)
        solver = OutliersClusterSolver(coreset, k=5, eps_hat=1 / 6)
        radius = float(np.quantile(solver.candidate_radii(), quantile))
        self._assert_matches_naive(solver, radius)

    def test_repeated_probes_are_independent(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3, eps_hat=1 / 6)
        radius = float(np.median(solver.candidate_radii()))
        first = solver.run(radius)
        second = solver.run(radius)
        assert np.array_equal(first.center_indices, second.center_indices)
        assert first.uncovered_weight == second.uncovered_weight

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    @pytest.mark.parametrize("z", (0, 7, 40))
    def test_search_radius_matches_reference_search(self, small_blobs, eps_hat, z):
        coreset = WeightedPoints(points=small_blobs, weights=_integer_weights(200))
        solver = OutliersClusterSolver(coreset, k=4, eps_hat=eps_hat)
        result = search_radius(solver, z=z)
        expected = search_radius(ReferenceSolver(solver), z=z)
        assert result.radius == expected.radius
        assert result.probes == expected.probes
        assert np.array_equal(result.solution.center_indices, expected.solution.center_indices)
        assert np.array_equal(result.solution.uncovered_mask, expected.solution.uncovered_mask)


class TestLargestDistanceClosedForm:
    """A probe at or above the largest distance returns center 0 without a pass.

    It must equal the probe the pass gives (forced by forgetting the
    largest distance) and the literal Algorithm 1, and it must not be
    taken where the pass could pick another center or cover less.
    """

    @staticmethod
    def _spy_on_passes(monkeypatch) -> list[float]:
        calls = []
        select = OutliersClusterSolver._selection_balls

        def spy(self, selection_radius):
            calls.append(selection_radius)
            return select(self, selection_radius)

        monkeypatch.setattr(OutliersClusterSolver, "_selection_balls", spy)
        return calls

    def _assert_closed_form(self, solver, radius, monkeypatch, naive=True):
        with monkeypatch.context() as patch:
            passes = self._spy_on_passes(patch)
            result = solver.run(radius)
            assert passes == []
            patch.setattr(solver, "_largest", np.nan)
            by_pass = solver.run(radius)
            assert len(passes) == 1
        assert result.center_indices.tolist() == by_pass.center_indices.tolist() == [0]
        assert result.center_indices.dtype == by_pass.center_indices.dtype
        assert np.array_equal(result.uncovered_mask, by_pass.uncovered_mask)
        assert not result.uncovered_mask.any()
        assert result.uncovered_weight == by_pass.uncovered_weight == 0.0
        assert result.radius == by_pass.radius == radius
        if naive:
            centers, uncovered = naive_run(solver, radius)
            assert centers == [0] and not uncovered.any()

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    @pytest.mark.parametrize("m", (1, 2, 50))
    def test_all_coincident(self, monkeypatch, m, eps_hat):
        coreset = WeightedPoints(points=np.full((m, 2), 3.0), weights=_integer_weights(m))
        solver = OutliersClusterSolver(coreset, k=3, eps_hat=eps_hat)
        solver.candidate_radii()
        for radius in (0.0, 1.0):
            self._assert_closed_form(solver, radius, monkeypatch)

    @pytest.mark.parametrize("eps_hat", (0.0, 1 / 6))
    @pytest.mark.parametrize("m", (1, 2))
    def test_one_and_two_points(self, rng, monkeypatch, m, eps_hat):
        coreset = WeightedPoints(points=rng.normal(size=(m, 3)), weights=_integer_weights(m))
        solver = OutliersClusterSolver(coreset, k=2, eps_hat=eps_hat)
        candidates = solver.candidate_radii()
        largest = float(candidates[-1]) if m > 1 else 0.0
        for radius in (largest, 2.0 * largest + 1.0):
            self._assert_closed_form(solver, radius, monkeypatch)

    def test_seed_7_union(self, monkeypatch):
        # The round-2 union of the MapReduce outlier benchmark at seed 7.
        captured = []
        solve = mr_outliers_module._outliers_solve

        def capture(union, **kwargs):
            captured.append((union, kwargs))
            return solve(union, **kwargs)

        monkeypatch.setattr(mr_outliers_module, "_outliers_solve", capture)
        MapReduceKCenterOutliers(
            k=20, z=200, ell=8, coreset_multiplier=4, randomized=True,
            include_log_term=False, random_state=7,
        ).fit(higgs_like(200_000, random_state=7))
        ((union, kwargs),) = captured
        assert len(union) == 5440
        solver = OutliersClusterSolver(
            union, kwargs["k"], eps_hat=kwargs["eps_hat"], metric=kwargs["metric"]
        )
        largest = float(solver.candidate_radii()[-1])
        self._assert_closed_form(solver, largest, monkeypatch, naive=False)

    def test_not_before_the_candidates(self, monkeypatch):
        coreset = WeightedPoints(points=np.full((5, 2), 3.0), weights=_integer_weights(5))
        solver = OutliersClusterSolver(coreset, k=2)
        passes = self._spy_on_passes(monkeypatch)
        solver.run(0.0)
        assert passes == [0.0]

    def test_not_for_fractional_weights(self, rng, monkeypatch):
        points = rng.normal(size=(40, 2))
        weights = _integer_weights(40) + 0.25
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=3)
        largest = float(solver.candidate_radii()[-1])
        passes = self._spy_on_passes(monkeypatch)
        result = solver.run(largest)
        assert passes == [largest]
        centers, uncovered = naive_run(solver, largest)
        assert result.center_indices.tolist() == centers
        assert np.array_equal(result.uncovered_mask, uncovered)

    def test_not_with_a_nan_distance(self, monkeypatch):
        # Squared norms near 1e400 overflow: the two far points are a NaN
        # apart, and row 0 covers neither of them.
        points = np.array([[0.0, 0.0], [1e200, 0.0], [1e200, 1.0], [1.0, 0.0]])
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=np.ones(4)), k=2)
        assert np.isnan(solver.pairwise_distances).any()
        candidates = solver.candidate_radii()
        assert np.isnan(solver._largest)
        passes = self._spy_on_passes(monkeypatch)
        for radius in (float(np.nanmax(candidates)), 1e300):
            result = solver.run(radius)
            centers, uncovered = naive_run(solver, radius)
            assert result.center_indices.tolist() == centers
            assert np.array_equal(result.uncovered_mask, uncovered)
        assert len(passes) == 2


class TestCandidateRadii:
    """candidate_radii equals np.unique over the strict upper triangle, bit for bit."""

    @staticmethod
    def _assert_matches_unique(points: np.ndarray) -> None:
        solver = OutliersClusterSolver(_unit_coreset(points), k=1)
        candidates = solver.candidate_radii()
        expected = reference_candidates(solver)
        assert candidates.dtype == expected.dtype == np.float64
        assert candidates.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", (1, 2, 3, 255, 256, 257))
    def test_random_points(self, rng, m):
        self._assert_matches_unique(rng.normal(size=(m, 4)))

    @pytest.mark.parametrize("m", (1, 2, 3, 255, 256, 257))
    def test_duplicated_points(self, rng, m):
        base = rng.normal(size=(max(1, m // 4), 3))
        self._assert_matches_unique(base[rng.integers(0, base.shape[0], size=m)])

    @pytest.mark.parametrize("m", (2, 3, 255, 256, 257))
    def test_integer_grid(self, rng, m):
        self._assert_matches_unique(rng.integers(0, 4, size=(m, 2)).astype(np.float64))

    def test_all_coincident(self):
        self._assert_matches_unique(np.full((50, 2), 3.0))

    @pytest.mark.parametrize("block", (1, 2, 7, 64))
    @pytest.mark.parametrize("kind", ("grid", "distinct", "coincident"))
    def test_compaction_blocks(self, rng, monkeypatch, block, kind):
        # Runs of equal values straddle the block boundaries of the in-place
        # compaction.
        monkeypatch.setattr(solver_module, "_COMPACT_BLOCK", block)
        if kind == "grid":
            points = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        elif kind == "distinct":
            points = rng.normal(size=(60, 3))
        else:
            points = np.zeros((60, 2))
        self._assert_matches_unique(points)

    def test_several_default_blocks(self, rng):
        # 600 points give 179,700 pairs: three compaction blocks.
        self._assert_matches_unique(rng.integers(0, 6, size=(600, 3)).astype(np.float64))


class TestProbeMemory:
    """A probe allocates no (m, m) temporary on top of the cached matrix."""

    M = 2048

    @classmethod
    def _new_solver(cls) -> OutliersClusterSolver:
        rng = np.random.default_rng(11)
        points = rng.normal(size=(cls.M, 5))
        weights = np.asarray(rng.integers(1, 50, size=cls.M), dtype=np.float64)
        return OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=20)

    @pytest.fixture(scope="class")
    def solver(self):
        return self._new_solver()

    @staticmethod
    def _traced_peak(call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_peak_below_quarter_matrix(self, solver):
        diameter = float(solver.pairwise_distances.max())
        # Small radii take the subtract path, large ones the recompute path.
        for radius in (0.0, 0.05 * diameter, 0.2 * diameter, 0.6 * diameter, diameter):
            peak = self._traced_peak(lambda: solver.run(radius))
            assert peak < self.M * self.M * 8 / 4, (radius, peak)

    def test_graph_build_and_graph_probe_peaks(self):
        solver = self._new_solver()
        candidates = solver.candidate_radii()
        # The counted bound's balls fit under the m*m/32 cap; those of the
        # next distinct distance do not.
        bound = solver._graph_bound
        assert solver._graph_size <= self.M * self.M // 32
        following = float(candidates[np.searchsorted(candidates, bound, "right")])
        pairwise = solver.pairwise_distances
        assert np.count_nonzero(pairwise <= following) > self.M * self.M // 32
        # The first probe under the bound builds the graph at the bound.
        build_radius, graph_radius, dense_radius = (
            float(radius) for radius in np.quantile(candidates, (0.025, 0.01, 0.3))
        )
        assert graph_radius < build_radius < bound < dense_radius
        build_peak = self._traced_peak(lambda: solver.run(build_radius))
        graph = solver._graph
        assert graph is not None and graph.bound == bound
        assert graph.rows.size == solver._graph_size == np.count_nonzero(pairwise <= bound)
        graph_peak = self._traced_peak(lambda: solver.run(graph_radius))
        assert solver._graph is graph
        # A dense probe above the bound runs next to the graph it keeps.
        dense_peak = self._traced_peak(lambda: solver.run(dense_radius))
        assert solver._graph is graph
        for peak in (build_peak, graph_peak, dense_peak):
            assert peak < self.M * self.M * 8 / 4, (build_peak, graph_peak, dense_peak)

    def test_probes_before_the_candidates_build_no_graph(self, rng):
        points = rng.normal(size=(300, 5))
        solver = OutliersClusterSolver(_unit_coreset(points), k=5)
        solver.run(0.0)
        solver.run(float(np.quantile(solver.pairwise_distances, 0.001)))
        assert solver._graph is None
        solver.candidate_radii()
        solver.run(0.0)
        assert solver._graph is not None

    @pytest.mark.parametrize("weights", ("fractional", "total_at_2_53"))
    def test_inexact_weight_sums_never_build_a_graph(self, rng, weights):
        points = rng.normal(size=(300, 5))
        if weights == "fractional":
            values = np.asarray(rng.integers(1, 50, size=300), dtype=np.float64)
            values[7] += 0.5
        else:
            values = np.full(300, 2.0**46)  # integers summing past 2**53
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=values), k=5)
        quantiles = np.quantile(solver.candidate_radii(), (0.001, 0.01, 0.03, 0.5, 1.0))
        for radius in (0.0, *quantiles):
            solver.run(float(radius))
            assert solver._graph is None

    def test_candidate_radii_peak(self, solver):
        peak = self._traced_peak(solver.candidate_radii)
        assert peak < self.M * (self.M - 1) / 2 * 8 * 1.3


class TestOutliersClusterFunction:
    def test_one_shot_wrapper(self, small_blobs):
        result = outliers_cluster(_unit_coreset(small_blobs), k=3, radius=5.0)
        assert result.n_centers <= 3
        assert result.radius == pytest.approx(5.0)
