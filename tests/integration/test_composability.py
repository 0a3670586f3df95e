"""Integration tests of the composable-coreset property itself.

The entire paper rests on one structural fact: if each subset of a
partition of ``S`` is summarised by its (weighted) GMM coreset, the
*union* of those coresets still embodies a near-optimal solution for all
of ``S``. These tests exercise that property directly — independent of
any particular driver — by building per-partition coresets, taking their
union, solving on the union, and comparing against (a) the guarantee and
(b) a single global coreset of the same total size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CoresetSpec,
    OutliersClusterSolver,
    build_coreset,
    gmm_select,
    search_radius,
)
from repro.core.assignment import assign_to_centers, radius_from_distances
from repro.evaluation import optimal_kcenter_radius
from repro.metricspace import WeightedPoints


def _contiguous(n: int, ell: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n), ell)


def _random(n: int, ell: int) -> list[np.ndarray]:
    return [np.sort(part) for part in np.array_split(np.random.default_rng(0).permutation(n), ell)]


def _union_coreset(points: np.ndarray, parts, spec: CoresetSpec) -> WeightedPoints:
    pieces = []
    for indices in parts:
        result = build_coreset(points[indices], spec, weighted=True)
        pieces.append(
            WeightedPoints(
                points=result.coreset.points,
                weights=result.coreset.weights,
                origin_indices=indices[result.center_indices],
            )
        )
    return WeightedPoints.concatenate(pieces)


class TestComposability:
    def test_union_embodies_good_kcenter_solution(self, rng):
        # Small instance so the optimum is computable: the union coreset,
        # built with the epsilon rule, must contain a (2 + eps)-approximate
        # solution for the WHOLE dataset regardless of the partitioning.
        points = rng.normal(size=(24, 2)) * 10
        k, epsilon = 3, 1.0
        optimum = optimal_kcenter_radius(points, k)
        spec = CoresetSpec.from_epsilon(k, epsilon)
        for splitter in (_contiguous, _random):
            parts = splitter(points.shape[0], 3)
            union = _union_coreset(points, parts, spec)
            solution = gmm_select(union.points, k)
            centers = union.points[solution.centers]
            radius = assign_to_centers(points, centers).radius
            assert radius <= (2.0 + epsilon) * optimum + 1e-9

    def test_union_weights_account_for_every_point(self, medium_blobs):
        spec = CoresetSpec.from_multiplier(10, 2)
        parts = _contiguous(medium_blobs.shape[0], 6)
        union = _union_coreset(medium_blobs, parts, spec)
        assert union.total_weight == pytest.approx(medium_blobs.shape[0])
        assert len(union) == 6 * 20

    def test_union_proxy_distance_bounded_by_worst_partition(self, medium_blobs):
        # The proxy distance of the union is the max over partitions, so it
        # cannot exceed the largest per-partition coreset radius.
        spec = CoresetSpec.from_multiplier(8, 4)
        parts = _contiguous(medium_blobs.shape[0], 4)
        per_partition_max = []
        for indices in parts:
            result = build_coreset(medium_blobs[indices], spec, weighted=True)
            per_partition_max.append(result.max_proxy_distance)
        union = _union_coreset(medium_blobs, parts, spec)
        distances = assign_to_centers(medium_blobs, union.points).distances
        assert distances.max() <= max(per_partition_max) + 1e-9

    def test_union_versus_global_coreset_of_same_size(self, medium_blobs):
        # A single global coreset of the same total size should not be
        # dramatically better than the union of per-partition coresets —
        # composability costs little (this is what makes the MapReduce
        # algorithms competitive with the sequential ones).
        k, ell, mu = 8, 4, 4
        parts = _contiguous(medium_blobs.shape[0], ell)
        union = _union_coreset(medium_blobs, parts, CoresetSpec.from_multiplier(k, mu))
        global_coreset = build_coreset(
            medium_blobs, CoresetSpec.from_multiplier(k, mu * ell), weighted=True
        ).coreset

        union_solution = gmm_select(union.points, k)
        global_solution = gmm_select(global_coreset.points, k)
        union_radius = assign_to_centers(
            medium_blobs, union.points[union_solution.centers]
        ).radius
        global_radius = assign_to_centers(
            medium_blobs, global_coreset.points[global_solution.centers]
        ).radius
        assert union_radius <= 2.0 * global_radius + 1e-9

    def test_outlier_union_supports_radius_search(self, blobs_with_outliers):
        # The weighted union built from an arbitrary partition must let the
        # radius search discard (at most) z weight and cover the rest.
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        k = 5
        spec = CoresetSpec.from_multiplier(k + z, 2)
        parts = _contiguous(data.shape[0], 4)
        union = _union_coreset(data, parts, spec)
        solver = OutliersClusterSolver(union, k, eps_hat=1 / 6)
        search = search_radius(solver, z)
        centers = union.points[search.solution.center_indices]
        distances = assign_to_centers(data, centers).distances
        radius_excl = radius_from_distances(distances, z)
        radius_all = radius_from_distances(distances, 0)
        assert search.solution.uncovered_weight <= z
        assert radius_excl < radius_all / 10.0
