"""Micro-benchmarks of the core primitives.

These do not correspond to a paper figure; they track the performance of
the building blocks every experiment relies on, so regressions in the
hot paths (GMM extension, weighted coreset construction, OUTLIERSCLUSTER,
the streaming doubling coreset) are visible in benchmark history even
when the figure-level numbers move for other reasons.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CoresetSpec,
    OutliersClusterSolver,
    StreamingCoreset,
    build_coreset,
    gmm_select,
    search_radius,
)
from repro.metricspace import WeightedPoints

from .conftest import bench_seed


def _points(n: int, d: int = 7) -> np.ndarray:
    return np.random.default_rng(bench_seed()).normal(size=(n, d))


def test_gmm_select(benchmark):
    points = _points(4000)
    result = benchmark(lambda: gmm_select(points, 50))
    assert result.n_centers == 50


def test_weighted_coreset_construction(benchmark):
    points = _points(4000)
    spec = CoresetSpec.from_multiplier(60, 4)
    result = benchmark(lambda: build_coreset(points, spec, weighted=True))
    assert result.size == 240


def test_outliers_cluster_single_run(benchmark):
    points = _points(1200)
    coreset = WeightedPoints(points=points, weights=np.ones(points.shape[0]))
    solver = OutliersClusterSolver(coreset, k=20, eps_hat=1 / 6)
    radius = float(np.median(solver.candidate_radii()))
    result = benchmark(lambda: solver.run(radius))
    assert result.n_centers <= 20


def test_outliers_cluster_radius_probes(benchmark):
    # The radius-probe pattern of search_radius: many run() calls over the
    # same cached pairwise matrix. Tracks the cost of the per-probe work:
    # ball weights built from row blocks of that matrix, then updated from
    # gathered rows as centers are selected.
    points = _points(900)
    coreset = WeightedPoints(points=points, weights=np.ones(points.shape[0]))
    solver = OutliersClusterSolver(coreset, k=15, eps_hat=1 / 6)
    radii = np.quantile(solver.candidate_radii(), np.linspace(0.05, 0.6, 12))

    def probe_all():
        return [solver.run(float(r)).uncovered_weight for r in radii]

    weights = benchmark(probe_all)
    assert len(weights) == 12
    # Larger radii never leave more weight uncovered.
    assert all(a >= b - 1e-9 for a, b in zip(weights, weights[1:]))


def test_radius_search(benchmark):
    points = _points(600)
    coreset = WeightedPoints(points=points, weights=np.ones(points.shape[0]))
    solver = OutliersClusterSolver(coreset, k=10, eps_hat=1 / 6)
    result = benchmark(lambda: search_radius(solver, z=20))
    assert result.solution.uncovered_weight <= 20


def test_streaming_coreset_throughput(benchmark):
    points = _points(8000)

    def run():
        coreset = StreamingCoreset(tau=200)
        for point in points:
            coreset.process(point)
        return coreset

    coreset = benchmark(run)
    assert coreset.size <= 200


def test_streaming_coreset_batch_throughput(benchmark):
    # Same work as the benchmark above, which feeds one point per call
    # (one-row chunks), consumed in 1024-point chunks.
    points = _points(8000)

    def run():
        coreset = StreamingCoreset(tau=200)
        for start in range(0, points.shape[0], 1024):
            coreset.process_batch(points[start : start + 1024])
        return coreset

    coreset = benchmark(run)
    assert coreset.size <= 200
