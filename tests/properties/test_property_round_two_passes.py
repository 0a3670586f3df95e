"""Property tests: round 2 reads each pair of the pairwise matrix once.

Three pieces of :mod:`repro.core.outliers_cluster` must give, bit for bit,
what a plain reading of the whole matrix ``D`` gives:

* the upper-triangle dense pass equals the full-row threshold-``matmul``
  pass that fractional weights take, at every block height and at sizes
  on either side of its multiples;
* the selection graph equals the row-major ``np.nonzero(D <= bound)``
  entries;
* the bound ``candidate_radii`` counts is the largest distinct distance
  whose entries fit under the graph's cap, ties included.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutliersClusterSolver
from repro.metricspace import WeightedPoints

from _reference_outliers_cluster import reference_candidates

solver_module = importlib.import_module("repro.core.outliers_cluster")

KINDS = ("gaussian", "duplicates", "coincident", "grid")


def _points(kind: str, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "duplicates":
        return rng.normal(size=(max(1, m // 3), 3))[rng.integers(0, max(1, m // 3), size=m)]
    if kind == "coincident":
        return np.full((m, 2), 1.5)
    if kind == "grid":
        return rng.integers(0, 4, size=(m, 2)).astype(np.float64)
    return rng.normal(size=(m, 3))


def _weights(m: int, heavy: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if heavy:
        # Integers whose total stays below 2**53, far above 2**32.
        return np.asarray(rng.integers(1, 2**44, size=m), dtype=np.float64)
    return np.asarray(rng.integers(1, 60, size=m), dtype=np.float64)


def _solver(kind: str, m: int, heavy: bool, seed: int) -> OutliersClusterSolver:
    coreset = WeightedPoints(points=_points(kind, m, seed), weights=_weights(m, heavy, seed))
    return OutliersClusterSolver(coreset, k=3)


# m at 1 to 4 multiples of the block height, and one either side of each.
_ROWS_AND_M = st.sampled_from((1, 5, solver_module._TRIANGLE_ROWS)).flatmap(
    lambda rows: st.tuples(
        st.just(rows),
        st.builds(lambda q, side: max(1, q * rows + side), st.integers(1, 4), st.integers(-1, 1)),
    )
)


@given(
    kind=st.sampled_from(KINDS),
    rows_and_m=_ROWS_AND_M,
    heavy=st.booleans(),
    quantile=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_upper_triangle_pass_matches_full_rows(kind, rows_and_m, heavy, quantile, seed):
    rows, m = rows_and_m
    solver = _solver(kind, m, heavy, seed)
    pairwise = solver.pairwise_distances
    for radius in (0.0, float(np.quantile(pairwise, quantile)), float(pairwise.max()) + 1.0):
        with mock.patch.object(solver_module, "_TRIANGLE_ROWS", rows):
            _, got = solver._selection_balls(radius)
        with mock.patch.object(solver, "_graph_allowed", False):
            _, expected = solver._selection_balls(radius)
        assert solver._graph is None
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == ((pairwise <= radius) @ solver.coreset.weights).tobytes()


@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(1, 300),
    graph_fill=st.sampled_from((1, 4, 32)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_graph_is_the_row_major_threshold(kind, m, graph_fill, seed):
    solver = _solver(kind, m, False, seed)
    with mock.patch.object(solver_module, "_GRAPH_FILL", graph_fill):
        solver.candidate_radii()
    bound = solver._graph_bound
    solver.run(0.0)
    if bound == -np.inf:
        assert solver._graph is None
        return
    pairwise = solver.pairwise_distances
    rows, cols = np.nonzero(pairwise <= bound)
    graph = solver._graph
    assert graph.bound == bound
    assert graph.rows.dtype == graph.cols.dtype == np.int32
    assert np.array_equal(graph.rows, rows)
    assert np.array_equal(graph.cols, cols)
    assert graph.distances.tobytes() == pairwise[rows, cols].tobytes()
    assert solver._graph_size == rows.size <= m * m // graph_fill


def _expected_bound(pairwise: np.ndarray, candidates: np.ndarray, cap: int) -> tuple[float, int]:
    """The largest candidate whose entries ``D <= c`` number at most ``cap``."""
    counts = np.searchsorted(np.sort(pairwise, axis=None), candidates, "right")
    fitting = np.flatnonzero(counts <= cap)
    if fitting.size == 0:
        return -np.inf, 0
    return float(candidates[fitting[-1]]), int(counts[fitting[-1]])


@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(1, 120),
    graph_fill=st.sampled_from((1, 2, 4, 32)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_counted_bound_is_the_largest_fitting_distance(kind, m, graph_fill, seed):
    solver = _solver(kind, m, False, seed)
    with mock.patch.object(solver_module, "_GRAPH_FILL", graph_fill):
        solver.candidate_radii()
    pairwise = solver.pairwise_distances
    expected = _expected_bound(pairwise, reference_candidates(solver), m * m // graph_fill)
    assert (solver._graph_bound, solver._graph_size) == expected
    if graph_fill == 1 and m > 1:
        # Every pair fits.
        assert solver._graph_bound == float(pairwise.max())
    if m < 32 and graph_fill == 32:
        # The diagonal alone overflows the cap.
        assert solver._graph_bound == -np.inf


@pytest.mark.parametrize(
    ("ties", "bound", "size"),
    [
        # No tie at the cap: 32 upper entries fit, the bound is the 32nd.
        ((), 31.0, 64 + 2 * 32),
        # A run of ties 30..34 crosses the cap: step down to the value before.
        ((30, 35), 29.0, 64 + 2 * 30),
        # A run of ties ends exactly at the cap: it fits whole.
        ((28, 32), 28.0, 64 + 2 * 32),
        # The smallest value's ties cross the cap: nothing fits.
        ((0, 40), -np.inf, 0),
    ],
)
def test_counted_bound_at_ties(ties, bound, size):
    m = 64  # a cap of 128 entries: the diagonal and 32 upper entries
    upper = np.arange(m * (m - 1) // 2, dtype=np.float64)
    if ties:
        start, stop = ties
        upper[start:stop] = upper[start]
    assert solver_module._counted_bound(upper, m) == (bound, size)


def test_counted_bound_skips_nan_distances():
    m = 8
    upper = np.arange(m * (m - 1) // 2, dtype=np.float64)
    upper[20:] = np.nan
    with mock.patch.object(solver_module, "_GRAPH_FILL", 1):
        assert solver_module._counted_bound(upper, m) == (19.0, m + 2 * 20)


@pytest.mark.parametrize("m", [1, 2, 31])
def test_no_graph_below_the_fill(m):
    upper = np.zeros(m * (m - 1) // 2)
    assert solver_module._counted_bound(upper, m) == (-np.inf, 0)
