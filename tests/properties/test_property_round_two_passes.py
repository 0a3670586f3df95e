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

From 2048 rows up the first two split their row blocks over the BLAS
threads. Patching the threshold and the thread count splits them at the
small sizes below too, where the split pass and the split graph must
equal the one-thread ones, and an error in a helper thread must reach the
caller with no thread left behind.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
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
    # A probe at radius 0 builds the graph. Through ``run`` it would not on
    # an all-coincident set, where radius 0 is the largest distance and the
    # probe takes its closed form.
    solver._selection_balls(0.0)
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


@contextlib.contextmanager
def _split_over(threads: int):
    """Split every pass over ``threads`` threads; yields the thread count of each pass.

    The interpreter switches threads every microsecond meanwhile, so the
    threads of a pass interleave as finely as they can.
    """
    counts = []
    run = solver_module._in_threads

    def spy(task, arguments):
        counts.append(len(arguments))
        return run(task, arguments)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(solver_module, "_SPLIT_MIN_ROWS", 1), mock.patch.object(
            solver_module, "blas_threads", lambda: threads
        ), mock.patch.object(solver_module, "_in_threads", spy):
            yield counts
    finally:
        sys.setswitchinterval(interval)


@given(
    kind=st.sampled_from(KINDS),
    rows_and_m=_ROWS_AND_M,
    heavy=st.booleans(),
    threads=st.sampled_from((2, 3)),
    quantile=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_split_upper_triangle_pass_matches_one_thread(
    kind, rows_and_m, heavy, threads, quantile, seed
):
    rows, m = rows_and_m
    solver = _solver(kind, m, heavy, seed)
    pairwise = solver.pairwise_distances
    blocks = -(-m // rows)
    for radius in (0.0, float(np.quantile(pairwise, quantile)), float(pairwise.max()) + 1.0):
        with mock.patch.object(solver_module, "_TRIANGLE_ROWS", rows):
            _, expected = solver._selection_balls(radius)
            with _split_over(threads) as counts:
                _, got = solver._selection_balls(radius)
        # Two or more blocks run on two or more threads, never more than asked.
        assert len(counts) == 1 and counts[0] <= threads
        assert (counts[0] > 1) == (blocks > 1)
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == ((pairwise <= radius) @ solver.coreset.weights).tobytes()


@given(
    kind=st.sampled_from(KINDS),
    rows_and_m=_ROWS_AND_M,
    graph_fill=st.sampled_from((1, 4)),
    threads=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_split_graph_is_the_row_major_threshold(kind, rows_and_m, graph_fill, threads, seed):
    rows, m = rows_and_m
    solver = _solver(kind, m, False, seed)
    with mock.patch.object(solver_module, "_GRAPH_FILL", graph_fill):
        solver.candidate_radii()
    bound, size = solver._graph_bound, solver._graph_size
    if bound == -np.inf:
        return
    pairwise = solver.pairwise_distances
    with mock.patch.object(solver_module, "_BLOCK_ROWS", rows), _split_over(threads) as counts:
        graph = solver_module._build_graph(pairwise, bound, size)
    # One thread from the front, one from the back, whatever the thread count.
    assert counts == [2 if m > rows else 1]
    expected_rows, expected_cols = np.nonzero(pairwise <= bound)
    assert np.array_equal(graph.rows, expected_rows)
    assert np.array_equal(graph.cols, expected_cols)
    assert graph.distances.tobytes() == pairwise[expected_rows, expected_cols].tobytes()


@pytest.mark.parametrize("pass_name", ["upper_triangle", "graph"])
def test_helper_thread_error_reaches_the_caller(pass_name):
    solver = _solver("gaussian", 200, False, seed=3)
    pairwise = solver.pairwise_distances
    with mock.patch.object(solver_module, "_GRAPH_FILL", 1):
        solver.candidate_radii()
    caller = threading.get_ident()
    less_equal = np.less_equal

    def fails_in_helpers(*args, **kwargs):
        if threading.get_ident() != caller:
            raise RuntimeError("helper block failed")
        return less_equal(*args, **kwargs)

    before = threading.active_count()
    # 64-row graph blocks, so the 200 rows make four of them.
    with _split_over(2) as counts, mock.patch.object(solver_module, "_BLOCK_ROWS", 64), \
            mock.patch.object(np, "less_equal", fails_in_helpers):
        with pytest.raises(RuntimeError, match="helper block failed"):
            if pass_name == "graph":
                solver_module._build_graph(pairwise, solver._graph_bound, solver._graph_size)
            else:
                buffer = np.empty((solver_module._BLOCK_ROWS, 200))
                solver_module._upper_triangle_weights(
                    pairwise, solver.coreset.weights, 1.0, buffer
                )
    assert counts == [2]
    assert threading.active_count() == before


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
