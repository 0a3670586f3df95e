"""OUTLIERSCLUSTER: the weighted sequential routine of Algorithm 1.

Given a weighted coreset ``T``, a number of centers ``k``, a guess ``r``
of the optimal radius, and the precision parameter ``eps_hat``, the
routine greedily picks ``k`` centers: each iteration selects the point of
``T`` whose ball of radius ``(1 + 2*eps_hat) * r`` covers the largest
aggregate weight of still-uncovered points, then marks as covered every
uncovered point within ``(3 + 4*eps_hat) * r`` of the chosen center. The
points left uncovered at the end are the candidate outliers.

The routine is a weighted modification of Charikar et al.'s algorithm
[16] (which is the special case of unit weights and ``eps_hat = 0``), and
it is the second-round workhorse of both the MapReduce and the Streaming
algorithms for the outlier formulation.

:class:`OutliersClusterSolver` precomputes the pairwise distance matrix
``D`` of ``T`` once (``8 * m**2`` bytes for ``m = |T|``, one ``(m, m)``
float64 matrix) so that the radius search of
:mod:`repro.core.radius_search` can probe many radii cheaply.
:meth:`OutliersClusterSolver.candidate_radii` holds the ``m * (m - 1) / 2``
upper-triangle distances once: it sorts them in place, moves the distinct
values to the front in place and returns a view of that front. For the
Euclidean metric, :meth:`Metric.pairwise` builds ``D`` in the buffer of
its one matrix product, so building ``D`` holds one ``(m, m)`` matrix, not
several.

A probe takes its selection balls from one of two places:

* **The selection graph.** When every weight is an integer and the total
  is below ``2**53``, the solver keeps the entries ``D[row, col] <= bound``
  in row-major order (int32 indices, float64 distances). ``bound`` is
  counted, not discovered: while :meth:`candidate_radii` holds the sorted
  distances it reads off the largest distinct distance ``v`` whose
  ``m + 2 * searchsorted(upper, v, "right")`` entries fit under
  ``m * m // 32`` (none when ``m < 32``: the diagonal alone overflows).
  The first probe at or below ``bound`` builds the graph in one pass into
  arrays of exactly that size; it and every later such probe filter the
  graph once and read ``D`` only for the rows of their at most ``k``
  centers. Integer sums below ``2**53`` are exact in any order, so such a
  probe returns, bit for bit, what the dense pass returns.
* **The dense pass.** Any other probe, including those that run before
  the candidates exist such as radius 0, thresholds ``D`` in row blocks.
  Under the same weight condition it reads only the upper triangle, in
  blocks of ``_TRIANGLE_ROWS`` rows whose float64 mask stays in L2, and
  adds each block's products to both its own rows and, by symmetry, the
  rows below it. For any other weights it thresholds whole rows,
  ``_BLOCK_ROWS`` at a time.

A probe at or above the largest distance, under the same weight
condition and with no distance NaN, has a closed form and reads neither:
every ball holds all the weight, so it returns center 0 and nothing
uncovered.

From ``_SPLIT_MIN_ROWS`` (2048) rows up, the upper-triangle pass and the
graph build split their row blocks over the process's BLAS thread count
(:func:`~repro._openblas.blas_threads`): 2 in a default coordinator on two
cores, 1 in pool workers and worker daemons, 1 when the count cannot be
read. Round 2 is one reducer, so on the serial backend the other cores
would otherwise sit idle. The pass cuts the triangle into runs of about
equal area, one per thread, each with its own block buffer and partial
ball weights; under the weight condition the partials sum exactly. The
graph build runs the first half of the row blocks in the calling thread,
filling the arrays from the front, and the second half in one helper
thread, filling them from the back; the counted size is exact, so the
halves meet in row-major order. Helper threads end with their pass, and
an error in one reaches the caller.

On top of the cached matrix a probe holds one ``(_BLOCK_ROWS, m)`` float64
buffer, which the upper-triangle pass also reuses, and the graph, whose at
most ``m * m / 32`` entries of 16 bytes each take at most 1/16 of the
matrix's bytes; building it adds one row block's masks and indices per
thread, never another ``(m, m)`` array. Each helper thread of the
upper-triangle pass adds one ``(_TRIANGLE_ROWS, m)`` buffer and one
length-``m`` partial.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .._openblas import blas_threads
from .._validation import check_non_negative_float, check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints

__all__ = ["OutliersClusterResult", "OutliersClusterSolver", "outliers_cluster"]

# Rows of the pairwise matrix thresholded at once by a probe; the probe
# buffer holds ``_BLOCK_ROWS * m`` float64 values.
_BLOCK_ROWS = 256

# Rows of the upper-triangle dense pass: its float64 mask of at most
# ``_TRIANGLE_ROWS * m`` values stays in L2 between its two products.
_TRIANGLE_ROWS = 32

# The selection graph holds at most ``m * m // _GRAPH_FILL`` entries of 16
# bytes each, so at most 1/16 of the bytes of the pairwise matrix.
_GRAPH_FILL = 32

# Sorted candidates deduplicated at once by ``candidate_radii``; the boolean
# indexing holds an 8-byte index and an 8-byte value per kept entry of a block.
_COMPACT_BLOCK = 2**16

# The dense pass and the graph build split their row blocks over the
# process's BLAS threads from this many rows up; smaller solves run in one
# thread, where starting a helper costs more than it saves. (Two threads on
# 2 vCPUs, d = 7: at 1024 rows the dense pass took 1.1 ms against 0.8 ms
# unsplit and the graph build 1.8 against 1.3 ms; at 2048 rows 2.7 against
# 3.4 ms and 4.0 against 7.2 ms.)
_SPLIT_MIN_ROWS = 2048


@dataclass(frozen=True)
class OutliersClusterResult:
    """Output of one OUTLIERSCLUSTER run.

    Attributes
    ----------
    center_indices:
        Indices (into the coreset) of the selected centers ``X``, in
        selection order; at most ``k`` of them.
    uncovered_mask:
        Boolean mask over the coreset marking the final uncovered set
        ``T'`` (the candidate outliers).
    uncovered_weight:
        Total weight of the uncovered points; the radius search looks for
        the smallest radius making this at most ``z``.
    radius:
        The radius guess ``r`` this run was executed with.
    """

    center_indices: np.ndarray
    uncovered_mask: np.ndarray
    uncovered_weight: float
    radius: float

    @property
    def n_centers(self) -> int:
        """Number of selected centers (``<= k``)."""
        return int(self.center_indices.shape[0])


class OutliersClusterSolver:
    """Reusable OUTLIERSCLUSTER executor over a fixed weighted coreset.

    Parameters
    ----------
    coreset:
        The weighted coreset ``T`` (union of the per-partition coresets).
    k:
        Number of centers to select.
    eps_hat:
        The precision parameter ``eps_hat`` of Algorithm 1 (the paper sets
        ``eps_hat = eps / 6`` to obtain a ``3 + eps`` approximation). A
        value of 0 recovers the unweighted ball radii of Charikar et al.
    metric:
        Metric name or instance.
    """

    def __init__(
        self,
        coreset: WeightedPoints,
        k: int,
        *,
        eps_hat: float = 0.0,
        metric: str | Metric = "euclidean",
    ) -> None:
        if not isinstance(coreset, WeightedPoints):
            raise InvalidParameterError("coreset must be a WeightedPoints instance")
        self._coreset = coreset
        self._k = check_positive_int(k, name="k")
        self._eps_hat = check_non_negative_float(eps_hat, name="eps_hat")
        self._metric = get_metric(metric)
        self._pairwise = self._metric.pairwise(coreset.points)
        weights = coreset.weights
        self._weights = weights
        # Integer weights with a total below 2**53 sum exactly in any order,
        # the condition under which a probe may read the selection graph.
        self._graph_allowed = bool(np.all(weights == np.floor(weights))) and (
            float(weights.sum()) < 2.0**53
        )
        self._graph: _SelectionGraph | None = None
        # The graph's bound and entry count, counted by candidate_radii; a
        # bound of -inf builds no graph.
        self._graph_bound, self._graph_size = -np.inf, 0
        # The largest entry of D, NaN if any entry is NaN; read off the
        # sorted distances by candidate_radii, unknown (NaN) until then.
        self._largest = np.nan

    # -- read-only properties ---------------------------------------------------------

    @property
    def coreset(self) -> WeightedPoints:
        """The weighted coreset this solver operates on."""
        return self._coreset

    @property
    def k(self) -> int:
        """Number of centers selected per run."""
        return self._k

    @property
    def eps_hat(self) -> float:
        """The precision parameter used for the ball radii."""
        return self._eps_hat

    @property
    def pairwise_distances(self) -> np.ndarray:
        """The precomputed pairwise distance matrix of the coreset."""
        return self._pairwise

    def candidate_radii(self) -> np.ndarray:
        """Sorted unique pairwise distances — the radius-search candidates.

        Equal, bit for bit, to ``np.unique(D[np.triu_indices(m, 1)])`` but
        without the two int64 index arrays or a second copy: the strict
        upper triangle is copied row by row into one array and sorted in
        place, and each value unequal to its predecessor is moved forward
        over the duplicates, ``_COMPACT_BLOCK`` entries at a time. The
        result is a view of the front of that array. Before compacting,
        it counts the selection graph's bound off the sorted distances.
        """
        m = self._pairwise.shape[0]
        upper = np.empty(m * (m - 1) // 2, dtype=np.float64)
        start = 0
        for row in range(m - 1):
            stop = start + m - 1 - row
            upper[start:stop] = self._pairwise[row, row + 1 :]
            start = stop
        upper.sort()
        # NaN sorts last; the diagonal is zero.
        self._largest = float(upper[-1]) if upper.size else 0.0
        if self._graph_allowed:
            self._graph_bound, self._graph_size = _counted_bound(upper, m)
        write = 0
        distinct = np.empty(min(_COMPACT_BLOCK, upper.shape[0]), dtype=bool)
        for start in range(0, upper.shape[0], _COMPACT_BLOCK):
            block = upper[start : start + _COMPACT_BLOCK]
            keep = distinct[: block.shape[0]]
            # ``upper[start - 1]`` still holds its sorted value: the writes so
            # far end at or below it, and reach it only if nothing was dropped.
            keep[0] = start == 0 or block[0] != upper[start - 1]
            np.not_equal(block[1:], block[:-1], out=keep[1:])
            kept = block[keep]
            upper[write : write + kept.shape[0]] = kept
            write += kept.shape[0]
        return upper[:write]

    # -- the algorithm -----------------------------------------------------------------

    def run(self, radius: float) -> OutliersClusterResult:
        """Execute OUTLIERSCLUSTER with the radius guess ``radius``.

        Follows Algorithm 1 literally: selection balls of radius
        ``(1 + 2*eps_hat) * radius``, coverage balls of radius
        ``(3 + 4*eps_hat) * radius``, stop when ``k`` centers are chosen or
        nothing is left uncovered.

        A radius at or above every distance has a closed form under the
        graph's weight condition: every selection ball holds all the
        weight, summed exactly, so the balls tie and ``argmax`` picks row 0,
        whose coverage ball holds every point (no distance is NaN). The
        probe then returns that result without a pass over ``D``.
        """
        if not radius >= 0:  # also rejects NaN
            raise InvalidParameterError(f"radius must be non-negative; got {radius!r}")
        n = len(self._coreset)
        if self._graph_allowed and radius >= self._largest:
            return OutliersClusterResult(
                center_indices=np.zeros(1, dtype=np.intp),
                uncovered_mask=np.zeros(n, dtype=bool),
                uncovered_weight=0.0,
                radius=float(radius),
            )
        selection_radius = (1.0 + 2.0 * self._eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * self._eps_hat) * radius

        pairwise = self._pairwise
        uncovered = np.ones(n, dtype=bool)
        remaining = n
        # ball_weights[j] is the uncovered weight inside the selection ball
        # of point j. It is built once per probe and then maintained
        # incrementally, so no (n, n) temporary exists. The sums stay in
        # float64: the proxy weights are integer counts up to the input
        # size, exact in float64 below 2**53.
        balls, ball_weights = self._selection_balls(selection_radius)
        centers: list[int] = []

        while remaining and len(centers) < self._k:
            center = int(np.argmax(ball_weights))
            centers.append(center)
            newly_covered = np.flatnonzero(uncovered & (pairwise[center] <= coverage_radius))
            uncovered[newly_covered] = False
            remaining -= newly_covered.size
            if not remaining or len(centers) == self._k:
                break
            # Subtract what the newly covered points contributed or rebuild
            # from the uncovered points, whichever reads fewer rows.
            if remaining < newly_covered.size:
                ball_weights = balls.weights_of(np.flatnonzero(uncovered))
            else:
                ball_weights -= balls.weights_of(newly_covered)

        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._weights[uncovered].sum()),
            radius=float(radius),
        )

    def _selection_balls(
        self, selection_radius: float
    ) -> tuple[_DenseBalls | _GraphBalls, np.ndarray]:
        """The balls one probe reads, and the weight inside each of them.

        The first probe at or below the counted bound builds the graph at
        that bound; it and every later such probe read the graph. Any other
        probe thresholds ``D`` in row blocks: only its upper triangle under
        the graph's weight condition, whole rows for any other weights.
        """
        pairwise, weights = self._pairwise, self._weights
        if self._graph is None and selection_radius <= self._graph_bound:
            self._graph = _build_graph(pairwise, self._graph_bound, self._graph_size)
        graph = self._graph
        if graph is not None and selection_radius <= graph.bound:
            balls = _GraphBalls(graph, selection_radius, weights)
            return balls, balls.weights_of_all()

        n = pairwise.shape[0]
        buffer = np.empty((min(_BLOCK_ROWS, n), n), dtype=np.float64)
        if self._graph_allowed:
            ball_weights = _upper_triangle_weights(pairwise, weights, selection_radius, buffer)
        else:
            ball_weights = np.empty(n, dtype=np.float64)
            for start in range(0, n, _BLOCK_ROWS):
                block = buffer[: min(_BLOCK_ROWS, n - start)]
                np.less_equal(pairwise[start : start + _BLOCK_ROWS], selection_radius, out=block)
                np.matmul(block, weights, out=ball_weights[start : start + _BLOCK_ROWS])
        return _DenseBalls(pairwise, weights, selection_radius, buffer), ball_weights

    def uncovered_weight(self, radius: float) -> float:
        """Total uncovered weight after a run with radius ``radius``."""
        return self.run(radius).uncovered_weight


@dataclass(frozen=True)
class _SelectionGraph:
    """The entries ``D[row, col] <= bound`` of the pairwise matrix, row-major."""

    bound: float
    rows: np.ndarray  # int32
    cols: np.ndarray  # int32
    distances: np.ndarray  # float64


def _counted_bound(upper: np.ndarray, m: int) -> tuple[float, int]:
    """The graph's bound and entry count, read off the sorted distances.

    ``upper`` is the sorted strict upper triangle of ``D``. ``D`` is exactly
    symmetric with a zero diagonal, so ``m + 2 * searchsorted(upper, v,
    "right")`` of its entries are at most ``v``. The bound is the largest
    distinct distance whose count fits under ``m * m // _GRAPH_FILL``, or
    ``-inf`` (no graph) when none does, as always when ``m < _GRAPH_FILL``.
    """
    # NaN distances sort last and lie in no ball, so they never count.
    fits = min((m * m // _GRAPH_FILL - m) // 2, int(np.searchsorted(upper, np.nan)))
    if 0 < fits < upper.size and upper[fits] == upper[fits - 1]:
        # A run of ties crosses the cap: step down to the previous distinct value.
        fits = int(np.searchsorted(upper, upper[fits], "left"))
    if fits <= 0:
        return -np.inf, 0
    return float(upper[fits - 1]), m + 2 * fits


def _build_graph(pairwise: np.ndarray, bound: float, size: int) -> _SelectionGraph:
    """The entries ``D <= bound``, row-major, in one pass into arrays of ``size``.

    From ``_SPLIT_MIN_ROWS`` rows up with two or more BLAS threads, the
    calling thread fills the first half of the row blocks from the front
    of the arrays and a helper thread the second half from the back,
    block by block downwards. ``size`` is the exact count, so the two
    meet with the entries still in row-major order.
    """
    n = pairwise.shape[0]
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    distances = np.empty(size, dtype=np.float64)
    starts = np.arange(0, n, _BLOCK_ROWS)

    def fill(first: int, last: int, backward: bool) -> None:
        inside = np.empty((min(_BLOCK_ROWS, n), n), dtype=bool)
        position = size if backward else 0
        for start in (starts[first:last][::-1] if backward else starts[first:last]).tolist():
            block = pairwise[start : start + _BLOCK_ROWS]
            mask = inside[: block.shape[0]]
            np.less_equal(block, bound, out=mask)
            # flatnonzero on the 1-byte mask is several times faster than a
            # two-dimensional nonzero or any scan of the float64 block.
            flat = np.flatnonzero(mask)
            begin = position - flat.size if backward else position
            stop = begin + flat.size
            position = begin if backward else stop
            block_rows = flat // n
            np.subtract(flat, block_rows * n, out=cols[begin:stop], casting="unsafe")
            np.add(block_rows, start, out=rows[begin:stop], casting="unsafe")
            np.take(block, flat, out=distances[begin:stop], mode="clip")

    heights = np.minimum(starts + _BLOCK_ROWS, n) - starts
    parts = _split(heights, min(2, _pass_threads(n)))
    _in_threads(fill, [(first, last, index > 0) for index, (first, last) in enumerate(parts)])
    return _SelectionGraph(bound, rows, cols, distances)


def _upper_triangle_weights(
    pairwise: np.ndarray, weights: np.ndarray, selection_radius: float, buffer: np.ndarray
) -> np.ndarray:
    """The dense pass's ball weights, reading each pair of ``D`` once.

    Row block ``s:e`` thresholds ``D[s:e, s:]`` into ``buffer``: the block
    times ``w[s:]`` adds to rows ``s:e``, and, ``D`` being symmetric,
    ``w[s:e]`` times the block's columns from ``e`` on adds to the rows from
    ``e`` on. With integer weights summing below ``2**53`` every partial
    sum is exact in any order, so the result equals the full-row pass bit
    for bit. From ``_SPLIT_MIN_ROWS`` rows up the blocks are cut into one
    run of about equal area per BLAS thread; each helper thread has its
    own block buffer and its own partial weights, and the partials are
    summed, exactly too.
    """
    n = pairwise.shape[0]
    starts = np.arange(0, n, _TRIANGLE_ROWS)

    def weigh(first: int, last: int, flat: np.ndarray) -> np.ndarray:
        ball_weights = np.zeros(n, dtype=np.float64)
        for start in starts[first:last].tolist():
            stop = min(start + _TRIANGLE_ROWS, n)
            block = flat[: (stop - start) * (n - start)].reshape(stop - start, n - start)
            np.less_equal(pairwise[start:stop, start:], selection_radius, out=block)
            ball_weights[start:stop] += block @ weights[start:]
            ball_weights[stop:] += weights[start:stop] @ block[:, stop - start :]
        return ball_weights

    # A block reads its rows from its first row's diagonal on.
    areas = (np.minimum(starts + _TRIANGLE_ROWS, n) - starts) * (n - starts)
    parts = _split(areas, _pass_threads(n))
    flats = [buffer.reshape(-1)] + [np.empty(_TRIANGLE_ROWS * n) for _ in parts[1:]]
    partials = _in_threads(weigh, [(*part, flat) for part, flat in zip(parts, flats)])
    ball_weights = partials[0]
    for partial in partials[1:]:
        ball_weights += partial
    return ball_weights


def _pass_threads(n: int) -> int:
    """Threads a pass over ``n`` rows splits its blocks over: the BLAS count from
    ``_SPLIT_MIN_ROWS`` rows up, 1 below it or when the count cannot be read."""
    return (blas_threads() or 1) if n >= _SPLIT_MIN_ROWS else 1


def _split(costs: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Cut the blocks of ``costs`` into at most ``parts`` runs of about equal cost.

    A run ends before the block whose middle reaches its share, so for
    ``parts >= 2`` two or more blocks always give two or more runs.
    Returns the non-empty runs as ``(first, last)`` block ranges, in order.
    """
    total = np.cumsum(costs)
    middles = total - costs / 2
    cuts = np.searchsorted(middles, total[-1] * np.arange(1, parts) / parts).tolist()
    bounds = [0, *cuts, len(costs)]
    return [(first, last) for first, last in zip(bounds, bounds[1:]) if first < last]


def _in_threads(task, arguments: list[tuple]) -> list:
    """``[task(*args) for args in arguments]``, one thread per entry.

    The first entry runs in the calling thread, each other in a helper
    thread that ends with the call. An error in any call reaches the
    caller, after every helper has ended.
    """
    if len(arguments) == 1:
        return [task(*arguments[0])]
    with ThreadPoolExecutor(len(arguments) - 1) as pool:
        futures = [pool.submit(task, *args) for args in arguments[1:]]
        first = task(*arguments[0])
        return [first] + [future.result() for future in futures]


class _DenseBalls:
    """Selection balls read from gathered row blocks of ``D``."""

    def __init__(
        self,
        pairwise: np.ndarray,
        weights: np.ndarray,
        selection_radius: float,
        buffer: np.ndarray,
    ) -> None:
        self._pairwise = pairwise
        self._weights = weights
        self._selection_radius = selection_radius
        self._buffer = buffer

    def weights_of(self, rows: np.ndarray) -> np.ndarray:
        """Weight of the points ``rows`` inside each point's selection ball.

        Entry ``j`` is ``sum(w[i] for i in rows if D[i, j] <= selection_radius)``.
        It reads the rows of ``D`` rather than its columns, which is the
        same thing because ``D`` is symmetric, and gathers them block by
        block into the buffer.
        """
        total = np.zeros(self._pairwise.shape[0], dtype=np.float64)
        for start in range(0, rows.size, _BLOCK_ROWS):
            block_rows = rows[start : start + _BLOCK_ROWS]
            block = self._buffer[: block_rows.size]
            # mode="clip" writes straight into ``block``; mode="raise"
            # would buffer a copy. The indices are in range either way.
            np.take(self._pairwise, block_rows, axis=0, out=block, mode="clip")
            np.less_equal(block, self._selection_radius, out=block)
            total += self._weights[block_rows] @ block
        return total


class _GraphBalls:
    """Selection balls read from the selection graph, filtered once per probe."""

    def __init__(
        self, graph: _SelectionGraph, selection_radius: float, weights: np.ndarray
    ) -> None:
        rows, cols = graph.rows, graph.cols
        if selection_radius < graph.bound:
            keep = np.flatnonzero(graph.distances <= selection_radius)
            rows, cols = rows[keep], cols[keep]
        self._rows, self._cols = rows, cols
        self._weights = weights
        # The filtered entries stay row-major: row i's are at
        # [starts[i], starts[i] + sizes[i]).
        self._sizes = np.bincount(rows, minlength=weights.size)
        self._starts = np.cumsum(self._sizes) - self._sizes

    def weights_of_all(self) -> np.ndarray:
        """Weight of all points inside each point's selection ball."""
        return np.bincount(
            self._rows, weights=self._weights[self._cols], minlength=self._weights.size
        )

    def weights_of(self, rows: np.ndarray) -> np.ndarray:
        """Weight of the points ``rows`` inside each point's selection ball.

        The same sums as :meth:`_DenseBalls.weights_of`, read from the
        graph entries of ``rows``.
        """
        sizes = self._sizes[rows]
        ends = np.cumsum(sizes)
        entries = np.arange(int(sizes.sum())) + np.repeat(self._starts[rows] - ends + sizes, sizes)
        return np.bincount(
            self._cols[entries],
            weights=np.repeat(self._weights[rows], sizes),
            minlength=self._weights.size,
        )


def outliers_cluster(
    coreset: WeightedPoints,
    k: int,
    radius: float,
    eps_hat: float = 0.0,
    metric: str | Metric = "euclidean",
) -> OutliersClusterResult:
    """One-shot OUTLIERSCLUSTER run (convenience wrapper around the solver)."""
    solver = OutliersClusterSolver(coreset, k, eps_hat=eps_hat, metric=metric)
    return solver.run(radius)
