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
of ``T`` once (``8 * m**2`` bytes for ``m = |T|``, one ``(m, m)``
float64 matrix) so that the radius search of
:mod:`repro.core.radius_search` can probe many radii cheaply. A probe
reads that matrix by contiguous or gathered rows through a fixed
``(_BLOCK_ROWS, m)`` float64 buffer, so on top of the cached matrix it
holds only ``O(_BLOCK_ROWS * m)`` bytes, never another ``(m, m)`` array.
:meth:`OutliersClusterSolver.candidate_radii` holds the ``m * (m - 1) / 2``
upper-triangle distances once, sorted in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints

__all__ = ["OutliersClusterResult", "OutliersClusterSolver", "outliers_cluster"]

# Rows of the pairwise matrix thresholded at once by a probe; the probe
# buffer holds ``_BLOCK_ROWS * m`` float64 values.
_BLOCK_ROWS = 256


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
        if eps_hat < 0:
            raise InvalidParameterError("eps_hat must be non-negative")
        self._eps_hat = float(eps_hat)
        self._metric = get_metric(metric)
        self._pairwise = self._metric.pairwise(coreset.points)
        self._weights = coreset.weights

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
        without the two int64 index arrays: the strict upper triangle is
        copied row by row into one array, sorted in place and deduplicated
        with a neighbour mask.
        """
        m = self._pairwise.shape[0]
        upper = np.empty(m * (m - 1) // 2, dtype=np.float64)
        start = 0
        for row in range(m - 1):
            stop = start + m - 1 - row
            upper[start:stop] = self._pairwise[row, row + 1 :]
            start = stop
        upper.sort()
        distinct = np.empty(upper.shape, dtype=bool)
        distinct[:1] = True
        np.not_equal(upper[1:], upper[:-1], out=distinct[1:])
        return upper[distinct]

    # -- the algorithm -----------------------------------------------------------------

    def run(self, radius: float) -> OutliersClusterResult:
        """Execute OUTLIERSCLUSTER with the radius guess ``radius``.

        Follows Algorithm 1 literally: selection balls of radius
        ``(1 + 2*eps_hat) * radius``, coverage balls of radius
        ``(3 + 4*eps_hat) * radius``, stop when ``k`` centers are chosen or
        nothing is left uncovered.
        """
        if radius < 0:
            raise InvalidParameterError("radius must be non-negative")
        selection_radius = (1.0 + 2.0 * self._eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * self._eps_hat) * radius

        n = len(self._coreset)
        pairwise, weights = self._pairwise, self._weights
        uncovered = np.ones(n, dtype=bool)
        remaining = n
        # ball_weights[j] is the uncovered weight inside the selection ball
        # of point j. It is built from the cached matrix in row blocks and
        # then maintained incrementally, so no (n, n) temporary exists. The
        # sums stay in float64: the proxy weights are integer counts up to
        # the input size, exact in float64 below 2**53.
        buffer = np.empty((min(_BLOCK_ROWS, n), n), dtype=np.float64)
        ball_weights = np.empty(n, dtype=np.float64)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            block = buffer[: stop - start]
            np.less_equal(pairwise[start:stop], selection_radius, out=block)
            np.matmul(block, weights, out=ball_weights[start:stop])
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
            # from the uncovered points, whichever reads fewer rows of D.
            if remaining < newly_covered.size:
                uncovered_rows = np.flatnonzero(uncovered)
                ball_weights = self._ball_weights_of(uncovered_rows, selection_radius, buffer)
            else:
                ball_weights -= self._ball_weights_of(newly_covered, selection_radius, buffer)

        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._weights[uncovered].sum()),
            radius=float(radius),
        )

    def _ball_weights_of(
        self, rows: np.ndarray, selection_radius: float, buffer: np.ndarray
    ) -> np.ndarray:
        """Weight of the points ``rows`` inside each point's selection ball.

        Entry ``j`` is ``sum(w[i] for i in rows if D[i, j] <= selection_radius)``.
        It reads the rows of ``D`` rather than its columns, which is the
        same thing because ``D`` is symmetric, and gathers them block by
        block into ``buffer``.
        """
        total = np.zeros(self._pairwise.shape[0], dtype=np.float64)
        for start in range(0, rows.size, _BLOCK_ROWS):
            block_rows = rows[start : start + _BLOCK_ROWS]
            block = buffer[: block_rows.size]
            # mode="clip" writes straight into ``block``; mode="raise"
            # would buffer a copy. The indices are in range either way.
            np.take(self._pairwise, block_rows, axis=0, out=block, mode="clip")
            np.less_equal(block, selection_radius, out=block)
            total += self._weights[block_rows] @ block
        return total

    def uncovered_weight(self, radius: float) -> float:
        """Total uncovered weight after a run with radius ``radius``."""
        return self.run(radius).uncovered_weight


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
