"""Weighted doubling-algorithm coreset for the Streaming setting (Section 4).

The 1-pass Streaming algorithm cannot use GMM (no efficient streaming
implementation exists), so the paper adapts the *doubling algorithm* of
Charikar et al. [15] to maintain a weighted coreset ``T`` of at most
``tau`` centers together with a lower bound ``phi`` on the optimal
``tau``-center radius. The data structure maintains the paper's
invariants:

(a) ``|T| <= tau``;
(b) any two centers are more than ``4 * phi`` apart;
(c) every processed point is within ``8 * phi`` of its proxy center;
(d) each center's weight is the number of points it is proxy for;
(e) ``phi <= r*_tau(S)``.

Processing a point applies the *update rule* (assign to the closest
center if within ``8 * phi``, else open a new center) and, when the
center budget overflows, the *merge rule* (double ``phi`` and merge
centers closer than ``4 * phi``) until invariant (a) is restored.

The batched form of the update rule is :meth:`_CenterSet.sweep`, the one
sweep every streaming solver of the package runs: one blocked
nearest-center computation over a chunk, the maximal prefix within the
threshold folded into the weights in bulk (:func:`numpy.bincount`), the
first row past it opened as a center, and only the distances to that new
center computed for the rest, until the chunk is exhausted or the set
grows past the caller's limit. The caller then runs its own overflow
rule and sweeps the rest afresh. :meth:`StreamingCoreset.process_batch`
sweeps with threshold ``8 * phi`` and limit ``tau``, and its overflow rule
is the merge rule. The 2-pass outlier variant
(:class:`~repro.core.stream_outliers.TwoPassStreamOutliers`) and BASESTREAM
(:mod:`repro.baselines.mccutchen`) run the same sweep with their own
thresholds and limits; BASEOUTLIERS keeps its centers in a
:class:`_CenterSet` but never sweeps. The outcome is the one the rules
give point by point, in stream order, whatever the chunking;
:meth:`StreamingCoreset.process` feeds a single point as a one-row chunk.

:class:`StreamingCoreset` is used by the streaming k-center algorithm
(with ``tau = mu * k``), the streaming outlier algorithm (with
``tau = mu * (k + z)`` or the theoretical ``(k+z)(16/eps)^D``), and the
8-approximation baseline of [15] (with ``tau = k``).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_batch, check_positive_int
from ..exceptions import NotFittedError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints

__all__ = ["StreamingCoreset"]


class _CenterSet:
    """Weighted centers of one streaming solver, in storage that doubles when full.

    Rows ``[0, len)`` of :attr:`points` and :attr:`weights` are the live
    centers; :meth:`add` appends with weight 1 and :meth:`keep` compacts.
    :attr:`peak` is the largest count ever held.
    """

    def __init__(self, metric: Metric) -> None:
        self.metric = metric
        self._points = np.empty((0, 0))
        self._weights = np.empty(0)
        self._size = 0
        self.peak = 0

    def __len__(self) -> int:
        return self._size

    @property
    def points(self) -> np.ndarray:
        """View of the live centers' coordinates."""
        return self._points[: self._size]

    @property
    def weights(self) -> np.ndarray:
        """View of the live centers' weights."""
        return self._weights[: self._size]

    def add(self, rows: np.ndarray) -> None:
        """Append one point or a block of points, each with weight 1."""
        rows = np.atleast_2d(rows)
        end = self._size + rows.shape[0]
        if end > len(self._weights):
            capacity = max(end, 2 * len(self._weights))
            points = np.empty((capacity, rows.shape[1]))
            weights = np.empty(capacity)
            if self._size:
                points[: self._size] = self.points
                weights[: self._size] = self.weights
            self._points, self._weights = points, weights
        self._points[self._size : end] = rows
        self._weights[self._size : end] = 1.0
        self._size = end
        self.peak = max(self.peak, end)

    def keep(self, indices: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Keep only the centers at ``indices``, in that order, optionally reweighted."""
        size = len(indices)
        self._points[:size] = self._points[indices]
        self._weights[:size] = self._weights[indices] if weights is None else weights
        self._size = size

    def sweep(self, tail: np.ndarray, threshold: float, limit: float) -> int:
        """The update rule over the rows of ``tail``; returns how many it consumed.

        A row within ``threshold`` of its closest center adds one to that
        center's weight; any other row opens a center at itself. One
        blocked nearest-center pass serves the whole sweep: after a center
        opens, only the distances to it are computed. The sweep stops right
        after the row that takes the set past ``limit`` centers, so the
        caller can run its overflow rule, or at the end of ``tail``. An
        empty set opens its first center at the first row.
        """
        if not self._size:
            self.add(tail[0])
            if self._size > limit or tail.shape[0] == 1:
                return 1
            return 1 + self.sweep(tail[1:], threshold, limit)
        dmin, amin = self.metric.nearest(tail, self.points)
        pos = 0
        m = tail.shape[0]
        while True:
            residual = np.flatnonzero(dmin[pos:] > threshold)
            first = m if residual.size == 0 else pos + int(residual[0])
            if first > pos:
                self._weights[: self._size] += np.bincount(
                    amin[pos:first], minlength=self._size
                )
            if first == m:
                return m
            self.add(tail[first])
            pos = first + 1
            if self._size > limit or pos == m:
                return pos
            # The new center may now be the closest for later rows; a strict
            # comparison keeps the sequential tie-break (the lowest center
            # index wins on exact ties).
            to_new = self.metric.cdist(tail[pos:], tail[first : first + 1])[:, 0]
            closer = to_new < dmin[pos:]
            dmin[pos:][closer] = to_new[closer]
            amin[pos:][closer] = self._size - 1


class StreamingCoreset:
    """Maintain a weighted coreset of at most ``tau`` centers over a stream.

    Parameters
    ----------
    tau:
        Maximum number of coreset centers kept in memory.
    metric:
        Metric name or instance.

    Notes
    -----
    The first ``tau + 1`` points are buffered verbatim (this is the
    initialisation phase of the doubling algorithm); afterwards the
    working memory never exceeds ``tau + 1`` stored points, independent of
    the stream length — the property Corollary 4 relies on.
    """

    def __init__(self, tau: int, metric: str | Metric = "euclidean") -> None:
        self._tau = check_positive_int(tau, name="tau")
        self._metric = get_metric(metric)
        self._buffer: list[np.ndarray] = []
        self._centers: _CenterSet | None = None
        self._phi = 0.0
        self._dimension: int | None = None
        self._n_processed = 0

    # -- read-only state ----------------------------------------------------------------

    @property
    def tau(self) -> int:
        """The center budget."""
        return self._tau

    @property
    def phi(self) -> float:
        """The current lower bound on the optimal ``tau``-center radius."""
        return self._phi

    @property
    def dimension(self) -> int | None:
        """Coordinates per point, fixed by the first point (``None`` before)."""
        return self._dimension

    @property
    def n_processed(self) -> int:
        """Number of stream points processed so far."""
        return self._n_processed

    @property
    def is_initialized(self) -> bool:
        """Whether the initialisation buffer has been promoted to centers."""
        return self._centers is not None

    @property
    def size(self) -> int:
        """Current number of centers (0 while still buffering)."""
        return 0 if self._centers is None else len(self._centers)

    @property
    def working_memory_size(self) -> int:
        """Stored points: buffered points plus retained centers."""
        return len(self._buffer) + self.size

    @property
    def peak_working_memory_size(self) -> int:
        """Largest working-memory size ever reached (at most ``tau + 1``).

        Tracked at every point of growth (the buffer only grows, and the
        centers record their own peak), so it is exact no matter how
        coarsely the harness samples, and the same at every batch size.
        """
        if self._centers is None:
            return len(self._buffer)
        return self._centers.peak

    @property
    def centers(self) -> np.ndarray:
        """Coordinates of the current centers (also valid during buffering).

        Returned as a read-only view into the coreset's storage (no copy);
        the contents reflect the state at access time and are invalidated
        by further :meth:`process_batch` calls. Use
        :meth:`coreset` for a stable snapshot.
        """
        if self._centers is None:
            if not self._buffer:
                return np.empty((0, 0))
            view = np.vstack(self._buffer)
        else:
            view = self._centers.points
        view.flags.writeable = False
        return view

    @property
    def weights(self) -> np.ndarray:
        """Weights (proxy counts) of the current centers.

        Read-only view semantics, exactly as :attr:`centers`.
        """
        if self._centers is None:
            view = np.ones(len(self._buffer))
        else:
            view = self._centers.weights
        view.flags.writeable = False
        return view

    # -- internal helpers -----------------------------------------------------------------

    def _active_pairwise(self) -> np.ndarray:
        return self._metric.pairwise(self._centers.points)

    @staticmethod
    def _min_positive_pairwise(pairs: np.ndarray) -> float:
        # The matrix is symmetric with a zero diagonal, so its least positive
        # entry is the upper triangle's, found without gathering the triangle.
        positive = pairs > 0
        if not positive.any():
            return 0.0
        return float(np.min(pairs, where=positive, initial=np.inf))

    def _merge_centers(self, pairs: np.ndarray) -> None:
        """Enforce invariant (b): merge centers at distance <= 4 * phi.

        ``pairs`` is the pairwise matrix of the current centers. A greedy
        sweep keeps the first center of every violating pair and folds the
        discarded center's weight into the survivor closest to it, which
        conceptually re-targets the proxy function as in the paper.
        """
        size = len(self._centers)
        if size <= 1:
            return
        threshold = 4.0 * self._phi
        keep: list[int] = []
        merged_weights = np.array(self._centers.weights)
        discarded = np.zeros(size, dtype=bool)
        for index in range(size):
            if discarded[index]:
                continue
            keep.append(index)
            # Fold every not-yet-discarded later center within threshold into
            # this survivor.
            close = np.flatnonzero(
                (pairs[index] <= threshold) & ~discarded & (np.arange(size) > index)
            )
            if close.size:
                merged_weights[index] += merged_weights[close].sum()
                discarded[close] = True
        if len(keep) == size:
            return
        kept_indices = np.array(keep, dtype=np.intp)
        self._centers.keep(kept_indices, merged_weights[kept_indices])

    def _apply_merge_rule(self, pairs: np.ndarray | None = None) -> None:
        """Double ``phi`` (handling the degenerate 0 case) and merge centers.

        ``pairs`` is the pairwise matrix of the current centers when the
        caller already holds it; otherwise it is built here, once.
        """
        if pairs is None:
            pairs = self._active_pairwise()
        if self._phi <= 0.0:
            minimum = self._min_positive_pairwise(pairs)
            if minimum == 0.0:
                # All centers coincide: collapse them into one.
                total = float(self._centers.weights.sum())
                self._centers.keep(np.zeros(1, dtype=np.intp), total)
                return
            self._phi = minimum / 2.0
        else:
            self._phi *= 2.0
        self._merge_centers(pairs)

    def _initialize_from_buffer(self) -> None:
        self._centers = _CenterSet(self._metric)
        self._centers.add(np.vstack(self._buffer))
        self._buffer = []

        # phi starts at half the minimum pairwise distance; exact duplicates
        # are merged first so the minimum is taken over distinct points.
        # Either branch re-establishes invariant (a) on this one matrix.
        pairs = self._active_pairwise()
        self._phi = self._min_positive_pairwise(pairs) / 2.0
        if self._phi > 0.0:
            # The closest pair lies within 4 * phi, so at least one of the
            # tau + 1 centers merges away.
            self._merge_centers(pairs)
        else:
            # All tau + 1 buffered points coincide: the rule collapses them.
            self._apply_merge_rule(pairs)

    # -- public protocol ---------------------------------------------------------------------

    def process(self, point) -> None:
        """Feed one stream point into the coreset (a one-row chunk)."""
        self.process_batch(np.asarray(point, dtype=np.float64).reshape(1, -1))

    def process_batch(self, points) -> None:
        """Feed a chunk of consecutive stream points into the coreset.

        Leaves the coreset exactly as the rules applied to every row in
        order would: :meth:`_CenterSet.sweep` with threshold ``8 * phi`` up
        to the row that overflows the budget, the merge rule, and a fresh
        sweep over the rest.
        """
        batch = check_batch(points, self._dimension)
        if batch.shape[0] == 0:
            return
        self._dimension = int(batch.shape[1])

        position = 0
        n = batch.shape[0]
        while position < n:
            if self._centers is None:
                # Initialisation phase: fill the buffer from the chunk.
                need = self._tau + 1 - len(self._buffer)
                taken = batch[position : position + need]
                self._buffer.extend(np.array(row) for row in taken)
                position += taken.shape[0]
                if len(self._buffer) == self._tau + 1:
                    self._initialize_from_buffer()
                continue
            position += self._centers.sweep(batch[position:], 8.0 * self._phi, self._tau)
            while len(self._centers) > self._tau:
                self._apply_merge_rule()
        self._n_processed += n

    def coreset(self) -> WeightedPoints:
        """The current weighted coreset as :class:`WeightedPoints`.

        Works both after initialisation (returning the maintained centers)
        and during the buffering phase (returning the buffered points with
        unit weights), so short streams are handled gracefully.
        """
        if self._n_processed == 0:
            raise NotFittedError("no points have been processed yet")
        if self._centers is None:
            points = np.vstack(self._buffer)
            return WeightedPoints(points=points, weights=np.ones(points.shape[0]))
        return WeightedPoints(
            points=np.array(self._centers.points),
            weights=np.array(self._centers.weights),
        )
