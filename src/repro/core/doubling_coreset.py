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

:meth:`StreamingCoreset.process_batch` is the only entry point: it
applies these rules to a chunk of consecutive points with one blocked
nearest-neighbour computation per sweep. The maximal prefix of the chunk
that lands within ``8 * phi`` of an existing center is folded into the
weights in bulk (:func:`numpy.bincount`), the first residual point opens
a new center, and the sweep continues incrementally (only distances to
the new center are computed) until the budget overflows, when the merge
rule runs and the remaining tail is reswept. The outcome is the one the
rules give point by point, in stream order, whatever the chunking;
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
        self._centers: np.ndarray | None = None  # (tau + 1, d) storage
        self._weights: np.ndarray | None = None
        self._size = 0
        self._phi = 0.0
        self._dimension: int | None = None
        self._n_processed = 0
        self._peak_memory = 0

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
        return self._size

    @property
    def working_memory_size(self) -> int:
        """Stored points: buffered points plus retained centers."""
        return len(self._buffer) + self._size

    @property
    def peak_working_memory_size(self) -> int:
        """Largest working-memory size ever reached (at most ``tau + 1``).

        Tracked internally at every point of growth, so it is exact no
        matter how coarsely the harness samples, and the same at every
        batch size.
        """
        return max(self._peak_memory, self.working_memory_size)

    def _note_memory(self) -> None:
        self._peak_memory = max(self._peak_memory, len(self._buffer) + self._size)

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
            view = self._centers[: self._size]
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
            view = self._weights[: self._size]
        view.flags.writeable = False
        return view

    # -- internal helpers -----------------------------------------------------------------

    def _append_center(self, point: np.ndarray, weight: float) -> None:
        self._centers[self._size] = point
        self._weights[self._size] = weight
        self._size += 1
        self._note_memory()

    def _active_pairwise(self) -> np.ndarray:
        return self._metric.pairwise(self._centers[: self._size])

    def _min_positive_pairwise(self) -> float:
        pairs = self._active_pairwise()
        upper = pairs[np.triu_indices(self._size, k=1)]
        positive = upper[upper > 0]
        return float(positive.min()) if positive.size else 0.0

    def _merge_centers(self) -> None:
        """Enforce invariant (b): merge centers at distance <= 4 * phi.

        A greedy sweep keeps the first center of every violating pair and
        folds the discarded center's weight into the survivor closest to it,
        which conceptually re-targets the proxy function as in the paper.
        """
        if self._size <= 1:
            return
        pairs = self._active_pairwise()
        threshold = 4.0 * self._phi
        keep: list[int] = []
        merged_weights = np.array(self._weights[: self._size])
        discarded = np.zeros(self._size, dtype=bool)
        for index in range(self._size):
            if discarded[index]:
                continue
            keep.append(index)
            # Fold every not-yet-discarded later center within threshold into
            # this survivor.
            close = np.flatnonzero(
                (pairs[index] <= threshold) & ~discarded & (np.arange(self._size) > index)
            )
            if close.size:
                merged_weights[index] += merged_weights[close].sum()
                discarded[close] = True
        if len(keep) == self._size:
            return
        kept_indices = np.array(keep, dtype=np.intp)
        new_size = kept_indices.shape[0]
        self._centers[:new_size] = self._centers[kept_indices]
        self._weights[:new_size] = merged_weights[kept_indices]
        self._size = new_size

    def _apply_merge_rule(self) -> None:
        """Double ``phi`` (handling the degenerate 0 case) and merge centers."""
        if self._phi <= 0.0:
            minimum = self._min_positive_pairwise()
            if minimum == 0.0:
                # All centers coincide: collapse them into one.
                total = float(self._weights[: self._size].sum())
                self._weights[0] = total
                self._size = 1 if self._size else 0
                return
            self._phi = minimum / 2.0
        else:
            self._phi *= 2.0
        self._merge_centers()

    def _initialize_from_buffer(self) -> None:
        points = np.vstack(self._buffer)
        self._dimension = points.shape[1]
        # A center is only appended while at most tau are held, so tau + 1
        # rows always suffice.
        self._centers = np.zeros((self._tau + 1, self._dimension))
        self._weights = np.zeros(self._tau + 1)
        self._centers[: points.shape[0]] = points
        self._weights[: points.shape[0]] = 1.0
        self._size = points.shape[0]
        self._buffer = []

        # phi starts at half the minimum pairwise distance; exact duplicates
        # are merged first so the minimum is taken over distinct points.
        self._phi = self._min_positive_pairwise() / 2.0
        if self._phi > 0.0:
            self._merge_centers()
        # Re-establish invariant (a) before processing further points.
        while self._size > self._tau:
            self._apply_merge_rule()

    # -- public protocol ---------------------------------------------------------------------

    def process(self, point) -> None:
        """Feed one stream point into the coreset (a one-row chunk)."""
        self.process_batch(np.asarray(point, dtype=np.float64).reshape(1, -1))

    def process_batch(self, points) -> None:
        """Feed a chunk of consecutive stream points into the coreset.

        Leaves the coreset exactly as the rules applied to every row in
        order would: one blocked nearest-center computation per sweep, bulk
        weight accumulation for in-radius points, an incremental sweep over
        the points that open new centers, and the merge rule on overflow.
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
                self._note_memory()
                if len(self._buffer) == self._tau + 1:
                    self._initialize_from_buffer()
                continue
            position = self._sweep_batch(batch, position)
        self._n_processed += n

    def _sweep_batch(self, batch: np.ndarray, start: int) -> int:
        """One vectorised sweep of the update rule over ``batch[start:]``.

        Processes points until the chunk is exhausted or a merge rule
        invalidates the cached nearest-center distances; returns the index
        of the first unprocessed point.
        """
        tail = batch[start:]
        dmin, amin = self._metric.nearest(tail, self._centers[: self._size])
        pos = 0
        m = tail.shape[0]
        while pos < m:
            residual = np.flatnonzero(dmin[pos:] > 8.0 * self._phi)
            if residual.size == 0:
                # Update rule in bulk: every remaining point is within
                # 8 * phi of its closest center.
                self._accumulate_weights(amin[pos:])
                return start + m
            first = pos + int(residual[0])
            if first > pos:
                self._accumulate_weights(amin[pos:first])
            self._append_center(tail[first], 1.0)
            new_index = self._size - 1
            pos = first + 1
            if self._size > self._tau:
                while self._size > self._tau:
                    self._apply_merge_rule()
                # phi and the center set changed: the cached distances are
                # stale, so hand the rest of the chunk to a fresh sweep.
                return start + pos
            if pos < m:
                # The new center may now be the closest for later points;
                # a strict comparison keeps the sequential tie-break (the
                # lowest center index wins on exact ties).
                to_new = self._metric.cdist(tail[pos:], tail[first].reshape(1, -1))[:, 0]
                closer = to_new < dmin[pos:]
                dmin[pos:][closer] = to_new[closer]
                amin[pos:][closer] = new_index
        return start + m

    def _accumulate_weights(self, indices: np.ndarray) -> None:
        """Bulk form of the update rule's ``weights[closest] += 1``."""
        if indices.size:
            self._weights[: self._size] += np.bincount(
                indices, minlength=self._size
            )

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
            points=np.array(self._centers[: self._size]),
            weights=np.array(self._weights[: self._size]),
        )
