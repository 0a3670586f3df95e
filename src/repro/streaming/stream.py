"""Stream sources for the Streaming algorithms.

A *stream* delivers the points of one pass in order and enforces the
streaming discipline: no random access, and only as many sequential
passes as the source supports. Two sources are provided:

* :class:`ArrayStream` — wraps an in-memory ``(n, d)`` array (optionally
  shuffled once up front, as the paper does before streaming); supports an
  arbitrary number of passes, so it can also drive the 2-pass
  dimension-oblivious algorithm. A ``float64`` :class:`numpy.memmap` is
  accepted zero-copy (when ``shuffle=False``), so disk-backed matrices
  larger than RAM can be streamed chunk by chunk.
* :class:`GeneratorStream` — wraps a single-use iterable of points or
  batches (e.g. :func:`repro.datasets.inflate_streaming` or
  :func:`repro.datasets.stream_paper_dataset`); strictly one pass. An
  optional ``length_hint`` declares the stream length up front, which
  the MapReduce drivers' out-of-core shuffle needs for contiguous
  partitioning (and uses to cap ``ell``).

:meth:`PointStream.iterate_batches` delivers a pass in chunks — zero-copy
slices of an :class:`ArrayStream`'s matrix, or a :class:`GeneratorStream`
source's native batches unsplit, with loose single points grouped up to
the requested size. :meth:`PointStream.iterate_pass` yields the rows of
those chunks one at a time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .._validation import check_points, check_random_state
from ..exceptions import StreamingProtocolError

__all__ = ["PointStream", "ArrayStream", "GeneratorStream"]


class PointStream:
    """Abstract base class for point streams.

    Subclasses implement :meth:`_iterate_batches_once`; the base class
    enforces the pass budget and counts delivered points.
    """

    def __init__(self, *, max_passes: int) -> None:
        self._max_passes = max_passes
        self._passes_started = 0
        self._points_delivered = 0

    @property
    def passes_started(self) -> int:
        """Number of passes begun so far."""
        return self._passes_started

    @property
    def points_delivered(self) -> int:
        """Total number of points handed out across all passes."""
        return self._points_delivered

    @property
    def max_passes(self) -> int:
        """Number of passes this source supports."""
        return self._max_passes

    def iterate_pass(self) -> Iterator[np.ndarray]:
        """Begin a new pass and yield its points one at a time."""
        for chunk in self.iterate_batches(1024):
            yield from chunk

    def iterate_batches(self, batch_size: int) -> Iterator[np.ndarray]:
        """Begin a new pass and yield its points as ``(m, d)`` chunks.

        ``m`` is at most ``batch_size`` (sources with native batching, such
        as :class:`GeneratorStream`, may deliver larger chunks as-is rather
        than re-split them). Consumes one unit of the pass budget, exactly
        like :meth:`iterate_pass`.
        """
        if batch_size < 1:
            raise StreamingProtocolError("batch_size must be >= 1")
        self._begin_pass()
        for chunk in self._iterate_batches_once(int(batch_size)):
            self._points_delivered += chunk.shape[0]
            yield chunk

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.iterate_pass()

    def _begin_pass(self) -> None:
        if self._passes_started >= self._max_passes:
            raise StreamingProtocolError(
                f"this stream supports at most {self._max_passes} pass(es)"
            )
        self._passes_started += 1

    def _iterate_batches_once(self, batch_size: int) -> Iterator[np.ndarray]:
        """Yield one pass as ``(m, d)`` chunks (implemented by sources)."""
        raise NotImplementedError  # pragma: no cover - abstract


class ArrayStream(PointStream):
    """Stream over an in-memory point matrix; supports multiple passes.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    shuffle:
        Shuffle once before the first pass (all passes then see the same
        shuffled order), mirroring the paper's experimental protocol.
    max_passes:
        Pass budget; defaults to unlimited (``None``).
    random_state:
        Seed for the shuffle.
    """

    def __init__(
        self,
        points,
        *,
        shuffle: bool = False,
        max_passes: int | None = None,
        random_state=None,
    ) -> None:
        super().__init__(max_passes=np.inf if max_passes is None else int(max_passes))
        pts = check_points(points)
        if shuffle:
            rng = check_random_state(random_state)
            pts = pts[rng.permutation(pts.shape[0])]
        self._points = pts

    def __len__(self) -> int:
        return int(self._points.shape[0])

    @property
    def dimension(self) -> int:
        """Number of coordinates per point."""
        return int(self._points.shape[1])

    def _iterate_batches_once(self, batch_size: int) -> Iterator[np.ndarray]:
        # Zero-copy slices of the backing matrix.
        for start in range(0, self._points.shape[0], batch_size):
            yield self._points[start : start + batch_size]


class GeneratorStream(PointStream):
    """Single-pass stream over an iterable of points or point batches.

    Each item of ``source`` may be a single point (1-d array-like) or a
    batch (2-d array-like). :meth:`~PointStream.iterate_batches` passes
    native batches through without re-splitting (whatever their size)
    and groups loose single points into chunks of the requested size.
    Generators such as :func:`repro.datasets.inflate_streaming` can
    feed the streaming algorithms without materialising the data.

    Parameters
    ----------
    source:
        The iterable of points or batches.
    length_hint:
        Optional total number of points the source will deliver. When
        given, ``len(stream)`` reports it (consumers that need the
        length up front — e.g. contiguous partitioning in the MapReduce
        out-of-core shuffle — can then use a single-pass source); the
        shuffle verifies the actual delivery against it. ``0`` declares
        a legitimately empty stream — consumers that need at least one
        point (``fit_stream``, the streaming runner) then fail fast
        with :class:`~repro.exceptions.EmptyStreamError` instead of
        erroring from deep inside finalisation.
    """

    def __init__(self, source: Iterable, *, length_hint: int | None = None) -> None:
        super().__init__(max_passes=1)
        self._source = source
        if length_hint is not None and length_hint < 0:
            raise StreamingProtocolError("length_hint must be >= 0 (or None)")
        self._length_hint = length_hint

    def __len__(self) -> int:
        if self._length_hint is None:
            raise TypeError("this GeneratorStream has no length_hint")
        return int(self._length_hint)

    @staticmethod
    def _as_array(item) -> np.ndarray:
        array = np.asarray(item, dtype=np.float64)
        if array.ndim not in (1, 2):
            raise StreamingProtocolError(
                "stream items must be points (1-d) or batches of points (2-d)"
            )
        return array

    def _iterate_batches_once(self, batch_size: int) -> Iterator[np.ndarray]:
        pending: list[np.ndarray] = []
        for item in self._source:
            array = self._as_array(item)
            if array.ndim == 2:
                # Flush grouped singles first so the source order is kept,
                # then hand the native batch through.
                if pending:
                    yield np.vstack(pending)
                    pending = []
                if array.shape[0]:
                    yield array
                continue
            pending.append(array)
            if len(pending) == batch_size:
                yield np.vstack(pending)
                pending = []
        if pending:
            yield np.vstack(pending)
