"""Streaming execution harness.

:class:`StreamingAlgorithm` is the protocol every streaming solver in this
package implements. Its one update rule,
:meth:`~StreamingAlgorithm.process_batch`, consumes ``(m, d)`` chunks of
consecutive stream points and must leave the algorithm in the state the
chunk's rows would, fed one at a time: results do not depend on the
chunking. :meth:`~StreamingAlgorithm.process` feeds one point as a
one-row chunk. :meth:`~StreamingAlgorithm.finalize` produces the answer,
and :attr:`~StreamingAlgorithm.working_memory_size` reports the working
set so the harness can track peak memory (the paper's key space metric).

:class:`StreamingRunner` drives an algorithm over a
:class:`~repro.streaming.stream.PointStream` in chunks of at most
``batch_size`` points (default 1024), honouring multi-pass algorithms,
and reports throughput (points per second, excluding finalisation, as
in the paper's throughput plots), peak working memory and the number of
passes. ``memory_limit`` is checked after every chunk against the
solver-tracked :attr:`~StreamingAlgorithm.peak_working_memory_size`, so
a transient peak *inside* a chunk still trips the budget.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    EmptyStreamError,
    MemoryBudgetExceededError,
    StreamingProtocolError,
)
from .stream import PointStream

__all__ = ["StreamingAlgorithm", "StreamingReport", "StreamingRunner"]


class StreamingAlgorithm(ABC):
    """Base class for one- or multi-pass streaming algorithms."""

    #: Number of sequential passes the algorithm needs over the stream.
    n_passes: int = 1

    def start_pass(self, pass_index: int) -> None:
        """Hook called before each pass (``pass_index`` is 0-based)."""

    @abstractmethod
    def process_batch(self, batch: np.ndarray) -> None:
        """Consume a ``(m, d)`` chunk of consecutive points of the current pass.

        The result must not depend on how the pass is chunked: a chunk
        leaves the algorithm in the state its rows would, fed one by one.
        """

    def process(self, point: np.ndarray) -> None:
        """Consume one point of the current pass (a one-row chunk)."""
        self.process_batch(np.asarray(point, dtype=np.float64).reshape(1, -1))

    @abstractmethod
    def finalize(self):
        """Produce the final answer once every pass has been consumed."""

    @property
    @abstractmethod
    def working_memory_size(self) -> int:
        """Current number of stored points (the paper's working-memory unit)."""

    @property
    def peak_working_memory_size(self) -> int:
        """Largest working-memory size reached so far (stored points).

        The harness samples :attr:`working_memory_size` only between
        chunks, so a transient peak inside one call can go unobserved.
        Algorithms that track their own peak override this property to
        make the paper's space metric exact at any batch size; the
        default simply reports the current working set.
        """
        return self.working_memory_size


@dataclass(frozen=True)
class StreamingReport:
    """Outcome of running a streaming algorithm over a stream.

    Attributes
    ----------
    result:
        Whatever the algorithm's :meth:`~StreamingAlgorithm.finalize`
        returned.
    n_points:
        Number of points consumed (per pass).
    n_passes:
        Number of passes performed.
    peak_memory:
        Largest working-memory size observed (in stored points).
    stream_time:
        Wall-clock seconds spent pushing points (excludes finalisation).
    finalize_time:
        Wall-clock seconds spent in finalisation.
    throughput:
        Points per second during streaming (``n_points * n_passes /
        stream_time``); ``inf`` for degenerate zero-duration runs.
    """

    result: object
    n_points: int
    n_passes: int
    peak_memory: int
    stream_time: float
    finalize_time: float

    @property
    def throughput(self) -> float:
        """Points processed per second while streaming."""
        total = self.n_points * self.n_passes
        if self.stream_time <= 0:
            return float("inf")
        return total / self.stream_time


class StreamingRunner:
    """Drive a :class:`StreamingAlgorithm` over a :class:`PointStream`.

    Parameters
    ----------
    memory_limit:
        Optional hard cap (stored points) on the algorithm's working
        memory; exceeding it raises
        :class:`~repro.exceptions.MemoryBudgetExceededError`. Checked
        after every chunk against the solver-tracked
        :attr:`StreamingAlgorithm.peak_working_memory_size`, so a
        mid-chunk peak above the limit is still caught.
    batch_size:
        The stream delivers chunks of at most this many points (an
        integer ``>= 1``) and the algorithm consumes each through
        :meth:`StreamingAlgorithm.process_batch`. Results do not depend
        on it; ``batch_size=1`` feeds one point per call.
    """

    def __init__(self, *, memory_limit: int | None = None, batch_size: int = 1024) -> None:
        if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
            raise StreamingProtocolError(
                f"batch_size must be an integer >= 1; got {batch_size!r}"
            )
        self._memory_limit = memory_limit
        self._batch_size = int(batch_size)

    @property
    def batch_size(self) -> int:
        """Maximum number of points per chunk."""
        return self._batch_size

    def _check_memory(self, algorithm: StreamingAlgorithm, peak_memory: int) -> int:
        # A current-size sample between chunks could miss a transient peak
        # inside process_batch; the solver-tracked peak cannot.
        memory = max(
            algorithm.working_memory_size, algorithm.peak_working_memory_size
        )
        if self._memory_limit is not None and memory > self._memory_limit:
            raise MemoryBudgetExceededError(
                f"streaming working memory reached {memory} points, "
                f"exceeding the limit of {self._memory_limit}"
            )
        return max(peak_memory, memory)

    def run(self, algorithm: StreamingAlgorithm, stream: PointStream) -> StreamingReport:
        """Feed ``stream`` into ``algorithm`` and return a :class:`StreamingReport`."""
        if algorithm.n_passes > stream.max_passes:
            raise StreamingProtocolError(
                f"algorithm needs {algorithm.n_passes} passes but the stream "
                f"supports at most {stream.max_passes}"
            )

        peak_memory = 0
        points_in_pass = 0
        stream_time = 0.0

        for pass_index in range(algorithm.n_passes):
            algorithm.start_pass(pass_index)
            points_in_pass = 0
            start = time.perf_counter()
            for chunk in stream.iterate_batches(self._batch_size):
                algorithm.process_batch(chunk)
                points_in_pass += chunk.shape[0]
                peak_memory = self._check_memory(algorithm, peak_memory)
            stream_time += time.perf_counter() - start

        if points_in_pass == 0:
            raise EmptyStreamError(
                "the stream delivered no points; streaming algorithms need at "
                "least one point to produce a result"
            )

        finalize_start = time.perf_counter()
        result = algorithm.finalize()
        finalize_time = time.perf_counter() - finalize_start
        peak_memory = max(peak_memory, algorithm.peak_working_memory_size)

        return StreamingReport(
            result=result,
            n_points=points_in_pass,
            n_passes=algorithm.n_passes,
            peak_memory=peak_memory,
            stream_time=stream_time,
            finalize_time=finalize_time,
        )
