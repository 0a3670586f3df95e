"""Tests for repro.streaming.runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MemoryBudgetExceededError, StreamingProtocolError
from repro.streaming import ArrayStream, StreamingAlgorithm, StreamingRunner


class CollectEverything(StreamingAlgorithm):
    """A trivial algorithm that stores every point (for harness testing)."""

    def __init__(self) -> None:
        self.points: list[np.ndarray] = []

    def process_batch(self, batch: np.ndarray) -> None:
        self.points.extend(np.array(batch))

    def finalize(self):
        return np.vstack(self.points)

    @property
    def working_memory_size(self) -> int:
        return len(self.points)


class TwoPassCounter(StreamingAlgorithm):
    """Counts points per pass (for multi-pass harness testing)."""

    n_passes = 2

    def __init__(self) -> None:
        self.counts = [0, 0]
        self._current = 0

    def start_pass(self, pass_index: int) -> None:
        self._current = pass_index

    def process_batch(self, batch: np.ndarray) -> None:
        self.counts[self._current] += batch.shape[0]

    def finalize(self):
        return tuple(self.counts)

    @property
    def working_memory_size(self) -> int:
        return 2


class TestStreamingRunner:
    def test_runs_and_reports(self, small_blobs):
        report = StreamingRunner().run(CollectEverything(), ArrayStream(small_blobs))
        assert report.n_points == small_blobs.shape[0]
        assert report.n_passes == 1
        assert report.peak_memory == small_blobs.shape[0]
        assert report.result.shape == small_blobs.shape
        assert report.throughput > 0

    def test_memory_limit(self, small_blobs):
        runner = StreamingRunner(memory_limit=10)
        with pytest.raises(MemoryBudgetExceededError):
            runner.run(CollectEverything(), ArrayStream(small_blobs))

    def test_multi_pass(self, small_blobs):
        report = StreamingRunner().run(TwoPassCounter(), ArrayStream(small_blobs))
        assert report.n_passes == 2
        assert report.result == (small_blobs.shape[0], small_blobs.shape[0])

    def test_pass_budget_mismatch(self, small_blobs):
        with pytest.raises(StreamingProtocolError):
            StreamingRunner().run(TwoPassCounter(), ArrayStream(small_blobs, max_passes=1))


class SpikyBatchCompressor(StreamingAlgorithm):
    """Buffers a whole chunk, then compresses to one point at chunk end.

    Models solvers whose working set peaks *inside* ``process_batch``
    (e.g. while holding a chunk plus the coreset before a merge): the
    post-chunk ``working_memory_size`` is tiny, so only the tracked
    ``peak_working_memory_size`` reveals the excursion.
    """

    def __init__(self) -> None:
        self._pending: list[np.ndarray] = []
        self._summary: np.ndarray | None = None
        self._peak = 1

    def process_batch(self, batch: np.ndarray) -> None:
        self._pending.extend(batch)
        self._peak = max(self._peak, self.working_memory_size)
        # Compress: the mid-chunk peak disappears from the current size.
        self._summary = np.mean(np.vstack(self._pending), axis=0)
        self._pending = []

    def finalize(self):
        return self._summary

    @property
    def working_memory_size(self) -> int:
        return len(self._pending) + (0 if self._summary is None else 1)

    @property
    def peak_working_memory_size(self) -> int:
        return self._peak


class TestBatchedMemoryEnforcement:
    def test_mid_chunk_peak_trips_the_limit_on_the_batched_path(self, small_blobs):
        # The peak (one full 50-point chunk) lives strictly inside
        # process_batch; after each chunk the working set is 1 point.
        runner = StreamingRunner(memory_limit=10, batch_size=50)
        with pytest.raises(MemoryBudgetExceededError):
            runner.run(SpikyBatchCompressor(), ArrayStream(small_blobs))

    def test_mid_chunk_peak_trips_the_limit_by_default(self, small_blobs):
        # One 200-point chunk: the whole stream peaks inside one call.
        with pytest.raises(MemoryBudgetExceededError):
            StreamingRunner(memory_limit=10).run(
                SpikyBatchCompressor(), ArrayStream(small_blobs)
            )

    def test_batched_run_within_limit_reports_true_peak(self, small_blobs):
        report = StreamingRunner(batch_size=50).run(
            SpikyBatchCompressor(), ArrayStream(small_blobs)
        )
        # Chunks after the first hold 50 pending points plus the summary.
        assert report.peak_memory == 51


class TestEmptyStreams:
    def test_empty_generator_stream_raises_deterministically(self):
        from repro.exceptions import EmptyStreamError
        from repro.streaming import GeneratorStream

        with pytest.raises(EmptyStreamError):
            StreamingRunner().run(CollectEverything(), GeneratorStream(iter(())))

    def test_empty_stream_with_zero_length_hint_batched(self):
        from repro.exceptions import EmptyStreamError
        from repro.streaming import GeneratorStream

        with pytest.raises(EmptyStreamError):
            StreamingRunner(batch_size=32).run(
                CollectEverything(), GeneratorStream(iter(()), length_hint=0)
            )
