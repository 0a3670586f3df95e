"""Batch delivery semantics of streams and the batched runner path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StreamingCoreset
from repro.exceptions import MemoryBudgetExceededError, StreamingProtocolError
from repro.streaming import (
    ArrayStream,
    GeneratorStream,
    StreamingAlgorithm,
    StreamingRunner,
)


class CollectBatches(StreamingAlgorithm):
    """Records every chunk it receives and the points in them."""

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.points: list[np.ndarray] = []

    def process_batch(self, batch: np.ndarray) -> None:
        self.chunks.append(np.array(batch))
        self.points.extend(np.array(batch))

    def finalize(self):
        return np.vstack(self.points) if self.points else np.empty((0, 0))

    @property
    def working_memory_size(self) -> int:
        return len(self.points)


class TestArrayStreamBatches:
    def test_chunks_cover_the_stream_in_order(self, small_blobs):
        stream = ArrayStream(small_blobs)
        chunks = list(stream.iterate_batches(17))
        assert all(chunk.shape[0] <= 17 for chunk in chunks)
        assert np.array_equal(np.vstack(chunks), small_blobs)
        assert stream.points_delivered == small_blobs.shape[0]

    def test_batch_larger_than_stream_is_one_chunk(self, small_blobs):
        chunks = list(ArrayStream(small_blobs).iterate_batches(10**6))
        assert len(chunks) == 1
        assert chunks[0].shape == small_blobs.shape

    def test_consumes_pass_budget(self, small_blobs):
        stream = ArrayStream(small_blobs, max_passes=1)
        list(stream.iterate_batches(32))
        with pytest.raises(StreamingProtocolError):
            next(stream.iterate_batches(32))

    def test_invalid_batch_size_raises(self, small_blobs):
        with pytest.raises(StreamingProtocolError):
            next(ArrayStream(small_blobs).iterate_batches(0))

    def test_matches_point_iteration_order(self, small_blobs):
        batched = np.vstack(list(ArrayStream(small_blobs).iterate_batches(7)))
        per_point = np.vstack(list(ArrayStream(small_blobs).iterate_pass()))
        assert np.array_equal(batched, per_point)


class TestGeneratorStreamBatches:
    def test_native_batches_pass_through_unsplit(self):
        batches = [np.zeros((40, 2)), np.ones((3, 2)), np.full((90, 2), 2.0)]
        stream = GeneratorStream(iter(batches))
        chunks = list(stream.iterate_batches(8))
        assert [chunk.shape[0] for chunk in chunks] == [40, 3, 90]
        assert stream.points_delivered == 133

    def test_single_points_are_grouped(self):
        points = [np.array([float(i), 0.0]) for i in range(10)]
        chunks = list(GeneratorStream(iter(points)).iterate_batches(4))
        assert [chunk.shape[0] for chunk in chunks] == [4, 4, 2]
        assert np.array_equal(np.vstack(chunks), np.vstack(points))

    def test_mixed_items_preserve_order(self):
        rng = np.random.default_rng(3)
        singles = [rng.normal(size=2) for _ in range(5)]
        native = rng.normal(size=(6, 2))
        source = [singles[0], singles[1], native, singles[2], singles[3], singles[4]]
        chunks = list(GeneratorStream(iter(source)).iterate_batches(3))
        expected = np.vstack([singles[0], singles[1], native, *singles[2:]])
        assert np.array_equal(np.vstack(chunks), expected)
        # The pending singles were flushed before the native batch.
        assert [chunk.shape[0] for chunk in chunks] == [2, 6, 3]

    def test_single_use(self):
        stream = GeneratorStream(iter([np.zeros((4, 2))]))
        list(stream.iterate_batches(2))
        with pytest.raises(StreamingProtocolError):
            next(stream.iterate_batches(2))


class TestBatchedRunner:
    def test_reports_match_one_point_batches(self, small_blobs):
        reference = StreamingRunner(batch_size=1).run(
            CollectBatches(), ArrayStream(small_blobs)
        )
        batched = StreamingRunner(batch_size=16).run(
            CollectBatches(), ArrayStream(small_blobs)
        )
        assert batched.n_points == reference.n_points
        assert batched.peak_memory == reference.peak_memory
        assert np.array_equal(batched.result, reference.result)

    def test_algorithm_receives_chunks(self, small_blobs):
        algorithm = CollectBatches()
        StreamingRunner(batch_size=16).run(algorithm, ArrayStream(small_blobs))
        assert all(chunk.shape[0] <= 16 for chunk in algorithm.chunks)
        assert sum(chunk.shape[0] for chunk in algorithm.chunks) == small_blobs.shape[0]

    def test_memory_limit_enforced_on_batched_path(self, small_blobs):
        runner = StreamingRunner(memory_limit=10, batch_size=16)
        with pytest.raises(MemoryBudgetExceededError):
            runner.run(CollectBatches(), ArrayStream(small_blobs))

    @pytest.mark.parametrize("batch_size", [0, None, 2.5])
    def test_invalid_batch_size_raises(self, batch_size):
        with pytest.raises(StreamingProtocolError):
            StreamingRunner(batch_size=batch_size)

    def test_batch_size_property(self):
        assert StreamingRunner().batch_size == 1024
        assert StreamingRunner(batch_size=64).batch_size == 64

    def test_process_feeds_a_one_row_batch(self):
        algorithm = CollectBatches()
        algorithm.process([1, 2])
        assert [chunk.tolist() for chunk in algorithm.chunks] == [[[1.0, 2.0]]]


class TestReadOnlyCoresetViews:
    def test_centers_and_weights_are_read_only(self, small_blobs):
        coreset = StreamingCoreset(tau=10)
        coreset.process_batch(small_blobs)
        with pytest.raises(ValueError):
            coreset.centers[0] = 0.0
        with pytest.raises(ValueError):
            coreset.weights[0] = 0.0

    def test_read_only_during_buffering_too(self):
        coreset = StreamingCoreset(tau=10)
        coreset.process(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            coreset.centers[0] = 0.0
        with pytest.raises(ValueError):
            coreset.weights[0] = 0.0

    def test_coreset_snapshot_stays_mutable(self, small_blobs):
        coreset = StreamingCoreset(tau=10)
        coreset.process_batch(small_blobs)
        snapshot = coreset.coreset()
        snapshot.points[0] = 0.0  # stable copy, detached from the coreset
        assert not np.array_equal(snapshot.points[0], coreset.centers[0])
