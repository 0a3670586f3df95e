"""Batched-vs-per-point equivalence of the streaming engine.

The batch protocol's contract is *order equivalence*: for any stream and
any ``batch_size`` (including 1 and larger than the stream), processing
the stream in chunks must leave every streaming solver in exactly the
state the per-point rules of ``_per_point.py`` produce — identical coreset
state (centers, weights, phi, n_processed) and identical final solutions.

Two layers of evidence:

* a hypothesis property over :class:`~repro.core.StreamingCoreset` with
  arbitrary streams and arbitrary chunkings of the same stream;
* a deterministic parametrized suite driving all four streaming solvers
  (CORESETSTREAM, CORESETOUTLIERS, BASESTREAM of McCutchen–Khuller, and
  the doubling baseline) plus the 2-pass variant and BASEOUTLIERS
  through :class:`~repro.streaming.StreamingRunner` at batch sizes
  {1, 7, 64, 1024} against the per-point references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaseStreamKCenter, BaseStreamOutliers, DoublingStreamKCenter
from repro.core import (
    CoresetStreamKCenter,
    CoresetStreamOutliers,
    StreamingCoreset,
    TwoPassStreamOutliers,
)
from repro.exceptions import InvalidParameterError
from repro.streaming import ArrayStream, GeneratorStream, StreamingAlgorithm, StreamingRunner

import _per_point
from _per_point import PerPointCoresetStreamKCenter, PerPointStreamingCoreset, run_per_point
from _strategies import streams

BATCH_SIZES = (1, 7, 64, 1024)


def _assert_same_coreset(batched: StreamingCoreset, reference: StreamingCoreset) -> None:
    assert batched.n_processed == reference.n_processed
    assert batched.phi == reference.phi
    assert batched.size == reference.size
    assert np.array_equal(batched.centers, reference.centers)
    assert np.array_equal(batched.weights, reference.weights)
    assert batched.peak_working_memory_size == reference.peak_working_memory_size


class TestStreamingCoresetBatchEquivalence:
    @given(
        points=streams(),
        tau=st.integers(1, 12),
        chunking=st.lists(st.integers(1, 30), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_chunking_matches_per_point(self, points, tau, chunking):
        reference = PerPointStreamingCoreset(tau=tau)
        for point in points:
            reference.process(point)

        batched = StreamingCoreset(tau=tau)
        position = 0
        chunk_index = 0
        while position < points.shape[0]:
            size = chunking[chunk_index % len(chunking)]
            batched.process_batch(points[position : position + size])
            position += size
            chunk_index += 1
        _assert_same_coreset(batched, reference)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_batch_sizes_match_per_point(self, medium_blobs, batch_size):
        tau = 25
        reference = PerPointStreamingCoreset(tau=tau)
        for point in medium_blobs:
            reference.process(point)

        batched = StreamingCoreset(tau=tau)
        for start in range(0, medium_blobs.shape[0], batch_size):
            batched.process_batch(medium_blobs[start : start + batch_size])
        _assert_same_coreset(batched, reference)

    def test_empty_batch_is_a_no_op(self):
        coreset = StreamingCoreset(tau=3)
        coreset.process_batch(np.empty((0, 2)))
        assert coreset.n_processed == 0


def _solver_factories(reference: bool = False):
    def of(cls):
        return getattr(_per_point, "PerPoint" + cls.__name__) if reference else cls

    return {
        "coreset-stream": lambda: of(CoresetStreamKCenter)(
            6, coreset_multiplier=4, random_state=5
        ),
        "coreset-outliers": lambda: of(CoresetStreamOutliers)(4, 10, coreset_multiplier=2),
        "base-stream": lambda: of(BaseStreamKCenter)(6, n_instances=4),
        "doubling": lambda: of(DoublingStreamKCenter)(7),
        "base-outliers": lambda: of(BaseStreamOutliers)(
            4, 8, n_instances=2, buffer_capacity=40
        ),
        "two-pass": lambda: of(TwoPassStreamOutliers)(
            4, 10, epsilon=0.5, max_coreset_size=80
        ),
    }


def _stress_stream(medium_blobs: np.ndarray) -> np.ndarray:
    # Clusters + far-away points (forces merges) + exact duplicates (forces
    # argmin tie-breaks) — the cases where batched bookkeeping could drift.
    rng = np.random.default_rng(99)
    far = rng.normal(size=(60, medium_blobs.shape[1])) * 400.0
    stream = np.vstack([medium_blobs, far, medium_blobs[:23]])
    return stream[rng.permutation(stream.shape[0])]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(_solver_factories()))
def test_solver_batched_runner_matches_per_point(medium_blobs, name, batch_size):
    stream = _stress_stream(medium_blobs)

    reference_algorithm = _solver_factories(reference=True)[name]()
    reference, n_points, peak_memory = run_per_point(
        reference_algorithm,
        ArrayStream(stream, max_passes=reference_algorithm.n_passes),
    )

    algorithm = _solver_factories()[name]()
    report = StreamingRunner(batch_size=batch_size).run(
        algorithm, ArrayStream(stream, max_passes=algorithm.n_passes)
    )

    assert report.n_points == n_points
    assert report.n_passes == reference_algorithm.n_passes
    assert report.peak_memory == peak_memory
    assert np.array_equal(report.result.centers, reference.centers)
    assert report.result.n_processed == reference.n_processed


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_coreset_stream_internal_state_matches(medium_blobs, batch_size):
    stream = _stress_stream(medium_blobs)

    reference = PerPointCoresetStreamKCenter(6, coreset_multiplier=4, random_state=5)
    run_per_point(reference, ArrayStream(stream))

    batched = CoresetStreamKCenter(6, coreset_multiplier=4, random_state=5)
    StreamingRunner(batch_size=batch_size).run(batched, ArrayStream(stream))

    _assert_same_coreset(batched._coreset, reference._coreset)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("cap", [5, 30, 60])
def test_two_pass_capacity_reached_mid_chunk_matches_per_point(medium_blobs, cap, batch_size):
    # The uncapped second pass retains 67 points on this stream, so each cap
    # is reached part-way through a chunk and the rest is absorbed.
    stream = _stress_stream(medium_blobs)

    reference_algorithm = _per_point.PerPointTwoPassStreamOutliers(
        4, 10, epsilon=0.5, max_coreset_size=cap
    )
    reference, _, peak_memory = run_per_point(
        reference_algorithm, ArrayStream(stream, max_passes=2)
    )

    algorithm = TwoPassStreamOutliers(4, 10, epsilon=0.5, max_coreset_size=cap)
    report = StreamingRunner(batch_size=batch_size).run(
        algorithm, ArrayStream(stream, max_passes=2)
    )

    retained, expected = algorithm._retained, reference_algorithm._retained
    assert len(retained) == cap
    assert np.array_equal(retained.points, expected.points)
    assert np.array_equal(retained.weights, expected.weights)
    assert retained.weights.sum() == stream.shape[0]
    assert np.array_equal(report.result.centers, reference.centers)
    assert report.peak_memory == peak_memory


@pytest.mark.parametrize("name", sorted(_solver_factories()))
def test_solver_defines_no_per_point_rule(name):
    assert type(_solver_factories()[name]()).process is StreamingAlgorithm.process


@pytest.mark.parametrize("name", sorted(_solver_factories()))
def test_nan_row_and_wrong_dimension_raise(name, small_blobs):
    points = np.array(small_blobs)
    points[150, 1] = np.nan
    algorithm = _solver_factories()[name]()
    if algorithm.n_passes == 1:
        with pytest.raises(InvalidParameterError, match="finite"):
            StreamingRunner(batch_size=64).run(algorithm, GeneratorStream(iter(points)))
    for pass_index in range(algorithm.n_passes):
        algorithm = _solver_factories()[name]()
        for clean in range(pass_index):
            algorithm.start_pass(clean)
            algorithm.process_batch(small_blobs)
        algorithm.start_pass(pass_index)
        algorithm.process_batch(points[:64])
        with pytest.raises(InvalidParameterError, match="finite"):
            algorithm.process_batch(points[64:])
        with pytest.raises(InvalidParameterError, match="dimension 3, expected 2"):
            algorithm.process_batch(np.zeros((10, 3)))
