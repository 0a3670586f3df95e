"""Test-only subclasses restoring the solvers' literal per-point update rules.

The equivalence suites compare the one vectorised rule, ``process_batch``,
against these ``process`` overrides, driven by :func:`run_per_point`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import BaseStreamKCenter, BaseStreamOutliers, DoublingStreamKCenter
from repro.baselines.mccutchen import _GuessInstance, _OutlierGuessInstance
from repro.core import (
    CoresetStreamKCenter,
    CoresetStreamOutliers,
    StreamingCoreset,
    TwoPassStreamOutliers,
)
from repro.exceptions import InvalidParameterError


class PerPointStreamingCoreset(StreamingCoreset):
    def process(self, point) -> None:
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if point.size == 0 or not np.all(np.isfinite(point)):
            raise InvalidParameterError("stream points must be finite, non-empty vectors")
        if self._dimension is not None and point.shape[0] != self._dimension:
            raise InvalidParameterError(
                f"stream point has dimension {point.shape[0]}, expected {self._dimension}"
            )
        self._n_processed += 1

        if self._centers is None:
            if self._dimension is None:
                self._dimension = int(point.shape[0])
            self._buffer.append(np.array(point))
            if len(self._buffer) == self._tau + 1:
                self._initialize_from_buffer()
            return

        distances = self._metric.point_to_points(point, self._centers.points)
        closest = int(np.argmin(distances))
        if distances[closest] <= 8.0 * self._phi:
            # Update rule: the closest center becomes the point's proxy.
            self._centers.weights[closest] += 1.0
            return
        # New center; re-establish invariant (a) if the budget overflowed.
        self._centers.add(point)
        while len(self._centers) > self._tau:
            self._apply_merge_rule()


class _OnPerPointCoreset:
    """Swap the solver's coreset for the per-point one and delegate to it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._coreset = PerPointStreamingCoreset(self._coreset.tau, metric=self.metric)

    def process(self, point: np.ndarray) -> None:
        self._coreset.process(point)


class PerPointCoresetStreamKCenter(_OnPerPointCoreset, CoresetStreamKCenter):
    pass


class PerPointCoresetStreamOutliers(_OnPerPointCoreset, CoresetStreamOutliers):
    pass


class PerPointDoublingStreamKCenter(_OnPerPointCoreset, DoublingStreamKCenter):
    pass


class PerPointTwoPassStreamOutliers(TwoPassStreamOutliers):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._first_pass = PerPointStreamingCoreset(self.k + self.z, metric=self.metric)

    def process(self, point: np.ndarray) -> None:
        if self._current_pass == 0:
            self._first_pass.process(point)
            return

        point = np.asarray(point, dtype=np.float64).reshape(-1)
        self._n_processed_second += 1
        if self._retained:
            existing = self._retained.points
            distances = self.metric.point_to_points(point, existing)
            closest = int(np.argmin(distances))
            if distances[closest] <= self._separation or (
                self.max_coreset_size is not None
                and len(self._retained) >= self.max_coreset_size
            ):
                self._retained.weights[closest] += 1.0
                return
        self._retained.add(point)


class _PerPointInstance:
    """Feed a chunk to a guess instance one row at a time."""

    def process_batch(self, batch: np.ndarray) -> None:
        for point in batch:
            self.process(point)


class _PerPointGuessInstance(_PerPointInstance, _GuessInstance):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._literal_peak = 0

    @property
    def peak_size(self) -> int:
        return self._literal_peak

    def _covered(self, point: np.ndarray) -> bool:
        if not self._centers:
            return False
        distances = self._centers.metric.point_to_points(point, self._centers.points)
        return bool(distances.min() <= 2.0 * self.guess)

    def process(self, point: np.ndarray) -> None:
        if self._covered(point):
            return
        self._centers.add(point)
        self._literal_peak = max(self._literal_peak, len(self._centers))
        while len(self._centers) > self._k:
            # The guess was too small: k+1 centers pairwise > 2*guess apart
            # certify that the optimum exceeds guess. Double and re-merge.
            self.guess *= 2.0
            self.restarts += 1
            self._remerge()


class _PerPointOutlierGuessInstance(_PerPointInstance, _OutlierGuessInstance):
    def _covered_by_centers(self, point: np.ndarray) -> bool:
        if not self._centers:
            return False
        distances = self._metric.point_to_points(point, self._centers.points)
        return bool(distances.min() <= 4.0 * self.guess)

    def process(self, point: np.ndarray) -> None:
        if self._covered_by_centers(point):
            return
        self._free.append(np.array(point))
        self._note_memory()
        if len(self._free) <= self._capacity:
            return
        self._consolidate()
        while len(self._free) > self._capacity:
            self._escalate()
            self._consolidate()


class _PerPointGuessParallel:
    def process(self, point: np.ndarray) -> None:
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        self._n_processed += 1
        if not self._instances:
            self._buffer.append(np.array(point))
            if len(self._buffer) == self._seed_size:
                self._initialize()
            return
        for instance in self._instances:
            instance.process(point)


class PerPointBaseStreamKCenter(_PerPointGuessParallel, BaseStreamKCenter):
    def _new_instance(self, guess: float):
        return _PerPointGuessInstance(self.k, self.metric, guess)


class PerPointBaseStreamOutliers(_PerPointGuessParallel, BaseStreamOutliers):
    def _new_instance(self, guess: float):
        return _PerPointOutlierGuessInstance(self.k, self.z, self.metric, guess, self.buffer_capacity)


def run_per_point(algorithm, stream):
    """Drive ``algorithm`` point by point; return (result, points per pass, peak memory)."""
    peak = 0
    for pass_index in range(algorithm.n_passes):
        algorithm.start_pass(pass_index)
        n_points = 0
        for point in stream.iterate_pass():
            algorithm.process(point)
            n_points += 1
            peak = max(peak, algorithm.working_memory_size, algorithm.peak_working_memory_size)
    result = algorithm.finalize()
    return result, n_points, max(peak, algorithm.peak_working_memory_size)
