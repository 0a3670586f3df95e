"""Streaming baselines modelled after McCutchen and Khuller [27].

The paper's streaming experiments (Figures 3 and 5) compare against:

* **BASESTREAM** — the ``(2 + eps)``-approximation streaming algorithm for
  k-center of [27], which runs a number ``m`` of parallel instances, each
  holding at most ``k`` centers for a different radius guess drawn from a
  geometric grid; finer grids (larger ``m``) give better approximations at
  ``m * k`` space.
* **BASEOUTLIERS** — the ``(4 + eps)``-approximation streaming algorithm
  for k-center with ``z`` outliers of [27], which likewise runs ``m``
  parallel instances, each using ``O(k * z)`` working memory (a set of at
  most ``k`` centers plus a buffer of uncovered points).

The re-implementations below follow the *algorithmic ideas* of [27]
(parallel radius guesses, per-instance center budget, buffered uncovered
points with periodic consolidation for the outlier version) rather than
the exact pseudo-code, which the original paper states for a slightly
different streaming model. They reproduce the qualitative behaviour the
VLDB paper reports: solution quality comparable to (k-center) or worse
than (outliers) the coreset algorithms, with space ``m*k`` / ``m*k*z`` and
noticeably lower throughput for the outlier version.

Every instance keeps its centers in the private center store of
:mod:`repro.core.doubling_coreset`. A BASESTREAM instance runs the store's
one batched update rule, :meth:`~repro.core.doubling_coreset._CenterSet.sweep`,
with threshold ``2 * guess`` and limit ``k``; its overflow rule doubles the
guess and keeps a ``2 * guess``-separated subset (:func:`_separated`).
BASEOUTLIERS uses only the store: it buffers uncovered points instead of
opening centers, so it never sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_batch, check_non_negative_int, check_positive_int
from ..core.doubling_coreset import _CenterSet
from ..exceptions import InvalidParameterError, NotFittedError
from ..metricspace.distance import Metric, get_metric
from ..streaming.runner import StreamingAlgorithm

__all__ = [
    "BaseStreamSolution",
    "BaseStreamKCenter",
    "BaseOutliersSolution",
    "BaseStreamOutliers",
]


def _separated(centers: _CenterSet, threshold: float) -> None:
    """Greedily keep the centers farther than ``threshold`` from every earlier kept one."""
    if len(centers) <= 1:
        return
    points = centers.points
    kept = [0]
    for index in range(1, points.shape[0]):
        if centers.metric.point_to_points(points[index], points[kept]).min() > threshold:
            kept.append(index)
    centers.keep(np.array(kept, dtype=np.intp))


# --------------------------------------------------------------------------------------
# Shared base: m parallel radius-guess instances over one stream
# --------------------------------------------------------------------------------------


class _GuessParallelStream(StreamingAlgorithm):
    """Buffer the first ``seed_size`` points, then fan every chunk out to ``m`` instances.

    The smallest positive pairwise distance among the buffered points
    seeds the radius guesses; subclasses build one instance per guess.
    """

    def __init__(self, n_instances: int, metric: str | Metric, *, seed_size: int) -> None:
        self.n_instances = check_positive_int(n_instances, name="n_instances")
        self.metric = get_metric(metric)
        self._seed_size = seed_size
        self._buffer: list[np.ndarray] = []
        self._instances: list = []
        self._dimension: int | None = None
        self._n_processed = 0

    def _new_instance(self, guess: float):  # pragma: no cover - abstract
        raise NotImplementedError

    def _initialize(self) -> None:
        points = np.vstack(self._buffer)
        pairwise = self.metric.pairwise(points)
        # Symmetric with a zero diagonal: the least positive entry of the whole
        # matrix is the least positive pairwise distance.
        positive = pairwise > 0
        base = (
            float(np.min(pairwise, where=positive, initial=np.inf)) / 2.0
            if positive.any()
            else 1.0
        )
        # Stagger the m instances across one factor-2 octave so that, jointly,
        # they realise a geometric grid of ratio 2^(1/m).
        for index in range(self.n_instances):
            instance = self._new_instance(base * (2.0 ** (index / self.n_instances)))
            instance.process_batch(points)
            self._instances.append(instance)
        self._buffer = []

    def process_batch(self, batch: np.ndarray) -> None:
        """Feed a chunk of stream points to every parallel instance."""
        batch = check_batch(batch, self._dimension)
        if batch.shape[0] == 0:
            return
        self._dimension = int(batch.shape[1])
        self._n_processed += batch.shape[0]
        position = 0
        while position < batch.shape[0] and not self._instances:
            self._buffer.append(np.array(batch[position]))
            position += 1
            if len(self._buffer) == self._seed_size:
                self._initialize()
        if position < batch.shape[0]:
            tail = batch[position:]
            for instance in self._instances:
                instance.process_batch(tail)

    @property
    def working_memory_size(self) -> int:
        """Stored points across the buffer and every instance."""
        return len(self._buffer) + sum(instance.size for instance in self._instances)

    @property
    def peak_working_memory_size(self) -> int:
        """Provisioned peak: the initial buffer or the per-instance peaks summed.

        Summing per-instance peaks slightly over-approximates the largest
        instantaneous total (instances need not peak simultaneously), but
        it is the space each instance must be provisioned for, is exact
        per instance, and — unlike harness sampling — does not depend on
        the batch size the stream was driven with.
        """
        if not self._instances:
            return len(self._buffer)
        return max(self._seed_size, sum(instance.peak_size for instance in self._instances))


# --------------------------------------------------------------------------------------
# BASESTREAM: k-center without outliers
# --------------------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseStreamSolution:
    """Final answer of :class:`BaseStreamKCenter`.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the selected centers.
    guess:
        The radius guess of the winning instance.
    instance_index:
        Which of the ``m`` parallel instances produced the answer.
    n_processed:
        Number of stream points consumed.
    """

    centers: np.ndarray
    guess: float
    instance_index: int
    n_processed: int


class _GuessInstance:
    """One parallel instance of the guess-based streaming k-center algorithm."""

    def __init__(self, k: int, metric, initial_guess: float) -> None:
        self._k = k
        self.guess = float(initial_guess)
        self._centers = _CenterSet(metric)
        self.restarts = 0

    @property
    def centers(self) -> np.ndarray:
        return np.array(self._centers.points) if self._centers else np.empty((0, 0))

    @property
    def size(self) -> int:
        return len(self._centers)

    @property
    def peak_size(self) -> int:
        """Largest center count ever held (k + 1 transiently on escalation)."""
        return self._centers.peak

    def _remerge(self) -> None:
        """Greedily keep a subset of centers with mutual distance > 2 * guess."""
        _separated(self._centers, 2.0 * self.guess)

    def process_batch(self, batch: np.ndarray) -> None:
        """Open a center at each point farther than ``2 * guess`` from all centers."""
        position = 0
        n = batch.shape[0]
        while position < n:
            position += self._centers.sweep(batch[position:], 2.0 * self.guess, self._k)
            while len(self._centers) > self._k:
                # The guess was too small: k+1 centers pairwise > 2*guess
                # apart certify that the optimum exceeds guess. Double and
                # re-merge.
                self.guess *= 2.0
                self.restarts += 1
                self._remerge()


class BaseStreamKCenter(_GuessParallelStream):
    """BASESTREAM: guess-parallel streaming k-center modelled after [27].

    Parameters
    ----------
    k:
        Number of centers.
    n_instances:
        Number of parallel guess instances ``m`` (the space knob of
        Figure 3: total space is roughly ``m * k`` stored points).
    metric:
        Metric name or instance.
    """

    def __init__(
        self,
        k: int,
        *,
        n_instances: int = 4,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.k = check_positive_int(k, name="k")
        super().__init__(n_instances, metric, seed_size=self.k + 1)

    def _new_instance(self, guess: float) -> _GuessInstance:
        return _GuessInstance(self.k, self.metric, guess)

    def finalize(self) -> BaseStreamSolution:
        """Return the centers of the instance with the smallest surviving guess."""
        if not self._instances:
            if not self._buffer:
                raise NotFittedError("no points have been processed yet")
            centers = np.vstack(self._buffer)
            return BaseStreamSolution(
                centers=centers, guess=0.0, instance_index=0, n_processed=self._n_processed
            )
        best_index = int(
            np.argmin([instance.guess for instance in self._instances])
        )
        best = self._instances[best_index]
        return BaseStreamSolution(
            centers=best.centers,
            guess=best.guess,
            instance_index=best_index,
            n_processed=self._n_processed,
        )


# --------------------------------------------------------------------------------------
# BASEOUTLIERS: k-center with z outliers
# --------------------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseOutliersSolution:
    """Final answer of :class:`BaseStreamOutliers`.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the selected centers.
    guess:
        The radius guess of the winning instance.
    n_uncovered:
        Number of buffered points the winning instance left uncovered
        (its candidate outliers).
    instance_index:
        Which parallel instance produced the answer.
    n_processed:
        Number of stream points consumed.
    """

    centers: np.ndarray
    guess: float
    n_uncovered: int
    instance_index: int
    n_processed: int


class _OutlierGuessInstance:
    """One parallel instance of the buffered streaming outlier algorithm."""

    def __init__(self, k: int, z: int, metric, initial_guess: float, buffer_capacity: int) -> None:
        self._k = k
        self._z = z
        self._metric = metric
        self.guess = float(initial_guess)
        self._centers = _CenterSet(metric)
        self._free: list[np.ndarray] = []
        self._capacity = buffer_capacity
        self.restarts = 0
        #: Largest centers + free-buffer total ever held.
        self.peak_size = 0

    def _note_memory(self) -> None:
        self.peak_size = max(self.peak_size, self.size)

    @property
    def size(self) -> int:
        return len(self._centers) + len(self._free)

    @property
    def centers(self) -> np.ndarray:
        return np.array(self._centers.points) if self._centers else np.empty((0, 0))

    @property
    def n_uncovered(self) -> int:
        return len(self._free)

    def _consolidate(self) -> None:
        """Open new centers from dense regions of the free buffer.

        While fewer than ``k`` centers are open and some free point has at
        least ``z + 1`` free points within ``2 * guess`` of it, that point
        becomes a center and every free point within ``4 * guess`` of it is
        dropped from the buffer (it is now covered).
        """
        while len(self._centers) < self._k and self._free:
            free_points = np.vstack(self._free)
            pairwise = self._metric.pairwise(free_points)
            ball_sizes = (pairwise <= 2.0 * self.guess).sum(axis=1)
            candidate = int(np.argmax(ball_sizes))
            if ball_sizes[candidate] < self._z + 1:
                break
            center = free_points[candidate]
            self._centers.add(center)
            self._note_memory()
            keep_mask = self._metric.point_to_points(center, free_points) > 4.0 * self.guess
            self._free = [free_points[i] for i in np.flatnonzero(keep_mask)]

    def _escalate(self) -> None:
        """The guess was too small: double it, re-merge centers, re-filter the buffer."""
        self.guess *= 2.0
        self.restarts += 1
        _separated(self._centers, 4.0 * self.guess)
        if self._free and self._centers:
            free_points = np.vstack(self._free)
            covered = (
                self._metric.cdist(free_points, self._centers.points).min(axis=1)
                <= 4.0 * self.guess
            )
            self._free = [free_points[i] for i in np.flatnonzero(~covered)]

    def process_batch(self, batch: np.ndarray) -> None:
        """Buffer every point farther than ``4 * guess`` from all centers.

        Coverage against the current centers is computed for the whole
        tail at once; uncovered points are appended to the free buffer in
        bulk up to the overflow trigger, at which point consolidation (and
        possibly escalation) runs and — since centers and guess may have
        changed — the remaining tail is reswept.
        """
        position = 0
        n = batch.shape[0]
        while position < n:
            tail = batch[position:]
            if self._centers:
                dmin, _ = self._metric.nearest(tail, self._centers.points)
                uncovered = np.flatnonzero(dmin > 4.0 * self.guess)
            else:
                uncovered = np.arange(tail.shape[0])
            # The (room)-th uncovered point pushes the buffer past capacity
            # and triggers consolidation before the next point is looked at.
            room = self._capacity + 1 - len(self._free)
            if uncovered.size < room:
                self._free.extend(np.array(tail[i]) for i in uncovered)
                self._note_memory()
                return
            taken = uncovered[:room]
            self._free.extend(np.array(tail[i]) for i in taken)
            self._note_memory()
            position += int(taken[-1]) + 1
            self._consolidate()
            while len(self._free) > self._capacity:
                self._escalate()
                self._consolidate()


class BaseStreamOutliers(_GuessParallelStream):
    """BASEOUTLIERS: buffered guess-parallel streaming k-center with outliers.

    Parameters
    ----------
    k, z:
        Number of centers and outlier budget.
    n_instances:
        Number of parallel guess instances ``m`` (the space knob of
        Figure 5: total space is roughly ``m * k * z`` stored points).
    buffer_capacity:
        Per-instance buffer size for uncovered points; defaults to
        ``k * z`` as in [27] (plus the ``z`` slots needed to hold the true
        outliers).
    metric:
        Metric name or instance.
    """

    def __init__(
        self,
        k: int,
        z: int,
        *,
        n_instances: int = 1,
        buffer_capacity: int | None = None,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.z = check_non_negative_int(z, name="z")
        super().__init__(n_instances, metric, seed_size=self.k + self.z + 1)
        if buffer_capacity is None:
            buffer_capacity = self.k * max(self.z, 1) + self.z
        self.buffer_capacity = check_positive_int(buffer_capacity, name="buffer_capacity")
        if self.buffer_capacity < self.z + 1:
            raise InvalidParameterError("buffer_capacity must exceed z")

    def _new_instance(self, guess: float) -> _OutlierGuessInstance:
        return _OutlierGuessInstance(self.k, self.z, self.metric, guess, self.buffer_capacity)

    def finalize(self) -> BaseOutliersSolution:
        """Pick the instance with the smallest guess whose uncovered buffer fits in ``z``.

        If no instance satisfies the budget (which can happen when the
        buffer capacity is tight), the instance leaving the fewest
        uncovered points wins; its leftover buffer points are treated as
        extra centers up to the budget ``k`` before being declared outliers.
        """
        if not self._instances:
            if not self._buffer:
                raise NotFittedError("no points have been processed yet")
            centers = np.vstack(self._buffer[: self.k])
            return BaseOutliersSolution(
                centers=centers,
                guess=0.0,
                n_uncovered=max(0, len(self._buffer) - self.k),
                instance_index=0,
                n_processed=self._n_processed,
            )

        feasible = [
            (instance.guess, index)
            for index, instance in enumerate(self._instances)
            if instance.n_uncovered <= self.z and instance.size > 0
        ]
        if feasible:
            _, best_index = min(feasible)
        else:
            best_index = int(
                np.argmin([instance.n_uncovered for instance in self._instances])
            )
        best = self._instances[best_index]
        # Force consolidation so dense leftover regions become centers.
        best._consolidate()
        centers = best.centers
        if centers.size == 0 and best._free:
            centers = np.vstack(best._free[: self.k])
        return BaseOutliersSolution(
            centers=centers,
            guess=best.guess,
            n_uncovered=best.n_uncovered,
            instance_index=best_index,
            n_processed=self._n_processed,
        )
