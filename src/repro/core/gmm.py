"""GMM: Gonzalez's greedy farthest-first traversal for k-center.

Gonzalez's algorithm [20] is the classical 2-approximation for k-center:
start from an arbitrary point and repeatedly add the point farthest from
the centers selected so far. This module provides an **incremental**
implementation, :class:`GMM`, which is the workhorse of the paper's
coreset constructions — each MapReduce worker keeps extending the
traversal until its stopping condition is met (Section 3), so the state
(distances to the current center set, radius history) must be reusable
between extensions.

Convenience wrappers :func:`gmm_select` (plain k-center selection),
:func:`gmm_until_radius` (grow until a target radius) and
:func:`gmm_adaptive` (the paper's ``r_{T^tau} <= (eps/2) * r_{T^k}`` rule)
cover the common call patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import (
    check_epsilon,
    check_points,
    check_positive_int,
    check_random_state,
)
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric

__all__ = ["GMM", "GMMResult", "gmm_select", "gmm_until_radius", "gmm_adaptive"]


@dataclass(frozen=True)
class GMMResult:
    """Outcome of a (possibly adaptive) GMM run.

    Attributes
    ----------
    centers:
        Indices (into the input point matrix) of the selected centers, in
        selection order.
    radius:
        Radius of the input with respect to the selected centers,
        ``max_s d(s, T)``.
    radius_history:
        ``radius_history[j]`` is the radius after the first ``j + 1``
        centers were selected; it is non-increasing.
    assignment:
        For each input point, the position (in ``centers``) of its closest
        center.
    """

    centers: np.ndarray
    radius: float
    radius_history: np.ndarray
    assignment: np.ndarray

    @property
    def n_centers(self) -> int:
        """Number of selected centers."""
        return int(self.centers.shape[0])


class GMM:
    """Incremental farthest-first traversal over a fixed point matrix.

    Parameters
    ----------
    points:
        ``(n, d)`` matrix of points.
    metric:
        Metric name or :class:`~repro.metricspace.distance.Metric`.
    first_center:
        Index of the first center. ``None`` picks index 0 (deterministic)
        unless ``random_state`` is given, in which case a uniformly random
        index is used — the paper notes that this arbitrary choice is the
        only source of run-to-run variability of the coreset construction.
    random_state:
        Seed or generator used only to pick the first center.

    Notes
    -----
    Each extension step costs one pass over the ``n`` points (the
    distances from the newly added center), so selecting ``tau`` centers
    costs ``O(tau * n)`` distance evaluations — the complexity quoted in
    the paper for the coreset construction. The passes go through one
    :meth:`~repro.metricspace.distance.Metric.distances_from` evaluator
    built per traversal: under the Euclidean metric the squared norms of
    the points are computed once, and each step is one matrix-vector
    product plus in-place ``O(n)`` passes over reused buffers (distances,
    a comparison mask, the conditional updates of distances and
    assignment, and one ``argmax`` that yields both the new radius and
    the next center). Other metrics evaluate
    :meth:`~repro.metricspace.distance.Metric.point_to_points_blocked`
    per step. Either way the values are bit-identical to that method's.
    """

    #: Initial capacity of the growable center/radius-history buffers.
    _INITIAL_CAPACITY = 16

    def __init__(
        self,
        points,
        metric: str | Metric = "euclidean",
        *,
        first_center: int | None = None,
        random_state=None,
    ) -> None:
        self._points = check_points(points)
        metric = get_metric(metric)
        n = self._points.shape[0]
        if first_center is None:
            if random_state is None:
                first_center = 0
            else:
                first_center = int(check_random_state(random_state).integers(n))
        if not 0 <= first_center < n:
            raise InvalidParameterError(
                f"first_center must be a valid point index in [0, {n}); got {first_center}"
            )

        # Centers and radius history live in capacity-doubling buffers so the
        # read-only property views below are O(1) aliases instead of O(tau)
        # copies on every access.
        capacity = self._INITIAL_CAPACITY
        self._centers_buf = np.empty(capacity, dtype=np.intp)
        self._radius_buf = np.empty(capacity, dtype=np.float64)
        self._n_centers = 0

        # The evaluator may return its own scratch buffer, overwritten by the
        # next call: the traversal keeps a copy, which the read-only views of
        # `distances_to_centers` alias.
        self._distances_from = metric.distances_from(self._points)
        self._distances = np.array(self._distances_from(first_center))
        # Vectorised distance kernels can leave ~1e-8 noise on the distance of
        # a point to itself; force exact zeros at selected centers so that a
        # center is never re-selected as the "farthest" point.
        self._distances[first_center] = 0.0
        self._assignment = np.zeros(n, dtype=np.intp)
        self._closer = np.empty(n, dtype=bool)
        self._append_center(int(first_center))

    def _append_center(self, center: int) -> None:
        """Record ``center`` and the radius after it; remember the farthest point.

        The farthest point is both the radius witness and the next center
        to select, so one ``argmax`` gives both.
        """
        self._farthest = int(np.argmax(self._distances))
        if self._n_centers == self._centers_buf.shape[0]:
            self._centers_buf = np.concatenate(
                [self._centers_buf, np.empty_like(self._centers_buf)]
            )
            self._radius_buf = np.concatenate(
                [self._radius_buf, np.empty_like(self._radius_buf)]
            )
        self._centers_buf[self._n_centers] = center
        self._radius_buf[self._n_centers] = self._distances[self._farthest]
        self._n_centers += 1

    @staticmethod
    def _readonly(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    # -- read-only state ------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of points in the underlying matrix."""
        return int(self._points.shape[0])

    @property
    def n_centers(self) -> int:
        """Number of centers selected so far."""
        return self._n_centers

    @property
    def centers(self) -> np.ndarray:
        """Indices of the centers selected so far (selection order).

        Returned as a read-only O(1) view into the traversal's storage
        (no copy); contents reflect the state at access time and may be
        invalidated by further extension. Use :meth:`result` for a
        stable snapshot.
        """
        return self._readonly(self._centers_buf[: self._n_centers])

    @property
    def radius(self) -> float:
        """Current radius ``max_s d(s, T)`` of the traversal."""
        return float(self._radius_buf[self._n_centers - 1])

    @property
    def radius_history(self) -> np.ndarray:
        """Radius after each selection; a non-increasing sequence.

        Read-only view semantics, exactly as :attr:`centers`.
        """
        return self._readonly(self._radius_buf[: self._n_centers])

    @property
    def assignment(self) -> np.ndarray:
        """Closest-center position (into :attr:`centers`) for every point.

        Read-only *aliasing* view: later extension steps update the
        array in place, so a handle obtained here observes them. Copy if
        a snapshot is needed (:meth:`result` does).
        """
        return self._readonly(self._assignment)

    @property
    def distances_to_centers(self) -> np.ndarray:
        """Distance from every point to its closest selected center.

        Read-only view semantics, exactly as :attr:`assignment`.
        """
        return self._readonly(self._distances)

    def radius_at(self, n_centers: int) -> float:
        """Radius the traversal had after selecting ``n_centers`` centers."""
        n_centers = check_positive_int(n_centers, name="n_centers")
        if n_centers > self.n_centers:
            raise InvalidParameterError(
                f"only {self.n_centers} centers selected so far; cannot report radius at {n_centers}"
            )
        return float(self._radius_buf[n_centers - 1])

    # -- extension -------------------------------------------------------------------

    def extend_by_one(self) -> bool:
        """Select one more center (the current farthest point).

        Returns ``False`` without changing state when every point already
        coincides with a center (radius zero) or all points are centers,
        ``True`` otherwise.
        """
        if self.n_centers >= self.n_points or self.radius == 0.0:
            return False
        next_center = self._farthest
        new_distances = self._distances_from(next_center)
        new_distances[next_center] = 0.0
        np.less(new_distances, self._distances, out=self._closer)
        # In-place updates keep previously handed-out views aliased.
        np.copyto(self._distances, new_distances, where=self._closer)
        np.copyto(self._assignment, self._n_centers, where=self._closer)
        self._append_center(next_center)
        return True

    def extend_to(self, n_centers: int) -> None:
        """Extend the traversal until it holds ``n_centers`` centers (or saturates)."""
        n_centers = check_positive_int(n_centers, name="n_centers")
        while self.n_centers < n_centers:
            if not self.extend_by_one():
                break

    def extend_until_radius(
        self, target_radius: float, *, max_centers: int | None = None
    ) -> None:
        """Extend until the radius drops to ``target_radius`` or below.

        Stops early when the traversal saturates or, if ``max_centers`` is
        given, once it holds ``max_centers`` centers. A negative or NaN
        ``target_radius`` and a ``max_centers`` below 1 raise
        :class:`~repro.exceptions.InvalidParameterError`.
        """
        if not target_radius >= 0:
            raise InvalidParameterError(
                f"target_radius must be non-negative; got {target_radius!r}"
            )
        if max_centers is not None:
            max_centers = check_positive_int(max_centers, name="max_centers")
        while self.radius > target_radius and (
            max_centers is None or self.n_centers < max_centers
        ):
            if not self.extend_by_one():
                break

    def result(self) -> GMMResult:
        """Snapshot the current traversal as an immutable :class:`GMMResult`.

        Unlike the property accessors (which return aliasing views), the
        snapshot owns copies, so it stays valid if the traversal keeps
        extending afterwards.
        """
        return GMMResult(
            centers=np.array(self.centers),
            radius=self.radius,
            radius_history=np.array(self.radius_history),
            assignment=np.array(self.assignment),
        )


def gmm_select(
    points,
    k: int,
    metric: str | Metric = "euclidean",
    *,
    first_center: int | None = None,
    random_state=None,
) -> GMMResult:
    """Run GMM to select ``k`` centers (the classical 2-approximation).

    Parameters
    ----------
    points:
        ``(n, d)`` matrix of points.
    k:
        Number of centers; capped at ``n``.
    metric, first_center, random_state:
        Forwarded to :class:`GMM`.
    """
    k = check_positive_int(k, name="k")
    traversal = GMM(points, metric, first_center=first_center, random_state=random_state)
    traversal.extend_to(min(k, traversal.n_points))
    return traversal.result()


def gmm_until_radius(
    points,
    target_radius: float,
    metric: str | Metric = "euclidean",
    *,
    max_centers: int | None = None,
    first_center: int | None = None,
    random_state=None,
) -> GMMResult:
    """Grow a GMM traversal until its radius is at most ``target_radius``.

    ``max_centers`` optionally caps the number of selected centers; without
    a cap the traversal can grow to the full dataset (radius zero).
    """
    traversal = GMM(points, metric, first_center=first_center, random_state=random_state)
    traversal.extend_until_radius(target_radius, max_centers=max_centers)
    return traversal.result()


def gmm_adaptive(
    points,
    k: int,
    epsilon: float,
    metric: str | Metric = "euclidean",
    *,
    max_centers: int | None = None,
    first_center: int | None = None,
    random_state=None,
) -> GMMResult:
    """GMM with the paper's adaptive stopping rule (Sections 3.1 and 3.2).

    The traversal is run for at least ``k`` iterations and then continued
    until the first ``tau >= k`` such that

    ``r_{T^tau}(S) <= (epsilon / 2) * r_{T^k}(S)``,

    i.e. the radius has shrunk to an ``epsilon/2`` fraction of the radius
    reached after ``k`` centers. Lemma 3 shows ``tau <= k * (4/epsilon)^D``
    on datasets of doubling dimension ``D``.

    Parameters
    ----------
    points, k, metric, first_center, random_state:
        As in :func:`gmm_select`.
    epsilon:
        Precision parameter in ``(0, 1]``.
    max_centers:
        Optional safety cap on the coreset size (useful on adversarial
        inputs with effectively unbounded doubling dimension).
    """
    k = check_positive_int(k, name="k")
    epsilon = check_epsilon(epsilon)
    traversal = GMM(points, metric, first_center=first_center, random_state=random_state)
    traversal.extend_to(min(k, traversal.n_points))
    threshold = (epsilon / 2.0) * traversal.radius_at(min(k, traversal.n_centers))
    traversal.extend_until_radius(threshold, max_centers=max_centers)
    return traversal.result()
