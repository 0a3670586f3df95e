"""Composable coreset construction (the heart of the paper).

Each MapReduce worker (or the single streaming/sequential worker with
``ell = 1``) turns its partition ``S_i`` into a small *coreset* ``T_i`` by
running the incremental GMM traversal until a stopping condition is met,
and — for the outlier formulation — attaches to every coreset point the
number of partition points whose closest coreset point (proxy) it is.

Two stopping rules are supported, matching the paper:

* the **epsilon rule** of the analysis (Sections 3.1/3.2): run at least
  ``k`` (resp. ``k + z``) iterations, then continue until
  ``r_{T^tau}(S_i) <= (eps/2) * r_{T^k}(S_i)``;
* the **size rule** used by the experiments (Section 5): stop when the
  coreset reaches ``tau = mu * k`` (resp. ``mu * (k + z)``) points.

:class:`CoresetSpec` encodes the chosen rule; :func:`build_coreset` and
:func:`build_weighted_coreset` apply it to one partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import (
    check_epsilon,
    check_non_negative_int,
    check_points,
    check_positive_int,
)
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints
from .gmm import GMM

__all__ = ["CoresetSpec", "CoresetResult", "build_coreset", "build_weighted_coreset"]


@dataclass(frozen=True)
class CoresetSpec:
    """How large a per-partition coreset should be.

    Exactly one of the two stopping rules is active:

    * ``epsilon`` — the theoretical rule; the coreset has at least
      ``base_size`` points and grows until the GMM radius is at most
      ``epsilon/2`` times the radius after ``base_size`` centers;
    * ``size_multiplier`` (``mu``) — the experimental rule; the coreset has
      exactly ``mu * base_size`` points (capped at the partition size).

    ``base_size`` is ``k`` for plain k-center, ``k + z`` for the
    deterministic outlier algorithm, and ``k + z'`` for the randomized
    variant; callers compute it and pass it in.

    Attributes
    ----------
    base_size:
        The reference number of centers (``k``, ``k+z``, ...).
    epsilon:
        Precision parameter of the epsilon rule, or ``None``.
    size_multiplier:
        The ``mu`` of the size rule, or ``None``.
    max_size:
        Optional hard cap on the coreset size under either rule.
    """

    base_size: int
    epsilon: float | None = None
    size_multiplier: float | None = None
    max_size: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.base_size, name="base_size")
        if (self.epsilon is None) == (self.size_multiplier is None):
            raise InvalidParameterError(
                "exactly one of epsilon and size_multiplier must be given"
            )
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        if self.size_multiplier is not None:
            multiplier = float(self.size_multiplier)
            if multiplier < 1.0:
                raise InvalidParameterError("size_multiplier must be >= 1")
            object.__setattr__(self, "size_multiplier", multiplier)
        if self.max_size is not None:
            max_size = check_positive_int(self.max_size, name="max_size")
            if max_size < self.base_size:
                raise InvalidParameterError("max_size must be at least base_size")
            object.__setattr__(self, "max_size", max_size)

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def from_epsilon(base_size: int, epsilon: float, *, max_size: int | None = None) -> "CoresetSpec":
        """Spec using the theoretical epsilon stopping rule."""
        return CoresetSpec(base_size=base_size, epsilon=epsilon, max_size=max_size)

    @staticmethod
    def from_multiplier(base_size: int, mu: float, *, max_size: int | None = None) -> "CoresetSpec":
        """Spec using the experimental ``tau = mu * base_size`` rule."""
        return CoresetSpec(base_size=base_size, size_multiplier=mu, max_size=max_size)

    def target_size(self) -> int | None:
        """The explicit coreset size, or ``None`` under the epsilon rule."""
        if self.size_multiplier is None:
            return None
        size = int(round(self.size_multiplier * self.base_size))
        if self.max_size is not None:
            size = min(size, self.max_size)
        return size


@dataclass(frozen=True)
class CoresetResult:
    """A per-partition coreset with its proxy bookkeeping.

    Attributes
    ----------
    coreset:
        The weighted coreset points (weights are the proxy counts; they are
        all 1 when the caller asked for an unweighted coreset).
    center_indices:
        Indices of the coreset points within the partition they were
        extracted from.
    proxy_assignment:
        For each partition point, the position (into ``center_indices``) of
        its proxy, i.e. its closest coreset point.
    proxy_distances:
        Distance of each partition point to its proxy. The maximum of this
        vector is the quantity bounded by Lemmas 2 and 4.
    gmm_radius_at_base:
        GMM radius after ``base_size`` iterations (used by the epsilon rule
        and reported for diagnostics).
    """

    coreset: WeightedPoints
    center_indices: np.ndarray
    proxy_assignment: np.ndarray
    proxy_distances: np.ndarray
    gmm_radius_at_base: float

    @property
    def size(self) -> int:
        """Number of coreset points."""
        return len(self.coreset)

    @property
    def max_proxy_distance(self) -> float:
        """Largest distance from a partition point to its proxy."""
        return float(self.proxy_distances.max()) if self.proxy_distances.size else 0.0


def _run_gmm_for_spec(
    points: np.ndarray,
    spec: CoresetSpec,
    metric: Metric,
    first_center: int | None,
    random_state,
) -> GMM:
    """Run the incremental GMM traversal according to ``spec``'s stopping rule."""
    traversal = GMM(points, metric, first_center=first_center, random_state=random_state)
    n = traversal.n_points
    base = min(spec.base_size, n)
    traversal.extend_to(base)

    if spec.size_multiplier is not None:
        traversal.extend_to(min(spec.target_size(), n))
        return traversal

    # The traversal may saturate before reaching `base` centers (duplicate
    # points); reference the radius at however many centers it actually has.
    threshold = (spec.epsilon / 2.0) * traversal.radius_at(min(base, traversal.n_centers))
    traversal.extend_until_radius(threshold, max_centers=spec.max_size)
    return traversal


def build_coreset(
    points,
    spec: CoresetSpec,
    metric: str | Metric = "euclidean",
    *,
    weighted: bool = True,
    origin_offset: int = 0,
    first_center: int | None = None,
    random_state=None,
) -> CoresetResult:
    """Build the coreset of one partition according to ``spec``.

    Parameters
    ----------
    points:
        The partition ``S_i`` as an ``(n_i, d)`` matrix.
    spec:
        Stopping rule (see :class:`CoresetSpec`).
    metric:
        Metric name or instance.
    weighted:
        When true (the outlier algorithms), every coreset point carries the
        number of partition points it is proxy for; when false (plain
        k-center), weights are all 1 and the proxy counts are ignored.
    origin_offset:
        Added to the partition-local indices when recording
        ``origin_indices`` so that coresets built from slices of a global
        dataset can refer back to global indices.
    first_center, random_state:
        Forwarded to :class:`~repro.core.gmm.GMM`.

    Returns
    -------
    CoresetResult
    """
    pts = check_points(points)
    origin_offset = check_non_negative_int(origin_offset, name="origin_offset")
    metric = get_metric(metric)

    traversal = _run_gmm_for_spec(pts, spec, metric, first_center, random_state)
    center_indices = traversal.centers
    proxy_assignment = traversal.assignment
    # The traversal's maintained distances are exactly the distances to the
    # closest selected center, i.e. the proxy distances (and they are exact
    # zeros at the centers themselves).
    proxy_distances = traversal.distances_to_centers

    if weighted:
        # Every center is its own proxy, so each weight is at least 1 and the
        # weights sum to the partition size.
        weights = np.bincount(proxy_assignment, minlength=center_indices.shape[0]).astype(
            np.float64
        )
    else:
        weights = np.ones(center_indices.shape[0])

    coreset = WeightedPoints(
        points=pts[center_indices],
        weights=weights,
        origin_indices=center_indices + origin_offset,
    )
    return CoresetResult(
        coreset=coreset,
        center_indices=center_indices,
        proxy_assignment=proxy_assignment,
        proxy_distances=proxy_distances,
        gmm_radius_at_base=traversal.radius_at(min(spec.base_size, traversal.n_centers)),
    )


def build_weighted_coreset(
    points,
    spec: CoresetSpec,
    metric: str | Metric = "euclidean",
    **kwargs,
) -> WeightedPoints:
    """Shorthand for :func:`build_coreset` returning only the weighted coreset."""
    return build_coreset(points, spec, metric, weighted=True, **kwargs).coreset
