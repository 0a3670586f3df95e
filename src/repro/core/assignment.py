"""Cluster assignment and radius evaluation utilities.

These helpers implement the objective functions of the two problem
formulations:

* plain k-center radius ``r_T(S) = max_s d(s, T)``;
* the outlier radius ``r_{T,Z_T}(S)``, the maximum distance once the ``z``
  farthest points are discarded.

They are used both by the solvers (to report solution quality) and by the
evaluation harness (to compute empirical approximation ratios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative_int, check_points
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric

__all__ = [
    "Clustering",
    "assign_to_centers",
    "clustering_radius",
    "radius_with_outliers",
    "evaluate_solution",
]


@dataclass(frozen=True)
class Clustering:
    """A clustering of a point set induced by a set of center coordinates.

    Attributes
    ----------
    centers:
        ``(k, d)`` coordinates of the centers.
    assignment:
        For each input point, the index (into ``centers``) of its closest
        center.
    distances:
        Distance of each input point to its assigned center.
    radius:
        Plain k-center radius (max of ``distances``).
    """

    centers: np.ndarray
    assignment: np.ndarray
    distances: np.ndarray
    radius: float

    @property
    def n_clusters(self) -> int:
        """Number of centers."""
        return int(self.centers.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each center."""
        return np.bincount(self.assignment, minlength=self.n_clusters)

    def radius_excluding(self, n_outliers: int) -> float:
        """Radius after discarding the ``n_outliers`` farthest points."""
        return radius_from_distances(self.distances, n_outliers)

    def outlier_indices(self, n_outliers: int) -> np.ndarray:
        """Indices of the ``n_outliers`` points farthest from their centers.

        Ties at the cut-off are broken deterministically towards larger
        indices (stable sort), the same tie-break the MapReduce drivers'
        evaluation round uses.
        """
        n_outliers = check_non_negative_int(n_outliers, name="n_outliers")
        if n_outliers == 0:
            return np.empty(0, dtype=np.intp)
        order = np.argsort(self.distances, kind="stable")
        return np.sort(order[-n_outliers:])


def assign_to_centers(
    points, centers, metric: str | Metric = "euclidean"
) -> Clustering:
    """Assign every point to its closest center and compute the radius.

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    centers:
        ``(k, d)`` center coordinates (need not be a subset of ``points``).
    metric:
        Metric name or instance.
    """
    pts = check_points(points)
    ctrs = check_points(centers, name="centers")
    if pts.shape[1] != ctrs.shape[1]:
        raise InvalidParameterError(
            f"points and centers must share the dimension; got {pts.shape[1]} and {ctrs.shape[1]}"
        )
    metric = get_metric(metric)
    # Blocked nearest-center kernel: the full (n, k) cross matrix is never
    # materialised, so assigning a huge dataset to a handful of centers
    # costs O(n) output memory instead of O(n * k).
    distances, assignment = metric.nearest(pts, ctrs)
    return Clustering(
        centers=ctrs,
        assignment=assignment,
        distances=distances,
        radius=float(distances.max()),
    )


def radius_from_distances(distances: np.ndarray, n_outliers: int = 0) -> float:
    """Radius of a clustering given per-point distances, discarding outliers.

    With ``n_outliers == 0`` this is simply the maximum distance; otherwise
    the ``n_outliers`` largest distances are ignored (ties broken by
    position, as the paper allows arbitrary tie breaking).
    """
    distances = np.asarray(distances, dtype=np.float64)
    n_outliers = check_non_negative_int(n_outliers, name="n_outliers")
    if distances.ndim != 1 or distances.size == 0:
        raise InvalidParameterError("distances must be a non-empty 1-d array")
    if n_outliers >= distances.size:
        return 0.0
    if n_outliers == 0:
        return float(distances.max())
    # partition is O(n); the (n_outliers) largest values are dropped.
    kth = distances.size - n_outliers - 1
    return float(np.partition(distances, kth)[kth])


def clustering_radius(points, centers, metric: str | Metric = "euclidean") -> float:
    """Plain k-center radius of ``points`` w.r.t. ``centers``."""
    return assign_to_centers(points, centers, metric).radius


def radius_with_outliers(
    points, centers, n_outliers: int, metric: str | Metric = "euclidean"
) -> float:
    """Outlier-aware radius: max distance after discarding ``n_outliers`` points."""
    clustering = assign_to_centers(points, centers, metric)
    return clustering.radius_excluding(n_outliers)


def evaluate_solution(
    points,
    centers,
    *,
    n_outliers: int = 0,
    metric: str | Metric = "euclidean",
) -> dict:
    """Summary statistics of a k-center solution.

    Returns a dictionary with the plain radius, the outlier-aware radius,
    cluster sizes, and the indices the solution would declare outliers —
    the quantities the experiment harness logs for every run.
    """
    clustering = assign_to_centers(points, centers, metric)
    return {
        "radius": clustering.radius,
        "radius_with_outliers": clustering.radius_excluding(n_outliers),
        "n_centers": clustering.n_clusters,
        "cluster_sizes": clustering.cluster_sizes(),
        "outlier_indices": clustering.outlier_indices(n_outliers),
    }
