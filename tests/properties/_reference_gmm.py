"""Test-only reference for the GMM traversal's per-step rule.

:func:`reference_traversal` is the farthest-first traversal written the
way :class:`repro.core.gmm.GMM` computed it before its steps went through
:meth:`Metric.distances_from`: every pass calls
:meth:`Metric.point_to_points_blocked`, the update uses a fresh boolean
mask and fancy-index writes, and the next center and the radius come
from separate ``argmax`` and ``max`` passes. The GMM property suite
requires the traversal to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.metricspace.distance import Metric, get_metric


def reference_traversal(
    points: np.ndarray, metric: str | Metric, first_center: int, n_centers: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Select up to ``n_centers`` centers starting from ``first_center``.

    Returns ``(centers, radius_history, assignment, distances_to_centers)``.
    """
    metric = get_metric(metric)
    n = points.shape[0]
    distances = metric.point_to_points_blocked(points[first_center], points)
    distances[first_center] = 0.0
    assignment = np.zeros(n, dtype=np.intp)
    centers = [first_center]
    history = [float(distances.max())]
    while len(centers) < n_centers:
        if len(centers) >= n or history[-1] == 0.0:
            break
        next_center = int(np.argmax(distances))
        new_distances = metric.point_to_points_blocked(points[next_center], points)
        new_distances[next_center] = 0.0
        closer = new_distances < distances
        distances[closer] = new_distances[closer]
        assignment[closer] = len(centers)
        centers.append(next_center)
        history.append(float(distances.max()))
    return (
        np.array(centers, dtype=np.intp),
        np.array(history, dtype=np.float64),
        assignment,
        distances,
    )
