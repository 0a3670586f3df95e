"""Output checks, recomputed independently of the solvers' own kernels.

The solvers measure Euclidean distances with the Gram expansion
``|x|^2 + |y|^2 - 2 x.y`` (``repro.metricspace.distance.euclidean``).
The checks here subtract coordinates directly, in row blocks, so a bug
in the shared kernel cannot hide itself. The two formulas round
differently, so radii are compared with a relative tolerance far below
any real error.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance between the solver's radii and the recomputed ones.
RTOL = 1e-7
BLOCK_ROWS = 16_384


def center_distances(points: np.ndarray, centers: np.ndarray):
    """Distance from each point to its closest center, and from each center
    to its closest point, by direct coordinate differences in row blocks."""
    centers = np.asarray(centers, dtype=np.float64)
    to_center = np.empty(points.shape[0], dtype=np.float64)
    to_point = np.full(centers.shape[0], np.inf)
    for start in range(0, points.shape[0], BLOCK_ROWS):
        block = points[start : start + BLOCK_ROWS]
        diff = block[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        to_center[start : start + block.shape[0]] = dist.min(axis=1)
        np.minimum(to_point, dist.min(axis=0), out=to_point)
    return to_center, to_point


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


def _check_centers(points, centers, center_indices, k) -> list[str]:
    problems = []
    if not 1 <= centers.shape[0] <= k:
        problems.append(f"{centers.shape[0]} centers returned for k={k}")
    if center_indices is not None:
        if center_indices.min() < 0 or center_indices.max() >= points.shape[0]:
            problems.append("center index out of range")
        elif not np.array_equal(points[center_indices], centers):
            problems.append("centers differ from the input rows their indices name")
    return problems


def check_kcenter(points, result, k: int) -> list[str]:
    """Problems with an ``MRKCenterResult`` (empty list when it is right)."""
    problems = _check_centers(points, result.centers, result.center_indices, k)
    if problems:
        return problems
    distances, _ = center_distances(points, result.centers)
    if not _close(float(distances.max()), result.radius):
        problems.append(
            f"radius {result.radius!r} but recomputed {float(distances.max())!r}"
        )
    return problems


def check_outliers(points, result, k: int, z: int) -> list[str]:
    """Problems with an ``MROutliersResult``: radii and the outlier set."""
    problems = _check_centers(points, result.centers, result.center_indices, k)
    if problems:
        return problems
    distances, _ = center_distances(points, result.centers)
    order = np.sort(distances)
    if not _close(float(order[-1]), result.radius_all_points):
        problems.append(
            f"radius_all_points {result.radius_all_points!r} but recomputed {float(order[-1])!r}"
        )
    if not _close(float(order[-(z + 1)]), result.radius):
        problems.append(
            f"radius {result.radius!r} but recomputed {float(order[-(z + 1)])!r}"
        )
    outliers = np.asarray(result.outlier_indices)
    if outliers.shape[0] != z or np.unique(outliers).shape[0] != z:
        problems.append(f"{outliers.shape[0]} outliers returned for z={z}")
    elif z:
        # Every outlier is at least as far as the farthest kept point.
        kept = np.ones(points.shape[0], dtype=bool)
        kept[outliers] = False
        nearest_outlier = float(distances[outliers].min())
        farthest_kept = float(distances[kept].max())
        if nearest_outlier < farthest_kept and not _close(nearest_outlier, farthest_kept):
            problems.append(
                f"outlier at distance {nearest_outlier!r} while a kept point is at "
                f"{farthest_kept!r}"
            )
    return problems


def check_stream_outliers(points, solution, k: int, z: int) -> list[str]:
    """Problems with a ``StreamOutliersSolution`` over ``points``.

    The streaming solver returns centers only, so the check recomputes
    the radius excluding ``z`` itself and requires the centers to be
    input points, every point to have been processed, and the radius
    to be finite and positive.
    """
    problems = _check_centers(points, solution.centers, None, k)
    if solution.n_processed != points.shape[0]:
        problems.append(
            f"{solution.n_processed} points processed of {points.shape[0]}"
        )
    if problems:
        return problems
    distances, to_point = center_distances(points, solution.centers)
    if np.any(to_point != 0.0):
        problems.append("a returned center is not an input point")
    radius = float(np.sort(distances)[-(z + 1)])
    if not (np.isfinite(radius) and radius > 0.0):
        problems.append(f"radius excluding z is {radius!r}")
    return problems


def same_arrays(a, b) -> bool:
    """Bit-identical tuples of arrays and floats."""
    return len(a) == len(b) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a, b)
    )
