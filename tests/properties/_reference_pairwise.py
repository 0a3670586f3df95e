"""Test-only reference for the Euclidean pairwise distance matrix.

:func:`reference_pairwise` is :meth:`Metric.pairwise` for the Euclidean
metric written the way it computed every input before large inputs took
:func:`~repro.metricspace.distance._euclidean_pairwise`: the full
``euclidean(points, points)`` matrix of one C-ordered float64 copy of
``points`` (each element-wise step into a fresh ``(m, m)`` temporary),
symmetrised in place as ``(D + D.T) * 0.5`` with a zero diagonal. The
distance kernel suites require the fused path to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.metricspace.distance import euclidean


def reference_pairwise(points: np.ndarray) -> np.ndarray:
    """Symmetric Euclidean distance matrix of ``points`` with a zero diagonal."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    matrix = euclidean(points, points)
    matrix += matrix.T
    matrix *= 0.5
    np.fill_diagonal(matrix, 0.0)
    return matrix
