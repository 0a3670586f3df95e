"""Test-only reference for the blocked nearest-center kernel.

:func:`reference_nearest` is :meth:`Metric.nearest` written the way it
computed every metric before the Euclidean metric took its own path:
each row block of ``a`` gets its full cross-distance matrix from
``metric.cross`` (the element-wise steps of
:func:`~repro.metricspace.distance.euclidean`, each into a fresh
temporary), and the block's ``argmin`` picks every row's nearest
candidate. The distance kernel suites require ``Metric.nearest`` to
match it bit for bit: the distance bytes and the indices.
"""

from __future__ import annotations

import numpy as np

from repro.metricspace.distance import DEFAULT_BLOCK_ELEMENTS, Metric, get_metric


def reference_nearest(
    a: np.ndarray,
    b: np.ndarray,
    metric: str | Metric = "euclidean",
    max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(least distance, lowest index attaining it)`` of ``a`` in ``b``."""
    metric = get_metric(metric)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    n, m = a.shape[0], b.shape[0]
    distances = np.empty(n, dtype=np.float64)
    indices = np.empty(n, dtype=np.intp)
    block = max(1, max_block_elements // (max(1, m) * max(1, a.shape[1])))
    for start in range(0, n, block):
        stop = min(start + block, n)
        cross = metric.cross(a[start:stop], b)
        argmin = cross.argmin(axis=1)
        indices[start:stop] = argmin
        distances[start:stop] = cross[np.arange(cross.shape[0]), argmin]
    return distances, indices
