"""The Euclidean ``Metric.nearest`` equals the blocked reference bit for bit.

The Euclidean metric takes the argmin of a one-pass proxy and computes
the exact distance only at the winner, falling back to the whole row
when another candidate lies within the rounding slack. These suites
pin it to :func:`_reference_nearest.reference_nearest` (today's blocked
loop) on inputs built to hit that slack: duplicate and 1-ulp-apart
centers, cancellation far from the origin where squared distances clip
at zero, and coordinates near 1e200 where the squared norms overflow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import higgs_like
from repro.metricspace import distance
from repro.metricspace.distance import DEFAULT_BLOCK_ELEMENTS, get_metric

from _reference_nearest import reference_nearest

KINDS = ("gaussian", "duplicates", "ulp", "far", "huge", "huge_center")


def _inputs(kind: str, n: int, m: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(m, d))
    a = rng.normal(size=(n, d))
    if kind == "duplicates":
        b = b[rng.integers(0, max(1, m // 3), size=m)]
    elif kind == "ulp":
        b[1::2] = np.nextafter(b[0 : m - 1 : 2], np.inf)
    elif kind == "far":
        b = 1e6 + 1e-8 * b
        a = 1e6 + 1e-8 * a
    elif kind == "huge":
        a[rng.random(n) < 0.5] *= 1e200
    elif kind == "huge_center":
        b[rng.integers(0, m)] *= 1e200
    # Half of the queries sit exactly on a center, so exact ties are common.
    on_center = rng.random(n) < 0.5
    a[on_center] = b[rng.integers(0, m, size=int(on_center.sum()))]
    return a, b


def _assert_same(a: np.ndarray, b: np.ndarray, max_block_elements: int) -> None:
    metric = get_metric("euclidean")
    with np.errstate(all="ignore"):
        expected = reference_nearest(a, b, metric, max_block_elements)
        got = metric.nearest(a, b, max_block_elements=max_block_elements)
    assert got[0].tobytes() == expected[0].tobytes()
    assert np.array_equal(got[1], expected[1])


@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 300),
    m=st.integers(1, 300),
    d=st.integers(1, 9),
    max_block_elements=st.sampled_from((9, 200, DEFAULT_BLOCK_ELEMENTS)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_euclidean_nearest_matches_reference(kind, n, m, d, max_block_elements, seed):
    a, b = _inputs(kind, n, m, d, seed)
    _assert_same(a, b, max_block_elements)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "n, m, d",
    [
        (300, 300, 9),  # two proxy slices in one block
        (9000, 64, 2),  # one tall block settled in several row groups
        (5000, 20, 3),  # few candidates: every slice computed exactly
    ],
)
def test_euclidean_nearest_matches_reference_on_large_shapes(kind, n, m, d):
    a, b = _inputs(kind, n, m, d, seed=n + m + d)
    _assert_same(a, b, DEFAULT_BLOCK_ELEMENTS)


def test_euclidean_nearest_matches_reference_at_the_sweep_shape():
    # The streaming sweep's shape: 1024-row chunks against a full
    # coreset of 8 * (k + z) = 1760 centers, d = 7.
    points = higgs_like(1024 + 1760, random_state=7)
    _assert_same(points[:1024], points[1024:], DEFAULT_BLOCK_ELEMENTS)


def test_duplicate_centers_take_the_exact_path(monkeypatch):
    calls = []
    exact_rows = distance._exact_rows

    def spy(aa, *args):
        calls.append(aa.shape[0])
        return exact_rows(aa, *args)

    monkeypatch.setattr(distance, "_exact_rows", spy)
    a, b = _inputs("duplicates", 200, 64, 3, seed=5)
    _assert_same(a, b, DEFAULT_BLOCK_ELEMENTS)
    assert 0 < sum(calls) < a.shape[0]
