"""The Euclidean ``Metric.pairwise`` equals the reference matrix bit for bit.

At every size the Euclidean metric makes the reference's one
``a @ b.T`` product, through the ``dsyrk`` call NumPy makes for it, and
overwrites it tile by tile with the distances,
evaluating each off-diagonal tile once and mirroring it. That equals the
reference's ``(D + D.T) * 0.5`` only while the product is exactly
symmetric, which ``syrk`` guarantees; a guard below fails loudly if
NumPy ever stops taking it. These suites pin that path to
:func:`_reference_pairwise.reference_pairwise` (``euclidean(p, p)``,
then ``(D + D.T) * 0.5`` and a zero diagonal) at every tile size, on
inputs where the steps round, clip or overflow: duplicate and 1-ulp-apart
points, cancellation far from the origin, rows near 1e200 whose squared
norms overflow to inf and NaN, and inputs that are not C-ordered float64
arrays. ``Metric.pairwise`` reads every input as one C-ordered float64
copy, so a list, a C-ordered and a Fortran-ordered array of the same
points take the same BLAS routine (``syrk``) and give the same bits.
The fused path makes that ``syrk`` call itself and reads only the upper
triangle, which must equal NumPy's product under 1 and under 2 BLAS
threads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _openblas as openblas
from repro.datasets import higgs_like
from repro.metricspace import DistanceCounter
from repro.metricspace import distance
from repro.metricspace.distance import _PAIRWISE_TILE, _euclidean_pairwise, get_metric

from _reference_pairwise import reference_pairwise

KINDS = ("gaussian", "duplicates", "ulp", "far", "huge")
FORMS = ("array", "list", "float32", "fortran", "strided")


def _points(kind: str, m: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(m, d))
    if kind == "duplicates":
        points = points[rng.integers(0, max(1, m // 3), size=m)]
    elif kind == "ulp":
        points[1::2] = np.nextafter(points[0 : m - 1 : 2], np.inf)
    elif kind == "far":
        points = 1e6 + 1e-8 * points
    elif kind == "huge":
        points[rng.random(m) < 0.3] *= 1e200
    return points


def _as_form(points: np.ndarray, form: str):
    if form == "list":
        return points.tolist()
    if form == "float32":
        with np.errstate(over="ignore"):
            return points.astype(np.float32)
    if form == "fortran":
        return np.asfortranarray(points)
    if form == "strided":
        m, d = points.shape
        wide = np.zeros((2 * m, d + 1))
        wide[::2, 1:] = points
        return wide[::2, 1:]
    return points


# One-point tiles cost a Python iteration per pair, so they take at most
# 64 points; the larger tiles take up to 300.
_TILE_AND_M = st.sampled_from((1, 7, 64, _PAIRWISE_TILE)).flatmap(
    lambda tile: st.tuples(st.just(tile), st.integers(1, 64 if tile == 1 else 300))
)


@given(
    kind=st.sampled_from(KINDS),
    form=st.sampled_from(FORMS),
    tile_and_m=_TILE_AND_M,
    d=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_euclidean_pairwise_matches_reference(kind, form, tile_and_m, d, seed):
    tile, m = tile_and_m
    points = _as_form(_points(kind, m, d, seed), form)
    with np.errstate(all="ignore"):
        expected = reference_pairwise(points)
        got = _euclidean_pairwise(points, tile)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tile", [7, 64, _PAIRWISE_TILE, 512])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("m", [257, 300])
def test_gemm_and_syrk_inputs_match_reference(form, m, tile):
    # At these sizes a list input converted twice (once per operand) took
    # gemm where a C-ordered float64 array takes syrk, and changed the
    # product's last rows and columns. A 512-point tile holds the whole
    # matrix, so those entries meet their mirror inside one diagonal tile.
    # Every form must match its own reference.
    points = _as_form(_points("gaussian", m, 7, seed=m), form)
    assert _euclidean_pairwise(points, tile).tobytes() == reference_pairwise(points).tobytes()


@pytest.mark.parametrize("m", [256, 257, 300, 2048])
def test_pairwise_bits_do_not_depend_on_input_layout(m):
    # 257 and 300 rows took gemm for a list and a Fortran-ordered array
    # and syrk for a C-ordered one.
    points = _points("gaussian", m, 7, seed=m)
    metric = get_metric("euclidean")
    expected = metric.pairwise(points).tobytes()
    for form in ("list", "fortran"):
        assert metric.pairwise(_as_form(points, form)).tobytes() == expected


@pytest.mark.parametrize("m", [2048, 5440])
def test_pairwise_matches_reference_at_round_two_sizes(m):
    # 5440 is the round-2 union of the MapReduce outlier benchmark.
    points = higgs_like(m, random_state=m)
    got = get_metric("euclidean").pairwise(points)
    expected = reference_pairwise(points)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.fixture(params=[1, 2], ids=["1-blas-thread", "2-blas-threads"])
def blas_thread_count(request):
    """Run the test under 1 and under 2 OpenBLAS threads, then restore the count."""
    calls = openblas._openblas_threading()
    if calls is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    get_threads, set_threads = calls
    original = get_threads()
    set_threads(request.param)
    try:
        yield request.param
    finally:
        set_threads(original)


@pytest.mark.parametrize("m", [2048, 2049, 3000, 4097, 5440])
def test_gram_matrix_is_exactly_symmetric(m, blas_thread_count):
    # The once-per-pair tile pass reads the upper triangle of the direct
    # ``dsyrk`` product and mirrors x where the reference averages x with
    # y.T. That equals the reference only if the direct triangle is
    # NumPy's, bit for bit, and NumPy's ``P @ P.T`` is exactly symmetric.
    points = np.ascontiguousarray(higgs_like(m, random_state=m), dtype=np.float64)
    gram = points @ points.T
    assert np.array_equal(gram.view(np.uint64), gram.T.view(np.uint64))
    direct = openblas.syrk_upper(points)
    for row in range(m):
        assert direct[row, row:].tobytes() == gram[row, row:].tobytes(), row


@pytest.mark.parametrize("form", ["list", "array", "fortran"])
@pytest.mark.parametrize("m", [2049, 3000])
def test_once_per_pair_path_matches_reference(form, m):
    points = _as_form(_points("gaussian", m, 7, seed=m), form)
    got = get_metric("euclidean").pairwise(points)
    assert got.tobytes() == reference_pairwise(points).tobytes()


def _sized_points(kind: str, m: int, d: int) -> np.ndarray:
    points = np.random.default_rng(m * 16 + d).normal(size=(m, d))
    if kind == "duplicates":
        points = points[np.random.default_rng(m).integers(0, max(1, m // 3), size=m)]
    elif kind == "grid":
        points = np.round(points * 4.0) / 4.0
    elif kind == "offset":
        points = points + 1e6
    return points


@pytest.mark.parametrize("kind", ["gaussian", "duplicates", "grid", "offset"])
@pytest.mark.parametrize("m", [1, 2, 3, 191, 192, 193, 1377, 1761, 2047])
def test_pairwise_takes_fused_path_at_every_size(monkeypatch, kind, m, blas_thread_count):
    # 1761 rows is the streaming merge's matrix at tau = 1760; 191-193
    # straddle the tile edge, 1-3 the smallest products.
    calls = []
    fused = distance._euclidean_pairwise

    def spy(points, *args):
        calls.append(len(points))
        return fused(points, *args)

    monkeypatch.setattr(distance, "_euclidean_pairwise", spy)
    points = _sized_points(kind, m, d=m % 15 + 1)
    got = get_metric("euclidean").pairwise(points)
    assert calls == [m]
    assert got.tobytes() == reference_pairwise(points).tobytes()


def test_counted_pairwise_counts_every_pair():
    points = higgs_like(300, random_state=2)
    counter = DistanceCounter("euclidean")
    matrix = counter.metric.pairwise(points)
    m = points.shape[0]
    assert counter.count == m * m
    assert np.array_equal(matrix.view(np.uint64), reference_pairwise(points).view(np.uint64))
