"""Distance functions over point matrices.

The algorithms in this package only ever need three primitives, all of
which are provided here in vectorised NumPy form:

* distance between one point and many points (:func:`point_to_points`),
* the full pairwise distance matrix of a small set (:func:`pairwise`),
* cross distances between two sets (:func:`cdist`).

For the batched streaming engine two blocked variants are provided on
:class:`Metric`: :meth:`Metric.cdist_blocked` computes the full cross
matrix in row blocks so the broadcast temporaries of the L1/L-inf
metrics stay bounded, and :meth:`Metric.nearest` reduces each block to
per-row ``(min distance, argmin index)`` without ever materialising the
full ``batch x centers`` product — the primitive the batched doubling
coreset, round 3 of the MapReduce solvers and the point assignment are
built on. Both raise :class:`~repro.exceptions.InvalidParameterError`
when the two row sets differ in dimension.

The Euclidean :meth:`Metric.nearest` keeps each block's GEMM but never
forms the block's distances: it takes every row's argmin on the proxy
``||y||^2 / 2 - x.y`` (one pass per L2-sized slice of the GEMM output),
computes the exact distance only at the winner, and recomputes the whole
row the way :func:`euclidean` does when another candidate lies within a
proven rounding slack of the winner (ties, near ties, clipped negatives,
non-finite values). Its results are bit for bit those of the blocked
loop the other metrics (and a :class:`DistanceCounter`) still run; its
memory is one GEMM block plus the output and one 512 KiB slice. Against
fewer than 64 candidates it evaluates each slice exactly instead, in
place in the slice buffer. The slack is derived in
:func:`_euclidean_nearest`.

The Euclidean :meth:`Metric.pairwise` takes :func:`_euclidean_pairwise`
at every size: it computes :func:`euclidean`'s one ``a @ b.T`` product,
on the same C-ordered float64 copy of ``points`` that the reference path
reads, with the same ``dsyrk`` call NumPy makes but without NumPy's copy
of the upper triangle into the lower one. It then overwrites the product
in one pass over pairs of 192-row tiles with the distances, each step
element-wise and in the reference's order. The reference's product is
exactly symmetric, so each off-diagonal tile is evaluated once, from the
upper triangle, and mirrored: the reference's ``(D + D.T) * 0.5`` would
return it unchanged. The result is bit for bit the reference's; the
memory is one ``(m, m)`` matrix and one tile instead of the reference's
full-size temporaries. The reference path (:attr:`Metric.cross` on the
whole set, then an in-place symmetrisation) remains for the other
metrics and for a :class:`DistanceCounter`.

Fewer live bytes need not mean a lower peak RSS. Below 32 MiB (2048
rows) glibc's dynamic mmap threshold may keep a freed matrix on its heap.
With the streaming merge's 1761-row (24.8 MB) matrices on this path, the
``stream-outliers`` benchmark's peak RSS, counted from after its set-up,
rose from 287.4 to 311.0 MiB against the reference path, while over
three solves the live bytes peaked at 26.8 MiB against 47.6 MiB and the
process's whole-run peak RSS at 189.7 against 213.1 MiB: glibc kept one
freed matrix at the top of the heap that set-up left (23.8 MiB free
there against 11.6 MiB).

For the incremental GMM traversal, :meth:`Metric.distances_from` binds a
one-to-many evaluator to a fixed point matrix: ``f(i)`` returns the
distances from row ``i`` to every row, bit for bit the values of
:meth:`Metric.point_to_points_blocked`. The Euclidean evaluator computes
the squared row norms once and reuses its buffers, so each call is one
matrix-vector product plus in-place ``O(n)`` passes; every other metric
(including a :class:`DistanceCounter`) calls
:meth:`Metric.point_to_points_blocked` per row.

A :class:`Metric` bundles these primitives for a named metric so that the
algorithms can stay metric-agnostic. Euclidean, squared-free Manhattan
and Chebyshev metrics are provided; all three are true metrics (they
satisfy the triangle inequality), which the paper's analysis requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .._openblas import syrk_upper
from ..exceptions import InvalidParameterError

__all__ = [
    "DEFAULT_BLOCK_ELEMENTS",
    "Metric",
    "get_metric",
    "available_metrics",
    "euclidean",
    "manhattan",
    "chebyshev",
    "angular",
    "point_to_points",
    "pairwise",
    "cdist",
    "DistanceCounter",
]


def _diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast difference ``a[:, None, :] - b[None, :, :]`` as float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a[:, None, :] - b[None, :, :]


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean (L2) cross-distance matrix between row sets ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y  (clipped for numerical safety)
    aa = np.einsum("ij,ij->i", a, a)[:, None]
    bb = np.einsum("ij,ij->i", b, b)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def manhattan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Manhattan (L1) cross-distance matrix between row sets ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return np.abs(_diff(a, b)).sum(axis=2)


def chebyshev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chebyshev (L-infinity) cross-distance matrix between row sets ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return np.abs(_diff(a, b)).max(axis=2)


def angular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angular distance (arc length on the unit sphere) between row sets.

    ``d(x, y) = arccos(<x, y> / (|x| |y|))`` in radians. Unlike the raw
    cosine *dissimilarity*, the angle satisfies the triangle inequality,
    so it is a proper metric and safe to use with every algorithm in this
    package. Zero vectors are treated as orthogonal to everything
    (distance ``pi/2``), which keeps the function total.

    This is the natural metric for the word2vec-style embeddings of the
    paper's Wiki dataset.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    norm_a = np.linalg.norm(a, axis=1, keepdims=True)
    norm_b = np.linalg.norm(b, axis=1, keepdims=True)
    safe_a = np.where(norm_a == 0.0, 1.0, norm_a)
    safe_b = np.where(norm_b == 0.0, 1.0, norm_b)
    cosine = (a / safe_a) @ (b / safe_b).T
    # Zero vectors have no direction: define them as orthogonal to everything.
    cosine = np.where((norm_a == 0.0) | (norm_b.T == 0.0), 0.0, cosine)
    np.clip(cosine, -1.0, 1.0, out=cosine)
    return np.arccos(cosine)


_CrossFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Cap (in float64 elements) on the broadcast temporaries of one blocked
#: cross-distance block: ``block_rows * n_cols * dim`` never exceeds this,
#: bounding peak memory at ~32 MB per temporary regardless of batch size.
DEFAULT_BLOCK_ELEMENTS = 4_194_304


def _rows_per_block(n_cols: int, dim: int, max_block_elements: int) -> int:
    """Rows of ``a`` per block so one block's temporaries stay under the cap."""
    if max_block_elements < 1:
        raise InvalidParameterError("max_block_elements must be positive")
    per_row = max(1, n_cols) * max(1, dim)
    return max(1, max_block_elements // per_row)


def _euclidean_distances_from(
    points: np.ndarray, max_block_elements: int
) -> Callable[[int], np.ndarray]:
    """The Euclidean :meth:`Metric.distances_from` evaluator.

    Bit-identical to :meth:`Metric.point_to_points_blocked` over
    :func:`euclidean`: the same block boundaries, the same reductions on
    the same operands (``einsum`` row norms, one ``(1, d) @ (d, m)``
    product per block) and the same element-wise steps in the same order
    (``(aa + bb) - 2 * g``, clip at zero, ``sqrt``). Only the squared
    norms of ``points`` are computed once instead of on every call.
    """
    n = points.shape[0]
    block = _rows_per_block(1, points.shape[1], max_block_elements)
    blocks = [slice(start, min(start + block, n)) for start in range(0, n, block)]
    sq_norms = np.empty(n, dtype=np.float64)
    for rows in blocks:
        sq_norms[rows] = np.einsum("ij,ij->i", points[rows], points[rows])
    gram = np.empty((1, n), dtype=np.float64)
    out = np.empty(n, dtype=np.float64)

    def distances(index: int) -> np.ndarray:
        row = points[index : index + 1]
        for rows in blocks:
            np.matmul(row, points[rows].T, out=gram[:, rows])
        np.multiply(gram, 2.0, out=gram)
        np.add(np.einsum("ij,ij->i", row, row)[0], sq_norms, out=out)
        np.subtract(out, gram[0], out=out)
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)

    return distances


#: Rows of one proxy slice in :func:`_euclidean_nearest` are
#: ``max(1, _SLICE_ELEMENTS // m)``: a slice's ``(rows, m)`` float64
#: buffer (512 KiB) stays in L2 whatever the number of candidates ``m``.
_SLICE_ELEMENTS = 2**16

#: Rows whose winners :func:`_euclidean_nearest` settles at once, which
#: bounds its per-row temporaries when a GEMM block is tall (small ``m``).
_SETTLE_ROWS = 4096

#: Below this many candidates a row is too short for the proxy's second
#: per-row reduction to pay: :func:`_euclidean_nearest` then evaluates
#: every slice exactly, in place in the slice buffer. (On 2 vCPUs at
#: d = 7, 1024 to 125k rows, the proxy took 1.2-1.3 times as long at 32
#: candidates, about as long at 56-64 and 0.75 times at 128.)
_PROXY_MIN_COLUMNS = 64

_EPS = float(np.finfo(np.float64).eps)
#: Absolute slack for the halvings that may round below the normal range.
_TINY = 16 * float(np.finfo(np.float64).smallest_subnormal)


def _as_row_sets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as 2-D float64 row sets of one dimension."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise InvalidParameterError(
            f"row sets differ in dimension: {a.shape[1]} columns against {b.shape[1]}"
        )
    return a, b


def _euclidean_nearest(
    a: np.ndarray, b: np.ndarray, max_block_elements: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Euclidean :meth:`Metric.nearest`: argmin on a proxy, exact winners.

    Bit for bit the blocked loop of :meth:`Metric.nearest` over
    :func:`euclidean`. Both read the same floats: the same block
    boundaries, the same ``einsum`` row norms ``aa`` and ``bb``, and the
    same ``a[block] @ b.T`` product ``g`` (here written into one reused
    ``(block, m)`` buffer). The loop evaluates ``s = (aa + bb) - 2 g`` and
    ``sqrt(max(s, 0))`` at every entry. This path makes one pass per slice
    of ``_SLICE_ELEMENTS // m`` rows for the proxy ``q = bb / 2 - g`` and
    its argmin ``j``, one more for the runner-up (the least ``q`` of the
    other columns), and evaluates ``s`` and ``d = sqrt(max(s, 0))`` with
    the loop's steps only at ``j``. Below ``_PROXY_MIN_COLUMNS``
    candidates the second per-row reduction costs more than it saves, so
    every slice takes the exact path below instead.

    **Slack.** Take one row, ``u = eps / 2``, and ``A, B, G`` its ``aa``,
    ``bb[c]`` and ``g[c]`` at some column ``c``; let ``T = A + B - 2G``
    exactly. ``2G`` is exact, so ``s`` rounds twice and
    ``|s - T| <= u (A + B) + u ((1 + u)(A + B) + |2G|)``; ``B / 2`` is
    exact above the subnormals, so ``q`` rounds once and
    ``|A + 2q - T| <= u (B + |2G|)``. The norms and ``g`` are dot
    products with relative error ``O(d u)``, so Cauchy-Schwarz gives
    ``|2G| <= (A + B)(1 + O(d u))``, and the two errors of any column sum
    to at most ``E = 2.5 eps (A + max bb)``. Column ``c`` ties or beats
    ``j`` in ``sqrt`` space only if ``max(s_c, 0) < N**2`` with
    ``N = nextafter(d, inf)``: from ``N**2`` up the correctly rounded
    ``sqrt`` is at least ``N > d``. As ``A + 2 q_c <= s_c + E`` and
    ``A + 2 q_j >= s_j - E``, that needs
    ``q_c < q_j + (N**2 - s_j) / 2 + E``. The first term is the width of
    the ``sqrt`` bucket at ``d``; it also covers a negative ``s_j``
    clipped to ``d = 0``, which any other clipped column would tie. The
    code takes ``nextafter(fl(N * N), inf) >= N**2`` for ``N**2`` and
    ``8 eps (A + max bb)`` for ``E``, which leaves room for the rounding
    of the slack and of ``q_j + slack``, plus 16 subnormal units for
    halvings near underflow. A row is settled when its runner-up lies
    above ``q_j + slack``: then ``j`` is the loop's unique argmin and
    ``d`` its distance.

    **Exact path.** Rows not settled are recomputed as the loop does: the
    whole row's ``sqrt(max((aa + bb) - 2 g, 0))`` and its argmin, by
    :func:`_exact_rows` in the slice buffer. They are the near ties
    (duplicate or 1-ulp-apart centers, cancellation far from the origin)
    and every row whose threshold is not finite, which no runner-up
    exceeds. The rounding term is infinite from ``aa + max bb`` at a
    quarter of the float range up, before any step above can overflow;
    below that ``g``, ``q`` and ``s`` are finite. A NaN norm makes the
    threshold NaN, and a NaN proxy wins the argmin and does the same.

    **Memory.** The ``(block, m)`` GEMM buffer, one ``(slice, m)`` buffer
    of at most 512 KiB (or one row), the ``16 n`` output bytes, a copy of
    the ``g`` rows on the exact path (at most one slice), the block's
    ``aa`` and per-row temporaries of at most ``_SETTLE_ROWS`` rows.
    """
    n, m = a.shape[0], b.shape[0]
    distances = np.empty(n, dtype=np.float64)
    indices = np.empty(n, dtype=np.intp)
    block = _rows_per_block(m, a.shape[1], max_block_elements)
    if n == 0:
        return distances, indices
    step = max(1, _SLICE_ELEMENTS // m)
    bb = np.einsum("ij,ij->i", b, b)
    half_bb = bb * 0.5
    bb_max = bb.max()
    gram = np.empty((min(block, n), m), dtype=np.float64)
    proxy = np.empty((min(step, gram.shape[0]), m), dtype=np.float64)
    slice_rows = np.arange(proxy.shape[0])
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = a[start:stop]
        aa = np.einsum("ij,ij->i", rows, rows)
        g = np.matmul(rows, b.T, out=gram[: stop - start])
        win = indices[start:stop]
        out = distances[start:stop]
        if m < _PROXY_MIN_COLUMNS:
            for lo in range(0, stop - start, step):
                hi = min(lo + step, stop - start)
                win[lo:hi], out[lo:hi] = _exact_rows(aa[lo:hi], g[lo:hi], bb, proxy)
            continue
        # Each row's runner-up proxy waits in the output for its distance.
        for lo in range(0, stop - start, step):
            hi = min(lo + step, stop - start)
            q = np.subtract(half_bb, g[lo:hi], out=proxy[: hi - lo])
            q.argmin(axis=1, out=win[lo:hi])
            q[slice_rows[: hi - lo], win[lo:hi]] = np.inf
            q.min(axis=1, out=out[lo:hi])
        for lo in range(0, stop - start, _SETTLE_ROWS):
            hi = min(lo + _SETTLE_ROWS, stop - start)
            group = slice(lo, hi)
            j = win[group]
            g_win = g[np.arange(lo, hi), j]
            s = (aa[group] + bb[j]) - 2.0 * g_win
            d = np.sqrt(np.maximum(s, 0.0))
            bucket = np.nextafter(np.nextafter(d, np.inf) ** 2, np.inf)
            # 8 eps (aa + max bb), scaled by 4 first so that it is infinite
            # from a quarter of the float range up.
            rounding = (aa[group] + bb_max) * 4.0 * (2.0 * _EPS) + _TINY
            threshold = (half_bb[j] - g_win) + ((bucket - s) * 0.5 + rounding)
            settled = out[group] > threshold
            out[group] = d
            open_rows = np.flatnonzero(~settled) + lo
            for k in range(0, open_rows.size, step):
                part = open_rows[k : k + step]
                win[part], out[part] = _exact_rows(aa[part], g[part], bb, proxy)
    return distances, indices


#: Side of the square tiles :func:`_euclidean_pairwise` evaluates at once:
#: its scratch tile takes 288 KiB.
_PAIRWISE_TILE = 192

def _euclidean_pairwise(points: np.ndarray, tile: int = _PAIRWISE_TILE) -> np.ndarray:
    """The Euclidean :meth:`Metric.pairwise`: one ``syrk``, then one tile pass.

    Bit for bit ``euclidean(points, points)`` symmetrised as
    ``(D + D.T) * 0.5`` with a zero diagonal. ``points`` is read as one
    C-ordered float64 array (what :meth:`Metric.pairwise` passes), on which
    :func:`euclidean`'s ``points @ points.T`` takes NumPy's ``syrk`` path:
    one ``cblas_dsyrk`` call for the upper triangle, then a copy of that
    triangle into the lower one. Here :func:`~repro._openblas.syrk_upper`
    makes the same call directly and skips the copy, which costs more than
    the product itself; without scipy-openblas the product is NumPy's.
    Either way the product ``g`` is never split into row blocks, which may
    change its bits, and its upper triangle is the reference's. The rest is
    element-wise, with :func:`euclidean`'s steps in its order: for each
    pair of ``tile``-sided tiles ``I <= J``, ``x`` evaluates
    ``sqrt(max((aa + bb) - 2 g, 0))`` on ``g[I, J]``, which lies in the
    upper triangle when ``I < J``. There the reference's ``y`` on
    ``g[J, I]`` would equal ``x.T`` bit for bit (the reference's ``g`` is
    exactly symmetric and the sum ``aa + bb`` commutes), and
    ``(x + x) * 0.5 == x`` because a finite distance, at most the square
    root of the largest float, never overflows when doubled; so ``x``
    overwrites both tiles of the product without ``y``, and the lower tile
    is never read. A diagonal tile first mirrors its own upper triangle
    into its lower one, which ``syrk`` leaves unwritten, and is then
    symmetrised as ``(x + x.T) * 0.5``. Memory is the one ``(m, m)``
    matrix plus a scratch tile.
    """
    points = np.atleast_2d(np.ascontiguousarray(points, dtype=np.float64))
    aa = np.einsum("ij,ij->i", points, points)
    matrix = syrk_upper(points)
    if matrix is None:
        matrix = points @ points.T
    m = matrix.shape[0]
    x_buffer = np.empty((min(tile, m), min(tile, m)), dtype=np.float64)
    tiles = [slice(start, min(start + tile, m)) for start in range(0, m, tile)]
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            x = x_buffer[: rows.stop - rows.start, : cols.stop - cols.start]
            g = matrix[rows, cols]
            if cols is rows:
                # Writes only below the diagonal, reads only above it.
                np.copyto(g, g.T, where=np.tri(g.shape[0], k=-1, dtype=bool))
            g *= 2.0
            np.add(aa[rows, None], aa[None, cols], out=x)
            x -= g
            np.maximum(x, 0.0, out=x)
            np.sqrt(x, out=x)
            if cols is rows:
                x += x.T  # NumPy buffers the overlapping transpose
                x *= 0.5
            else:
                matrix[cols, rows] = x.T
            matrix[rows, cols] = x
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _exact_rows(
    aa: np.ndarray, g: np.ndarray, bb: np.ndarray, buffer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Argmin and least distance of each row, by :func:`euclidean`'s steps.

    Evaluates ``sqrt(max((aa + bb) - 2 g, 0))`` in ``buffer`` (which
    needs ``len(aa)`` rows) and doubles ``g`` in place on the way.
    """
    exact = np.add(aa[:, None], bb, out=buffer[: aa.shape[0]])
    g *= 2.0
    exact -= g
    np.sqrt(np.maximum(exact, 0.0, out=exact), out=exact)
    choice = exact.argmin(axis=1)
    return choice, exact[np.arange(choice.shape[0]), choice]


@dataclass(frozen=True)
class Metric:
    """A named metric with vectorised distance primitives.

    Attributes
    ----------
    name:
        Human-readable metric name (``"euclidean"``, ``"manhattan"``, ...).
    cross:
        Function computing the cross-distance matrix between two row sets.
    exactly_symmetric:
        Whether ``cross(points, points)`` is bitwise symmetric (true for the
        element-wise L1/L-inf metrics), letting :meth:`pairwise` skip the
        symmetrisation pass entirely.
    """

    name: str
    cross: _CrossFn = field(repr=False)
    exactly_symmetric: bool = False

    def point_to_points(self, point: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Distances from a single ``point`` to every row of ``points``."""
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return self.cross(point, points)[0]

    def point_to_points_blocked(
        self,
        point: np.ndarray,
        points: np.ndarray,
        *,
        max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ) -> np.ndarray:
        """Distances from ``point`` to every row of ``points``, in column blocks.

        Same values as :meth:`point_to_points`, but ``points`` is
        consumed in row blocks so the ``(1, m, d)`` broadcast temporaries
        of the L1/L-inf metrics never exceed ``max_block_elements``
        float64 values. Below the cap it degenerates to a single
        :meth:`point_to_points` call. :meth:`distances_from` defines its
        values by this method.
        """
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = points.shape[0]
        block = _rows_per_block(1, points.shape[1], max_block_elements)
        if m <= block:
            return self.cross(point, points)[0]
        out = np.empty(m, dtype=np.float64)
        for start in range(0, m, block):
            stop = min(start + block, m)
            out[start:stop] = self.cross(point, points[start:stop])[0]
        return out

    def distances_from(
        self,
        points: np.ndarray,
        *,
        max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ) -> Callable[[int], np.ndarray]:
        """One-to-many evaluator bound to the fixed matrix ``points``.

        Returns ``f`` where ``f(i)`` holds the distances from
        ``points[i]`` to every row of ``points``, bit for bit
        ``point_to_points_blocked(points[i], points, max_block_elements=...)``.
        For the Euclidean metric ``f`` caches the squared row norms and
        writes into one reused ``(n,)`` buffer, so the array it returns is
        overwritten by the next call; copy it to keep it. Every other
        metric, including a :class:`DistanceCounter`-wrapped one (whose
        evaluation count must stay exact), calls
        :meth:`point_to_points_blocked` on every call.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.cross is euclidean:
            return _euclidean_distances_from(points, max_block_elements)
        return lambda index: self.point_to_points_blocked(
            points[index], points, max_block_elements=max_block_elements
        )

    def pairwise(self, points: np.ndarray) -> np.ndarray:
        """Full symmetric pairwise distance matrix of ``points``.

        The Euclidean metric takes :func:`_euclidean_pairwise` at every
        size: it makes the one ``a @ b.T`` product :func:`euclidean` makes
        and overwrites it tile by tile with the symmetrised distances, so it
        holds one ``(m, m)`` float64 matrix and one small tile instead of
        the full-size temporaries of the path below, and returns the same
        bits. (The peak RSS may still rise below 2048 rows, where glibc can
        keep a freed matrix on its heap; see the module docstring.) The
        other metrics and any :class:`DistanceCounter`-wrapped metric
        (whose count stays ``m * m``) evaluate :attr:`cross` on the whole
        set, then symmetrise in place. Both paths read one C-ordered
        float64 copy of ``points``, so a list, a C-ordered and a
        Fortran-ordered array of the same points take the same BLAS
        routine and give the same bits.
        """
        points = np.atleast_2d(np.ascontiguousarray(points, dtype=np.float64))
        if self.cross is euclidean:
            return _euclidean_pairwise(points)
        matrix = self.cross(points, points)
        if not self.exactly_symmetric:
            # Symmetrize in place (guards against FP noise in BLAS-backed
            # metrics). NumPy's overlap detection buffers the transposed
            # view, so this peaks at one temporary matrix instead of the
            # two that `0.5 * (matrix + matrix.T)` would allocate.
            matrix += matrix.T
            matrix *= 0.5
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def cdist(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cross-distance matrix between row sets ``a`` and ``b``."""
        return self.cross(a, b)

    def cdist_blocked(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cross-distance matrix computed in row blocks of ``a``.

        Produces the same ``(len(a), len(b))`` matrix as :meth:`cdist` but
        never lets one block's intermediate arrays exceed
        ``max_block_elements`` float64 values, which caps the ``(n, m, d)``
        broadcast temporaries of the L1/L-inf metrics for large-batch x
        large-coreset products. ``out`` may supply a preallocated result.
        Raises :class:`~repro.exceptions.InvalidParameterError` when the two
        row sets differ in dimension.
        """
        a, b = _as_row_sets(a, b)
        n, m = a.shape[0], b.shape[0]
        if out is None:
            out = np.empty((n, m), dtype=np.float64)
        elif out.shape != (n, m):
            raise InvalidParameterError(
                f"out has shape {out.shape}, expected {(n, m)}"
            )
        block = _rows_per_block(m, a.shape[1], max_block_elements)
        for start in range(0, n, block):
            stop = min(start + block, n)
            out[start:stop] = self.cross(a[start:stop], b)
        return out

    def nearest(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        max_block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row nearest neighbour of ``a`` among the rows of ``b``.

        Returns ``(distances, indices)`` where ``distances[i]`` is the
        smallest distance from ``a[i]`` to any row of ``b`` and
        ``indices[i]`` the (lowest) index attaining it. Computed block by
        block, so the full ``(len(a), len(b))`` matrix is never held in
        memory — this is the hot primitive of the batched streaming update
        rule.

        The Euclidean metric takes :func:`_euclidean_nearest`. It keeps the
        loop's GEMM blocks, takes each row's argmin on the proxy
        ``||y||^2 / 2 - x.y`` in L2-sized slices, and computes the exact
        distance only at the winner. A row is recomputed exactly, as the
        loop below does, when another candidate lies within the proven
        rounding slack of its winner (the slack covers the ``sqrt`` bucket
        at the winner, so ``sqrt``-space ties and clipped negatives are
        caught) or when its proxy or slack is not finite; against fewer
        than 64 candidates every row is. Its results are bit for bit those
        of the loop below, and its memory is one ``(block, m)`` float64
        buffer, one 512 KiB slice buffer and the ``16 n`` output bytes.
        Every other metric, including a :class:`DistanceCounter`-wrapped
        one (whose count must stay ``len(a) * len(b)``), evaluates
        :attr:`cross` block by block and takes the argmin of each block's
        distances.

        Raises :class:`~repro.exceptions.InvalidParameterError` when ``b``
        has no rows or the two row sets differ in dimension.
        """
        a, b = _as_row_sets(a, b)
        n, m = a.shape[0], b.shape[0]
        if m == 0:
            raise InvalidParameterError("nearest() needs at least one candidate row")
        if self.cross is euclidean:
            return _euclidean_nearest(a, b, max_block_elements)
        distances = np.empty(n, dtype=np.float64)
        indices = np.empty(n, dtype=np.intp)
        block = _rows_per_block(m, a.shape[1], max_block_elements)
        for start in range(0, n, block):
            stop = min(start + block, n)
            cross = self.cross(a[start:stop], b)
            argmin = cross.argmin(axis=1)
            indices[start:stop] = argmin
            distances[start:stop] = cross[np.arange(cross.shape[0]), argmin]
        return distances, indices

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two individual points."""
        a = np.asarray(a, dtype=np.float64).reshape(1, -1)
        b = np.asarray(b, dtype=np.float64).reshape(1, -1)
        return float(self.cross(a, b)[0, 0])


# The element-wise L1/L-inf metrics are bitwise symmetric by construction
# (|x - y| == |y - x| exactly in IEEE arithmetic and the coordinate
# reduction order is identical for both triangles); the BLAS-backed
# euclidean/angular metrics are not, so they keep the symmetrisation pass.
_METRICS: Dict[str, Metric] = {
    "euclidean": Metric("euclidean", euclidean),
    "manhattan": Metric("manhattan", manhattan, exactly_symmetric=True),
    "chebyshev": Metric("chebyshev", chebyshev, exactly_symmetric=True),
    "angular": Metric("angular", angular),
}


def available_metrics() -> tuple[str, ...]:
    """Names of the metrics registered with :func:`get_metric`."""
    return tuple(sorted(_METRICS))


def get_metric(metric: str | Metric = "euclidean") -> Metric:
    """Resolve ``metric`` into a :class:`Metric` instance.

    Accepts either an already-constructed :class:`Metric` (returned as is)
    or one of the registered metric names.
    """
    if isinstance(metric, Metric):
        return metric
    if not isinstance(metric, str):
        raise InvalidParameterError(
            f"metric must be a string or a Metric instance; got {metric!r}"
        )
    try:
        return _METRICS[metric.lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown metric {metric!r}; available: {', '.join(available_metrics())}"
        ) from None


def point_to_points(
    point: np.ndarray, points: np.ndarray, metric: str | Metric = "euclidean"
) -> np.ndarray:
    """Distances from ``point`` to every row of ``points`` under ``metric``."""
    return get_metric(metric).point_to_points(point, points)


def pairwise(points: np.ndarray, metric: str | Metric = "euclidean") -> np.ndarray:
    """Full pairwise distance matrix of ``points`` under ``metric``."""
    return get_metric(metric).pairwise(points)


def cdist(
    a: np.ndarray, b: np.ndarray, metric: str | Metric = "euclidean"
) -> np.ndarray:
    """Cross-distance matrix between ``a`` and ``b`` under ``metric``."""
    return get_metric(metric).cdist(a, b)


class DistanceCounter:
    """A :class:`Metric` wrapper that counts individual distance evaluations.

    The paper reports running times on a Spark cluster; in this pure-Python
    reproduction we additionally report *work* as the number of point-to-
    point distance evaluations, which is a machine-independent proxy for
    running time. Wrap any metric with this class and pass it wherever a
    metric is expected.

    Examples
    --------
    >>> counter = DistanceCounter("euclidean")
    >>> _ = counter.metric.cdist([[0.0], [1.0]], [[2.0]])
    >>> counter.count
    2
    """

    def __init__(self, metric: str | Metric = "euclidean") -> None:
        base = get_metric(metric)
        self._count = 0

        def counted_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            result = base.cross(a, b)
            self._count += int(result.size)
            return result

        self.metric = Metric(
            name=f"counted-{base.name}",
            cross=counted_cross,
            exactly_symmetric=base.exactly_symmetric,
        )

    @property
    def count(self) -> int:
        """Number of point-to-point distance evaluations performed so far."""
        return self._count

    def reset(self) -> None:
        """Reset the evaluation counter to zero."""
        self._count = 0
