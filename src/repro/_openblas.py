"""numpy's bundled scipy-openblas, reached through :mod:`ctypes`.

NumPy wheels bundle scipy-openblas but expose neither its thread count nor
its routines. ``ctypes.CDLL`` on the path numpy already loaded returns that
same library, so the calls here act on the BLAS numpy uses:

* :func:`blas_threads` reads the process's BLAS thread count and
  :func:`limit_blas_threads` caps it at one (pool workers and worker
  daemons run one; round 2 of the outlier solver splits its dense passes
  over the count it reads);
* :func:`syrk_upper` computes the upper triangle of ``a @ a.T`` with the
  ``dsyrk`` call NumPy's matmul makes for that product, without NumPy's
  copy of that triangle into the lower one.

Each returns ``None`` when numpy's BLAS is not scipy-openblas (another
BLAS, another wheel layout); callers then keep NumPy's own path. The
library and its functions are looked up once per value of
``_OPENBLAS_PATTERN``, so a call costs one foreign call, not a ``glob``
and a ``dlopen``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["blas_threads", "limit_blas_threads", "syrk_upper"]

_OPENBLAS_PATTERN = os.path.join(
    glob.escape(os.path.dirname(os.path.dirname(np.__file__))),
    "numpy.libs",
    "libscipy_openblas*",
)
"""Glob for the scipy-openblas library that numpy wheels bundle and load."""

# CBLAS enumerators: CblasRowMajor, CblasUpper, CblasNoTrans.
_ROW_MAJOR, _UPPER, _NO_TRANS = 101, 121, 111

_SIZE, _SCALAR, _POINTER = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

# ``(argtypes, restype)`` of each function looked up here.
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "scipy_cblas_dsyrk64_": (
        [ctypes.c_int] * 3 + [_SIZE, _SIZE, _SCALAR, _POINTER, _SIZE, _SCALAR, _POINTER, _SIZE],
        None,
    ),
}


def _symbols(*names: str) -> tuple | None:
    """The named functions of numpy's scipy-openblas, or ``None``."""
    return _resolve(_OPENBLAS_PATTERN, names)


@functools.lru_cache(maxsize=16)
def _resolve(pattern: str, names: tuple[str, ...]) -> tuple | None:
    """The named functions of the first library matching ``pattern``, typed."""
    for path in sorted(glob.glob(pattern)):
        try:
            library = ctypes.CDLL(path)
            calls = tuple(getattr(library, name) for name in names)
        except (OSError, AttributeError):
            continue
        for name, call in zip(names, calls):
            call.argtypes, call.restype = _SIGNATURES[name]
        return calls
    return None


def _openblas_threading():
    """``(get, set)`` thread-count calls of numpy's scipy-openblas, or ``None``."""
    return _symbols("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


def blas_threads() -> int | None:
    """This process's BLAS thread count, or ``None`` when it cannot be read."""
    calls = _openblas_threading()
    return None if calls is None else calls[0]()


def limit_blas_threads() -> int | None:
    """Cap this process's BLAS at one thread; returns the count now in force.

    Run in every process that executes reducers for a coordinator (pool
    workers, worker daemons), never in the coordinator itself. Such a
    process is one of ``ell`` reducers sharing the host's cores, and its
    GMM steps are ``(1, d) @ (d, block)`` products too small for BLAS
    threads to help: left at the default, each worker starts a full
    OpenBLAS pool and the pools oversubscribe the cores. Returns ``None``,
    and changes nothing, when numpy's BLAS is not scipy-openblas.
    """
    calls = _openblas_threading()
    if calls is None:
        return None
    get_threads, set_threads = calls
    set_threads(1)
    return get_threads()


def syrk_upper(points: np.ndarray) -> np.ndarray | None:
    """The upper triangle of ``points @ points.T``, or ``None`` without ``dsyrk``.

    One ``cblas_dsyrk`` call on the C-ordered float64 ``(m, d)`` array:
    row-major, upper, no transpose, alpha 1, beta 0, 64-bit integers. That
    is the call NumPy's matmul makes for this product, so the upper
    triangle holds the same bits; NumPy then copies it into the lower
    triangle, which here stays as :func:`numpy.empty` left it. Also
    ``None`` for an empty ``m`` or ``d``, which CBLAS rejects as a leading
    dimension.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    m, d = points.shape
    calls = _symbols("scipy_cblas_dsyrk64_") if m and d else None
    if calls is None:
        return None
    (dsyrk,) = calls
    gram = np.empty((m, m), dtype=np.float64)
    dsyrk(_ROW_MAJOR, _UPPER, _NO_TRANS, m, d, 1.0, points.ctypes.data, d, 0.0,
          gram.ctypes.data, m)
    return gram
