"""Internal argument-validation helpers shared across the package.

These helpers centralise the (otherwise repetitive) checks that public
entry points perform on user-supplied parameters, and raise the library's
own exception types so callers get uniform, informative error messages.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .exceptions import DatasetError, InvalidParameterError

__all__ = [
    "check_points",
    "check_batch",
    "check_positive_int",
    "check_non_negative_int",
    "check_epsilon",
    "check_k_z",
    "check_weights",
    "check_random_state",
]


def check_points(points: Any, *, name: str = "points") -> np.ndarray:
    """Validate and normalise a point matrix.

    Parameters
    ----------
    points:
        Anything convertible to a 2-d ``float64`` NumPy array of shape
        ``(n, d)`` with ``n >= 1`` and ``d >= 1``. A 1-d array is
        interpreted as ``n`` one-dimensional points.
    name:
        Parameter name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float64`` array of shape ``(n, d)``.

    Raises
    ------
    DatasetError
        If the array is empty, has more than two dimensions, or contains
        NaN / infinite coordinates.
    """
    array = np.asarray(points, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise DatasetError(
            f"{name} must be a 2-d array of shape (n, d); got ndim={array.ndim}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise DatasetError(f"{name} must be non-empty; got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise DatasetError(f"{name} contains NaN or infinite coordinates")
    return np.ascontiguousarray(array)


def check_batch(batch: Any, dimension: int | None) -> np.ndarray:
    """Validate a chunk of stream points; return it as a 2-d ``float64`` array.

    A 1-d array is one point. Rows must be non-empty and finite, with
    ``dimension`` coordinates unless that is ``None``; a chunk without rows
    passes. Violations raise :class:`InvalidParameterError`.
    """
    array = np.asarray(batch, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise InvalidParameterError("a batch must be a (n, d) array of points")
    if array.shape[0] == 0:
        return array
    if array.shape[1] == 0 or not np.all(np.isfinite(array)):
        raise InvalidParameterError("stream points must be finite, non-empty vectors")
    if dimension is not None and array.shape[1] != dimension:
        raise InvalidParameterError(
            f"stream point has dimension {array.shape[1]}, expected {dimension}"
        )
    return array


def check_positive_int(value: Any, *, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1; got {value}")
    return value


def check_non_negative_int(value: Any, *, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value < 0:
        raise InvalidParameterError(f"{name} must be >= 0; got {value}")
    return value


def check_epsilon(value: Any, *, name: str = "epsilon", upper: float = 1.0) -> float:
    """Validate a precision parameter in the half-open interval ``(0, upper]``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a number; got {value!r}") from exc
    if not (0.0 < value <= upper) or not np.isfinite(value):
        raise InvalidParameterError(
            f"{name} must satisfy 0 < {name} <= {upper}; got {value}"
        )
    return value


def check_k_z(n: int, k: Any, z: Any = 0) -> tuple[int, int]:
    """Validate the number of centers ``k`` and outliers ``z`` against ``n`` points.

    The paper requires ``k < |S|``; with outliers we additionally require
    ``k + z <= |S|`` so that at least the centers themselves are covered.
    """
    k = check_positive_int(k, name="k")
    z = check_non_negative_int(z, name="z")
    if k > n:
        raise InvalidParameterError(f"k must be at most the dataset size ({n}); got k={k}")
    if z >= n:
        raise InvalidParameterError(
            f"z must be smaller than the dataset size ({n}); got z={z}"
        )
    return k, z


def check_weights(weights: Any, n: int, *, name: str = "weights") -> np.ndarray:
    """Validate a weight vector of length ``n`` with strictly positive entries."""
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1 or array.shape[0] != n:
        raise InvalidParameterError(
            f"{name} must be a 1-d array of length {n}; got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)) or np.any(array <= 0):
        raise InvalidParameterError(f"{name} must contain finite, strictly positive values")
    return array


def check_random_state(seed: Any) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh non-deterministic generator, an ``int`` seeds a
    new generator, and an existing generator is passed through untouched.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.random.default_rng(int(seed))
    raise InvalidParameterError(
        f"random_state must be None, an int, or a numpy Generator; got {seed!r}"
    )
