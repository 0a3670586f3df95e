"""Saving and loading clustering solutions.

Long sequential or MapReduce runs produce solutions (centers, radius,
outlier indices, configuration) that users want to persist and reload
without re-running the solver. This module serialises the solver result
dataclasses to a small JSON + NPZ pair:

* the JSON file holds the scalar metadata (radius, parameters, provenance);
* the NPZ file holds the arrays (center coordinates, center indices,
  outlier indices).

The functions are deliberately format-stable (versioned payload) so
solutions written by one release remain loadable by later ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import InvalidParameterError

__all__ = ["SavedSolution", "save_solution", "load_solution"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SavedSolution:
    """A solution re-hydrated from disk.

    Attributes
    ----------
    centers:
        ``(k, d)`` center coordinates.
    radius:
        Objective value recorded at save time.
    center_indices:
        Indices of the centers in the original dataset (may be empty when
        the producing algorithm did not track them, e.g. streaming).
    outlier_indices:
        Indices of the points the solution discards (empty without outliers).
    metadata:
        The free-form metadata dictionary stored alongside the arrays
        (algorithm name, parameters, dataset description, ...).
    """

    centers: np.ndarray
    radius: float
    center_indices: np.ndarray
    outlier_indices: np.ndarray
    metadata: dict

    @property
    def k(self) -> int:
        """Number of centers."""
        return int(self.centers.shape[0])


def _paths(base_path) -> tuple[Path, Path]:
    base = Path(base_path)
    if base.suffix in (".json", ".npz"):
        base = base.with_suffix("")
    return base.with_suffix(".json"), base.with_suffix(".npz")


def save_solution(result, base_path, *, metadata: dict | None = None) -> tuple[Path, Path]:
    """Persist a solver result to ``<base_path>.json`` + ``<base_path>.npz``.

    Parameters
    ----------
    result:
        A result that carries a solution radius (the sequential, MapReduce
        and Charikar results): it must expose ``centers`` and ``radius``,
        and may expose ``center_indices`` / ``outlier_indices``. Streaming
        results are refused: they report an estimated radius or a bound on
        it (``estimated_radius``, ``coreset_radius_bound``), not the radius
        of their centers.
    base_path:
        Target path without extension (an extension, if given, is dropped).
    metadata:
        Extra key/value pairs recorded in the JSON file (e.g. dataset
        name, k, z, the solver's configuration).

    Returns
    -------
    (json_path, npz_path)
    """
    centers = np.asarray(getattr(result, "centers", None))
    if centers is None or centers.ndim != 2:
        raise InvalidParameterError("result must expose a (k, d) 'centers' array")
    radius = getattr(result, "radius", None)
    if radius is None:
        raise InvalidParameterError(
            f"{type(result).__name__} carries no solution 'radius'; only results "
            "that do (sequential, MapReduce, Charikar) can be saved"
        )

    center_indices = np.asarray(
        getattr(result, "center_indices", np.empty(0, dtype=np.intp)), dtype=np.intp
    )
    outlier_indices = np.asarray(
        getattr(result, "outlier_indices", np.empty(0, dtype=np.intp)), dtype=np.intp
    )

    json_path, npz_path = _paths(base_path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "result_type": type(result).__name__,
        "radius": float(radius),
        "n_centers": int(centers.shape[0]),
        "dimension": int(centers.shape[1]),
        "n_outliers": int(outlier_indices.shape[0]),
        "metadata": dict(metadata or {}),
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    np.savez_compressed(
        npz_path,
        centers=centers,
        center_indices=center_indices,
        outlier_indices=outlier_indices,
    )
    return json_path, npz_path


def load_solution(base_path) -> SavedSolution:
    """Load a solution previously written by :func:`save_solution`."""
    json_path, npz_path = _paths(base_path)
    if not json_path.exists() or not npz_path.exists():
        raise InvalidParameterError(
            f"no saved solution at {json_path} / {npz_path}"
        )
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format_version") != _FORMAT_VERSION:
        raise InvalidParameterError(
            f"unsupported solution format version {payload.get('format_version')!r}"
        )
    with np.load(npz_path) as arrays:
        centers = np.array(arrays["centers"])
        center_indices = np.array(arrays["center_indices"], dtype=np.intp)
        outlier_indices = np.array(arrays["outlier_indices"], dtype=np.intp)
    metadata = dict(payload.get("metadata", {}))
    metadata.setdefault("result_type", payload.get("result_type"))
    return SavedSolution(
        centers=centers,
        radius=float(payload["radius"]),
        center_indices=center_indices,
        outlier_indices=outlier_indices,
        metadata=metadata,
    )
