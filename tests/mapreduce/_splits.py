"""Test-only whole-input splits, the references the ``ChunkRouter`` tests check against.

Each function returns ``ell`` index arrays that together partition
``range(n)``, computed from the whole index range at once; the router
must reproduce them chunk by chunk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import check_positive_int, check_random_state
from repro.exceptions import InvalidParameterError
from repro.mapreduce import hashed_assignment


def split_contiguous(n: int, ell: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``ell`` contiguous, (near-)equal-size blocks."""
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    if ell > n:
        raise InvalidParameterError(f"cannot split {n} points into {ell} non-empty parts")
    return [np.array(part, dtype=np.intp) for part in np.array_split(np.arange(n), ell)]


def split_round_robin(n: int, ell: int) -> list[np.ndarray]:
    """Assign point ``i`` to partition ``i mod ell`` (deterministic interleaving)."""
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    if ell > n:
        raise InvalidParameterError(f"cannot split {n} points into {ell} non-empty parts")
    indices = np.arange(n)
    return [indices[indices % ell == i] for i in range(ell)]


def split_random(n: int, ell: int, *, random_state=None) -> list[np.ndarray]:
    """Assign each point to a uniformly random partition, independently.

    The per-point draw is :func:`hashed_assignment` keyed by a single
    variate from ``random_state``, the variate the drivers' shuffle draws.
    """
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    rng = check_random_state(random_state)
    seed = int(rng.integers(2**63 - 1))
    return parts_of(hashed_assignment(np.arange(n), ell, seed), ell)


def parts_of(assignment: np.ndarray, ell: int) -> list[np.ndarray]:
    """The index arrays of an ``(n,)`` partition-id vector, in increasing order."""
    return [np.flatnonzero(assignment == i).astype(np.intp) for i in range(ell)]


def validate_partition(parts: Sequence[np.ndarray], n: int) -> None:
    """Check that ``parts`` is a partition of ``range(n)``; raise otherwise."""
    n = check_positive_int(n, name="n")
    combined = (
        np.concatenate([np.asarray(p, dtype=np.intp) for p in parts])
        if parts
        else np.empty(0, dtype=np.intp)
    )
    if combined.size != n or np.unique(combined).size != n:
        raise InvalidParameterError("parts do not form a partition of range(n)")
    if combined.size and (combined.min() < 0 or combined.max() >= n):
        raise InvalidParameterError("partition contains out-of-range indices")
