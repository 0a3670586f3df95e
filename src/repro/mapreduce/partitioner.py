"""Partitioning strategies for the first MapReduce round.

The first round splits the input ``S`` into ``ell`` subsets ``S_i``.
The paper uses three flavours:

* **contiguous equal-size** splits (the deterministic algorithms only need
  the subsets to have equal size), plus a round-robin interleaving;
* **uniformly random** assignment of each point to a subset — the
  randomized outlier algorithm of Section 3.2.1 relies on this to spread
  the outliers evenly (Lemma 7);
* an **adversarial** split used in the experiments of Section 5.2, where
  all planted outliers are forced into the same partition to stress the
  deterministic algorithm.

:class:`ChunkRouter` is the one partitioner: it assigns the rows of
consecutive stream chunks to partitions. The first three strategies are
pure functions of ``(i, n, ell)`` — the random one through a seeded
counter-based hash (:func:`hashed_assignment`) rather than a sequential
RNG draw — so the router computes any chunk ``[offset, offset + m)``
without materialising the whole index range. The adversarial split
needs every index up front: :func:`split_adversarial` builds its
``(n,)`` partition-id vector, and the router reads it chunk by chunk.

:func:`draw_partition_seeds` is the one shared way the MapReduce drivers
draw their per-partition coreset seeds, so the deterministic-for-any-
backend guarantee cannot drift between solvers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import (
    check_non_negative_int,
    check_positive_int,
    check_random_state,
)
from ..exceptions import InvalidParameterError

__all__ = [
    "split_adversarial",
    "hashed_assignment",
    "draw_partition_seeds",
    "ChunkRouter",
]


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (a high-quality 64-bit mixer)."""
    with np.errstate(over="ignore"):
        x = (values + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return x ^ (x >> np.uint64(31))


def hashed_assignment(indices: np.ndarray, ell: int, seed: int) -> np.ndarray:
    """Partition id for each global point index under the seeded random split.

    A counter-based construction: the partition of point ``i`` is
    ``splitmix64(splitmix64(seed) ^ i) mod ell``, a pure function of
    ``(i, seed, ell)``. Unlike drawing ``n`` sequential variates, the
    assignment of any index range can be recomputed independently —
    the property the out-of-core shuffle needs to route chunks without
    ever holding the full assignment vector.
    """
    ell = check_positive_int(ell, name="ell")
    indices = np.asarray(indices, dtype=np.uint64)
    mixed_seed = _splitmix64(np.uint64(seed) & _MASK64)
    hashed = _splitmix64(indices ^ mixed_seed)
    return (hashed % np.uint64(ell)).astype(np.intp)


def draw_partition_seeds(rng: np.random.Generator, n_partitions: int) -> tuple[int, ...]:
    """Draw one coreset seed per partition, in partition order.

    Both MapReduce drivers draw their round-1 seeds through this helper
    (one ``integers(2**31 - 1)`` variate per partition, partition 0
    first), which is what makes the documented guarantee — "the result
    is deterministic for any ``max_workers``/backend because
    per-partition seeds are drawn up front" — a single point of truth
    instead of two copies that can drift.
    """
    n_partitions = check_positive_int(n_partitions, name="n_partitions")
    return tuple(int(rng.integers(2**31 - 1)) for _ in range(n_partitions))


def split_adversarial(
    n: int,
    ell: int,
    adversarial_indices: Sequence[int],
    *,
    target_partition: int = 0,
    random_state=None,
) -> np.ndarray:
    """Force the given indices into one partition, spreading the rest evenly.

    Reproduces the adversarial placement of Section 5.2: all planted
    outliers land in ``target_partition`` and the remaining points, in
    index order (or shuffled when a ``random_state`` is given), fill the
    ``ell`` partitions up to balanced sizes.

    Returns the ``(n,)`` partition id of every point, the explicit
    assignment a :class:`ChunkRouter` routes from.
    """
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    target_partition = check_non_negative_int(target_partition, name="target_partition")
    if target_partition >= ell:
        raise InvalidParameterError("target_partition must be smaller than ell")
    adversarial = np.unique(np.asarray(adversarial_indices, dtype=np.intp))
    if adversarial.size and (adversarial.min() < 0 or adversarial.max() >= n):
        raise InvalidParameterError("adversarial_indices must be valid point indices")

    remaining = np.setdiff1d(np.arange(n), adversarial, assume_unique=False)
    if random_state is not None:
        rng = check_random_state(random_state)
        remaining = rng.permutation(remaining)

    # Every partition is filled up to n // ell points (+1 for the first
    # n % ell), in partition order; these sizes add up to n, so every
    # remaining point is placed.
    assignment = np.empty(n, dtype=np.intp)
    assignment[adversarial] = target_partition
    base, extra = divmod(n, ell)
    cursor = 0
    for partition_id in range(ell):
        held = adversarial.size if partition_id == target_partition else 0
        missing = max(0, base + (partition_id < extra) - held)
        assignment[remaining[cursor : cursor + missing]] = partition_id
        cursor += missing
    return assignment


class ChunkRouter:
    """Route consecutive stream chunks into ``ell`` partitions.

    The router computes, for each incoming chunk of ``m`` points, the
    partition id of every row from its global stream index alone. Apart
    from an explicit assignment it never materialises more than one
    chunk's worth of routing metadata, which is what keeps the
    coordinator's working set at ``O(chunk)`` during the shuffle.

    Parameters
    ----------
    ell:
        Number of partitions.
    partitioning:
        ``"contiguous"`` (equal-size blocks, as ``np.array_split``),
        ``"round_robin"`` (point ``i`` to partition ``i mod ell``),
        ``"random"`` (:func:`hashed_assignment`) or ``"explicit"``
        (the ``assignment`` vector). ``"contiguous"`` additionally needs
        ``n_total`` (the block boundaries depend on the stream length).
    n_total:
        Stream length, when known (e.g. from ``len(stream)``).
    seed:
        Hash seed for the ``"random"`` strategy, drawn by the caller from
        the run's RNG.
    assignment:
        The ``(n_total,)`` partition id of every point for ``"explicit"``
        routing, e.g. from :func:`split_adversarial`.
    """

    def __init__(
        self,
        ell: int,
        partitioning: str = "contiguous",
        *,
        n_total: int | None = None,
        seed: int | None = None,
        assignment=None,
    ) -> None:
        self.ell = check_positive_int(ell, name="ell")
        if partitioning not in ("contiguous", "round_robin", "random", "explicit"):
            raise InvalidParameterError(
                "chunk routing supports 'contiguous', 'round_robin', 'random' and "
                f"'explicit' partitioning; got {partitioning!r}"
            )
        self._boundaries = None
        self._assignment = None
        if partitioning == "contiguous":
            if n_total is None:
                raise InvalidParameterError(
                    "contiguous partitioning needs the stream length up front; "
                    "use 'round_robin' or 'random' for unknown-length streams"
                )
            n_total = check_positive_int(n_total, name="n_total")
            if self.ell > n_total:
                raise InvalidParameterError(
                    f"cannot split {n_total} points into {self.ell} non-empty parts"
                )
            # np.array_split boundaries: the first n % ell blocks get one
            # extra point.
            base, extra = divmod(n_total, self.ell)
            sizes = np.full(self.ell, base, dtype=np.intp)
            sizes[:extra] += 1
            self._boundaries = np.cumsum(sizes)
        if partitioning == "random" and seed is None:
            raise InvalidParameterError("random partitioning needs a hash seed")
        if partitioning == "explicit":
            if assignment is None:
                raise InvalidParameterError("explicit partitioning needs an assignment")
            assignment = np.asarray(assignment, dtype=np.intp)
            if assignment.ndim != 1 or assignment.size == 0:
                raise InvalidParameterError("assignment must be a non-empty (n,) vector")
            if assignment.min() < 0 or assignment.max() >= self.ell:
                raise InvalidParameterError(
                    f"assignment holds partition ids outside [0, {self.ell})"
                )
            if n_total is not None and n_total != assignment.size:
                raise InvalidParameterError(
                    f"assignment covers {assignment.size} points, not n_total={n_total}"
                )
            n_total = assignment.size
            self._assignment = assignment
        self.partitioning = partitioning
        self.n_total = n_total
        self._seed = seed
        self._offset = 0

    @property
    def points_routed(self) -> int:
        """Number of stream points routed so far."""
        return self._offset

    def route(self, chunk_length: int) -> np.ndarray:
        """Partition id of each row of the next ``chunk_length``-row chunk.

        Chunks must be routed in stream order; the router advances its
        global offset by ``chunk_length``.
        """
        if chunk_length < 1:
            raise InvalidParameterError("chunk_length must be >= 1")
        start = self._offset
        self._offset += chunk_length
        if self.n_total is not None and self._offset > self.n_total:
            raise InvalidParameterError(
                f"stream delivered more than the declared {self.n_total} points"
            )
        if self._assignment is not None:
            return self._assignment[start : self._offset]
        indices = start + np.arange(chunk_length, dtype=np.intp)
        if self.partitioning == "round_robin":
            return indices % self.ell
        if self.partitioning == "random":
            return hashed_assignment(indices, self.ell, self._seed)
        return np.searchsorted(self._boundaries, indices, side="right").astype(np.intp)
