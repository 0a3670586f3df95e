"""A MapReduce runtime with memory accounting and pluggable execution backends.

The paper's algorithms are 2-round MapReduce computations; what their
analysis actually constrains is (a) the number of rounds, (b) the local
memory ``M_L`` any single reducer needs, and (c) the aggregate memory
``M_A`` across reducers. This module provides a small, deterministic
MapReduce engine that runs those rounds while *faithfully tracking those
three quantities*, plus per-reducer wall-clock time so that the parallel
running time of a round can be reported as the maximum reducer time (the
quantity a real cluster would exhibit).

Execution model
---------------
A job is the paper's fixed sequence of rounds. The shuffle routes the
input into ``ell`` partitions; round 1 builds one coreset per partition,
round 2 solves on their union and round 3 scores each partition against
the solution (:mod:`repro.core.mr_driver`). Each round's reduce groups
are therefore known before it starts, and
:meth:`MapReduceRuntime.execute_round` takes them already keyed: a
``dict`` from reduce key to the list of values that reducer receives.
There is no map phase. The shuffle and all accounting run in the
coordinating process: every group is sized with :func:`default_sizeof`
and checked against the local memory limit *before* any reducer runs.
Only then is the reduce phase handed to an
:class:`~repro.mapreduce.backends.ExecutorBackend`:

* ``backend="serial"`` — reducers run one after the other in the calling
  process. The deterministic reference; also the default when
  ``max_workers`` is 1 or unset.
* ``backend="threads"`` — reducers run on a thread pool. Best when the
  reducer work is dominated by NumPy kernels (they release the GIL), and
  when reducers close over large in-process state, since nothing is
  serialised. The default when ``max_workers`` > 1, matching this
  engine's historical behavior.
* ``backend="processes"`` — reducers run on a process pool. Each task
  pickles the reducer callable and its group values, so reducers must be
  module-level functions (or partials of them); in exchange the GIL no
  longer serialises pure-Python reducer work. Shuffle partitions travel
  as :class:`~repro.mapreduce.backends.PartitionArray` handles (under the
  default ``"auto"`` tier, a spill-file path), not as copies. Each
  pool worker runs one BLAS thread (the pool already has one process per
  core); the coordinator's BLAS keeps its default.
* ``backend="distributed"`` — reducers run on remote worker daemons over
  TCP (see the "Distributed backend" section below).

Distributed backend
-------------------
``backend="distributed"`` plus ``workers=["host:port", ...]`` hands the
reduce phase to a set of worker daemons, each started with ``repro
worker --listen HOST:PORT`` (or ``python -m repro worker``) —
the first backend that scales past a single machine. The coordinator
speaks a length-prefixed TCP protocol (a 1-byte opcode plus an 8-byte
big-endian payload length per frame; the opcodes are documented in
:mod:`repro.mapreduce.worker`): per round it ships the pickled reducer
once per worker, then one TASK frame per reduce group, and collects the
pickled ``(outputs, elapsed)`` results. Placement is round-robin — the
group at position ``i`` (the partition index, for the shuffle rounds)
goes to worker ``i mod W`` — a pure function of the partition index, so
which worker computes what is as deterministic as the shuffle routing
itself.

A partition reaches a worker only as a file: this backend runs the
``"disk"`` tier alone (``"auto"`` picks it, ``"memory"`` is refused when
the runtime is built). Each spill file is pushed once per worker as raw
``.npy`` bytes and re-opened remotely as a read-only memmap, so a file
is shipped at most once per worker however many rounds reference it,
and no TASK frame carries partition rows. A worker that
dies mid-job (refused connection, reset, truncated frame) has its
unfinished groups requeued round-robin onto the surviving workers —
reducers are pure, so the retried job is bit-identical — and
:attr:`JobStats.worker_assignments` records every attempt while
:attr:`JobStats.bytes_shipped` totals the payload bytes that crossed
the wire. All randomness is drawn in the coordinator before dispatch,
so the distributed drivers agree bit-for-bit with the serial reference;
the equivalence matrix in
``tests/properties/test_property_distributed_equivalence.py`` enforces
this against an in-process loopback
:class:`~repro.mapreduce.cluster.LocalCluster`.

Rule of thumb: ``threads`` wins when reducers are thin wrappers around
vectorised NumPy calls and payloads are large (zero serialisation);
``processes`` wins when reducers spend significant time in Python
bytecode (GMM's incremental loop, radius search probes) or when true CPU
isolation is wanted — provided the per-task payload is kept small, e.g.
partition handles instead of partition rows.

Out-of-core shuffle
-------------------
The paper's analysis bounds the *reducers'* memory at ``O(n / ell)``
per partition; a shuffle that first materialised the full ``(n, d)``
matrix in the coordinator would add an ``O(n)`` coordinator bound and
make the coordinator, not the reducers, the limit on dataset size.
:meth:`MapReduceRuntime.shuffle_stream` avoids it: it consumes the input
as a sequence of ``(m, d)`` chunks (from a
:class:`~repro.streaming.stream.PointStream`, a generator over a file,
or a memory-mapped array), routes each chunk's rows directly into
per-partition stores via a
:class:`~repro.mapreduce.partitioner.ChunkRouter`, and returns one
:class:`StreamedPartition` per partition: its rows and their global
stream indices, as sealed
:class:`~repro.mapreduce.backends.PartitionArray` handles. The
coordinator's own working set during the shuffle is ``O(chunk)``:
routing metadata plus one chunk in flight.

The MapReduce drivers run every input through this shuffle
(:func:`shuffle_point_stream`; ``fit(points)`` is
``fit_stream(ArrayStream(points))``). Because the routers are pure
functions of the global point index (the random split uses a seeded
counter-based hash, see
:func:`~repro.mapreduce.partitioner.hashed_assignment`), the result does
not depend on the chunk size, backend or storage tier. Reducers hold
``O(n/ell)``, the coordinator ``O(chunk + union coreset)``; the
job-level :attr:`JobStats.coordinator_peak_items` records that
coordinator working set (in points).

Storage tiers
-------------
*Where the sealed partitions live* is a knob orthogonal to the executor
backend: ``storage=`` on the runtime (set through both drivers'
``fit_stream`` and the CLI ``mr-*`` commands) selects the tier that
:meth:`MapReduceRuntime.shuffle_stream` writes, one store class per
tier:

* ``"memory"`` — plain per-partition arrays in the coordinator's
  address space (:class:`~repro.mapreduce.backends.MemoryPartitionStore`),
  handed to process-pool workers by value. Refused on the distributed
  backend, whose wire carries partitions only as files.
* ``"disk"`` — per-partition ``.npy`` spill files
  (:class:`~repro.mapreduce.backends.DiskPartitionStore`), appended
  chunk by chunk and finalized as read-only :class:`numpy.memmap`
  matrices that workers open by *path*. Bounded by disk rather than
  RAM, so datasets beyond the host's memory stay drivable while each
  reducer keeps only its ``O(n/ell)`` partition resident.
* ``"auto"`` (default) — ``"disk"`` on the process pool and the
  distributed backend (a partition crosses a process boundary only as a
  spill file), ``"memory"`` on the serial and thread backends unless
  ``memory_budget_bytes`` is set and the estimated partition-tier
  footprint exceeds it (or the stream is unsized). See
  :func:`~repro.mapreduce.backends.resolve_storage`.

Every tier produces bit-identical partitions (the routing never
changes); :attr:`JobStats.storage_tier` and :attr:`JobStats.spilled_bytes`
record which tier ran and how many bytes went to disk, and
:func:`repro.core.planner.plan_mapreduce` predicts the per-tier
footprints up front.

Accounting is backend-agnostic by construction: every backend returns the
same per-group outputs and in-reducer timings, the runtime collects them
in the groups' insertion order, and the recorded
:class:`RoundStats` are therefore identical across backends modulo the
timing values themselves. The cross-backend equivalence suite in
``tests/mapreduce/test_backends.py`` enforces this.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

import numpy as np

from ..exceptions import (
    EmptyStreamError,
    InvalidParameterError,
    MemoryBudgetExceededError,
)
from ..streaming.stream import GeneratorStream, PointStream
from .backends import (
    DiskPartitionStore,
    ExecutorBackend,
    MemoryPartitionStore,
    PartitionArray,
    check_storage_tier,
    resolve_backend,
    resolve_storage,
)
from .partitioner import ChunkRouter, split_adversarial

__all__ = [
    "KeyValue",
    "RoundStats",
    "JobStats",
    "StreamedPartition",
    "MapReduceRuntime",
    "default_sizeof",
    "shuffle_point_stream",
]


KeyValue = tuple[Hashable, object]
"""A key-value pair as produced by reducers."""

Reducer = Callable[[Hashable, list], Iterable[KeyValue]]


def default_sizeof(value: object) -> int:
    """Default memory accounting: NumPy arrays count rows, sized objects count ``len``, else 1.

    The unit is "points" (items), matching the paper's memory bounds which
    are stated in numbers of stored points rather than bytes.
    """
    if isinstance(value, np.ndarray):
        return int(value.shape[0]) if value.ndim > 0 else 1
    try:
        return len(value)  # type: ignore[arg-type]
    except TypeError:
        return 1


@dataclass
class RoundStats:
    """Accounting for one MapReduce round.

    Attributes
    ----------
    round_index:
        0-based index of the round within the job.
    n_reducers:
        Number of distinct keys (reduce groups) in the round.
    reducer_input_sizes:
        Memory (in items, per :func:`default_sizeof`) received by each
        reducer, keyed by reduce key.
    reducer_times:
        Wall-clock seconds spent inside each reducer.
    """

    round_index: int
    n_reducers: int = 0
    reducer_input_sizes: dict = field(default_factory=dict)
    reducer_times: dict = field(default_factory=dict)

    @property
    def max_local_memory(self) -> int:
        """Largest reducer input size in this round (the round's ``M_L``)."""
        return max(self.reducer_input_sizes.values(), default=0)

    @property
    def total_memory(self) -> int:
        """Sum of reducer input sizes in this round (contribution to ``M_A``)."""
        return sum(self.reducer_input_sizes.values())

    @property
    def parallel_time(self) -> float:
        """Parallel reduce time estimate: the slowest reducer of the round."""
        return max(self.reducer_times.values(), default=0.0)

    @property
    def sequential_time(self) -> float:
        """Total reduce time if every reducer ran on a single processor."""
        return sum(self.reducer_times.values())


@dataclass
class JobStats:
    """Aggregated accounting over all rounds executed by a runtime."""

    rounds: list[RoundStats] = field(default_factory=list)
    #: Largest working set (in points) the *coordinator* itself held at
    #: any moment: one routing chunk, or the inter-round coreset union
    #: of the MapReduce drivers. The out-of-core shuffle bounds it at
    #: ``O(chunk + coreset)``.
    coordinator_peak_items: int = 0
    #: Partition-storage tier the streamed shuffle used
    #: (``"memory"``/``"disk"``); ``None`` when no streamed
    #: shuffle ran.
    storage_tier: str | None = None
    #: Bytes of partition data written to spill files (0 unless the
    #: ``"disk"`` tier ran).
    spilled_bytes: int = 0
    #: One dict per round executed on the distributed backend, a failed
    #: round included, mapping each reduce key to the worker addresses
    #: attempted in order (a list longer than one records a retry after a
    #: worker failure). Empty for the single-host backends.
    worker_assignments: list = field(default_factory=list)
    #: Total payload bytes shipped to distributed workers (reducers,
    #: pushed spill files and task payloads); 0 for single-host backends.
    bytes_shipped: int = 0
    #: BLAS threads each reducer process ran with. 1 on the
    #: ``"processes"`` pool, whose workers cap their BLAS; on
    #: ``"distributed"``, the count the workers report in HELLO (1 for
    #: ``repro worker`` daemons; a :class:`~repro.mapreduce.cluster.LocalCluster`
    #: runs inside the coordinator and reports its count). ``None`` on
    #: the serial and thread backends, which use the coordinator's BLAS,
    #: and whenever the cap could not be applied.
    worker_blas_threads: int | None = None

    @property
    def n_rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)

    @property
    def peak_local_memory(self) -> int:
        """The job's ``M_L``: the largest reducer input over all rounds."""
        return max((r.max_local_memory for r in self.rounds), default=0)

    @property
    def aggregate_memory(self) -> int:
        """The job's ``M_A``: the largest per-round total reducer input."""
        return max((r.total_memory for r in self.rounds), default=0)

    @property
    def peak_working_memory_size(self) -> int:
        """The paper's space metric for the whole job, in stored points.

        The largest working set any single participant (a reducer *or*
        the coordinator) held — the MapReduce counterpart of the
        streaming algorithms' ``peak_working_memory_size``.
        """
        return max(self.peak_local_memory, self.coordinator_peak_items)

    @property
    def parallel_time(self) -> float:
        """Parallel time estimate: the slowest reducer of each round, summed."""
        return sum(r.parallel_time for r in self.rounds)

    @property
    def sequential_time(self) -> float:
        """Reduce time the job would take with a single processor."""
        return sum(r.sequential_time for r in self.rounds)


@dataclass(frozen=True)
class StreamedPartition:
    """One shuffled partition: its point matrix plus the global-index column.

    ``__len__`` reports the number of *points*, so the runtime's memory
    accounting charges a reducer its partition size, the paper's unit
    (the index column is metadata). Picklable on every backend (the
    members are :class:`~repro.mapreduce.backends.PartitionArray` handles).
    """

    points: PartitionArray
    indices: PartitionArray

    def __len__(self) -> int:
        return len(self.points)


class MapReduceRuntime:
    """MapReduce engine with memory accounting and a pluggable reduce executor.

    Parameters
    ----------
    local_memory_limit:
        Optional hard cap (in items) on the input any single reducer may
        receive; exceeding it raises
        :class:`~repro.exceptions.MemoryBudgetExceededError`. ``None``
        disables enforcement (accounting still happens).
    max_workers:
        Worker count for the pooled backends. ``None`` means 1 for the
        default (backend-less) configuration and one worker per CPU when
        an explicit ``"threads"``/``"processes"`` backend is named.
    backend:
        ``"serial"``, ``"threads"``, ``"processes"``, ``"distributed"``,
        an :class:`~repro.mapreduce.backends.ExecutorBackend` instance,
        or ``None`` (historical behavior: threads when ``max_workers``
        > 1, serial otherwise — or distributed when ``workers`` is
        given). See the module docstring for when each backend wins.
        Reducers must not share mutable state unsafely on the pooled
        backends, and must be picklable for ``"processes"`` and
        ``"distributed"``. Backends named by string are owned and closed
        by the runtime; an instance passed in stays open across
        :meth:`close` so its pool can be reused, and is closed by the
        caller.
    workers:
        Worker daemon addresses (``["host:port", ...]``) for the
        distributed backend; selects ``backend="distributed"`` when no
        backend is named. See the "Distributed backend" section of the
        module docstring.
    storage:
        Partition-storage tier for :meth:`shuffle_stream`: ``"auto"``
        (default), ``"memory"`` or ``"disk"``. See the
        "Storage tiers" section of the module docstring. ``"memory"``
        with the distributed backend raises
        :class:`~repro.exceptions.InvalidParameterError` here.
    spill_dir:
        Directory for ``"disk"``-tier spill files. ``None`` (default)
        uses a runtime-owned temporary directory that :meth:`close`
        removes; a caller-provided directory is created if missing and
        left in place (only the spill files themselves are deleted).
    memory_budget_bytes:
        Budget (bytes) for the in-memory partition tier under
        ``storage="auto"``: a shuffle whose estimated partition
        footprint exceeds it — or cannot be estimated, for unsized
        streams — spills to disk. ``None`` disables the budget.

    Examples
    --------
    >>> runtime = MapReduceRuntime()
    >>> def reducer(key, values):
    ...     yield (key, sum(values))
    >>> runtime.execute_round({3: [1, 2], 1: [4]}, reducer)
    [(3, 3), (1, 4)]
    """

    def __init__(
        self,
        *,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
        storage: str = "auto",
        spill_dir: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if local_memory_limit is not None and local_memory_limit < 1:
            raise InvalidParameterError("local_memory_limit must be >= 1 or None")
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise InvalidParameterError("memory_budget_bytes must be >= 1 or None")
        self._local_memory_limit = local_memory_limit
        # Backends named by string (or defaulted) are created, and therefore
        # owned and closed, by this runtime; instances passed in belong to
        # the caller, whose pool must survive (and be reusable after) close().
        self._owns_backend = backend is None or isinstance(backend, str)
        self._backend = resolve_backend(backend, max_workers=max_workers, workers=workers)
        # Checked against the backend now, so a tier the backend cannot run
        # fails before any shuffle reads a chunk from a single-pass source.
        self._storage = check_storage_tier(storage, self._backend)
        self._spill_dir = spill_dir
        self._own_spill_dir: str | None = None
        self._memory_budget_bytes = memory_budget_bytes
        self._sealed: list[PartitionArray] = []
        self._stats = JobStats()

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def backend(self) -> ExecutorBackend:
        """The executor backend running this runtime's reduce phases."""
        return self._backend

    def note_coordinator_items(self, items: int) -> None:
        """Record that the coordinator held ``items`` points at one moment."""
        self._stats.coordinator_peak_items = max(
            self._stats.coordinator_peak_items, int(items)
        )

    def _ensure_spill_dir(self) -> str:
        """The directory disk-tier spill files go to (created on first use)."""
        if self._spill_dir is not None:
            os.makedirs(self._spill_dir, exist_ok=True)
            return self._spill_dir
        if self._own_spill_dir is None:
            self._own_spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
        return self._own_spill_dir

    def shuffle_stream(
        self,
        chunks: Iterable[np.ndarray],
        router: ChunkRouter,
        *,
        max_chunk_rows: int | None = None,
    ) -> list[StreamedPartition]:
        """Route a chunked point stream into per-partition stores (out of core).

        ``chunks`` yields ``(m, d)`` arrays in stream order (e.g. from
        :meth:`repro.streaming.stream.PointStream.iterate_batches`);
        ``router`` decides each row's partition from its global stream
        index alone. Rows and their global indices are scattered into
        one store per partition and column on the runtime's tier (see
        the "Storage tiers" section of the module docstring), so the
        coordinator never assembles the full ``(n, d)`` matrix; its
        working set is one chunk plus routing metadata, recorded in
        :attr:`JobStats.coordinator_peak_items`.
        The tier that ran and the bytes it spilled are recorded in
        :attr:`JobStats.storage_tier` / :attr:`JobStats.spilled_bytes`;
        ``router.points_routed`` counts the points routed.

        Returns one :class:`StreamedPartition` per partition, in
        partition order (zero-row for partitions the routing left
        empty). The sealed partitions are registered with the runtime
        and released by :meth:`close`; on a mid-stream failure every
        store built so far (and its spill file) is closed and unlinked
        before the exception propagates. ``max_chunk_rows``
        re-splits oversized incoming chunks (sources with native
        batching, such as
        :class:`~repro.streaming.stream.GeneratorStream`, may deliver
        chunks larger than the requested size) so the coordinator's
        in-flight working set stays bounded regardless of the source's
        granularity.
        """
        if max_chunk_rows is not None and max_chunk_rows < 1:
            raise InvalidParameterError("max_chunk_rows must be >= 1 (or None)")
        # The points stores of partitions 0..ell-1, then their index stores.
        # Each store joins the list as soon as it exists, so a failure while
        # building a later one still closes (and unlinks) the earlier ones.
        stores: list[MemoryPartitionStore | DiskPartitionStore] = []
        sealed: list[PartitionArray] = []
        dimension: int | None = None
        chunk_peak = 0

        def bounded_chunks():
            for chunk in chunks:
                chunk = np.asarray(chunk, dtype=np.float64)
                if chunk.ndim != 2:
                    raise InvalidParameterError(
                        f"shuffle chunks must be (m, d) arrays; got ndim={chunk.ndim}"
                    )
                if max_chunk_rows is None or chunk.shape[0] <= max_chunk_rows:
                    yield chunk
                else:
                    for start in range(0, chunk.shape[0], max_chunk_rows):
                        yield chunk[start : start + max_chunk_rows]

        try:
            for chunk in bounded_chunks():
                m = chunk.shape[0]
                if m == 0:
                    continue
                if dimension is None:
                    # The partition footprint can only be estimated once the
                    # first chunk reveals the dimension.
                    dimension = int(chunk.shape[1])
                    estimated_bytes = capacity = None
                    if router.n_total is not None:
                        row_bytes = dimension * chunk.itemsize + np.dtype(np.intp).itemsize
                        estimated_bytes = router.n_total * row_bytes
                        capacity = max(1, -(-router.n_total // router.ell))  # ceil division
                    tier = resolve_storage(
                        self._storage,
                        backend=self._backend,
                        estimated_bytes=estimated_bytes,
                        memory_budget_bytes=self._memory_budget_bytes,
                    )
                    spill_dir = self._ensure_spill_dir() if tier == "disk" else None
                    for row_dimension, dtype in ((dimension, np.float64), (None, np.intp)):
                        for _ in range(router.ell):
                            stores.append(
                                DiskPartitionStore(row_dimension, dtype, spill_dir)
                                if tier == "disk"
                                else MemoryPartitionStore(row_dimension, dtype, capacity or m)
                            )
                elif chunk.shape[1] != dimension:
                    raise InvalidParameterError(
                        f"chunk has dimension {chunk.shape[1]}, expected {dimension}"
                    )
                chunk_peak = max(chunk_peak, m)
                global_indices = router.points_routed + np.arange(m, dtype=np.intp)
                assignment = router.route(m)
                # Stable sort keeps stream order (increasing global index)
                # inside each partition.
                order = np.argsort(assignment, kind="stable")
                counts = np.bincount(assignment, minlength=router.ell)
                sorted_rows = chunk[order]
                sorted_indices = global_indices[order]
                start = 0
                for partition_id, count in enumerate(counts):
                    stop = start + int(count)
                    if stop > start:
                        stores[partition_id].append(sorted_rows[start:stop])
                        stores[router.ell + partition_id].append(sorted_indices[start:stop])
                    start = stop

            if dimension is None:
                raise EmptyStreamError("the stream delivered no points to shuffle")
            if router.n_total is not None and router.points_routed != router.n_total:
                raise InvalidParameterError(
                    f"the stream delivered {router.points_routed} points but "
                    f"declared {router.n_total}"
                )

            spilled = sum(store.spilled_bytes for store in stores)
            for store in stores:
                sealed.append(store.finalize())
        except BaseException:
            # A failure (or interrupt) mid-shuffle must not strand the
            # partially-filled spill files — nor any partition already
            # sealed when a later finalize fails — until process exit.
            for handle in sealed:
                handle.close()
            for store in stores:
                store.close()
            raise

        self._sealed.extend(sealed)
        self.note_coordinator_items(chunk_peak)
        self._stats.storage_tier = tier
        self._stats.spilled_bytes += spilled
        return [
            StreamedPartition(points, indices)
            for points, indices in zip(sealed[: router.ell], sealed[router.ell :])
        ]

    def close(self) -> None:
        """Release resources this runtime owns. Idempotent.

        Sealed shuffle partitions are always released; the backend's
        pools are shut down only when the runtime created the backend
        itself (from a name or the default). A backend instance passed in
        by the caller is left running so it can be reused across
        runtimes — the caller closes it.
        """
        while self._sealed:
            self._sealed.pop().close()
        if self._own_spill_dir is not None:
            spill_dir, self._own_spill_dir = self._own_spill_dir, None
            shutil.rmtree(spill_dir, ignore_errors=True)
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting --------------------------------------------------------------------

    @property
    def stats(self) -> JobStats:
        """Accumulated per-round and per-job accounting."""
        return self._stats

    def reset(self) -> None:
        """Forget all accounting from previous rounds."""
        self._stats = JobStats()

    def _account_groups(
        self, stats: RoundStats, groups: dict[Hashable, list]
    ) -> None:
        """Record reducer input sizes and enforce the local memory limit.

        Runs in the coordinator before any reducer is dispatched, so the
        accounting (and limit enforcement) is identical on every backend.
        """
        stats.n_reducers = len(groups)
        for key, values in groups.items():
            size = sum(default_sizeof(v) for v in values)
            stats.reducer_input_sizes[key] = size
            if self._local_memory_limit is not None and size > self._local_memory_limit:
                raise MemoryBudgetExceededError(
                    f"reducer for key {key!r} received {size} items, "
                    f"exceeding the local memory limit of {self._local_memory_limit}"
                )

    # -- execution ---------------------------------------------------------------------

    def execute_round(
        self, groups: dict[Hashable, list], reducer: Reducer
    ) -> list[KeyValue]:
        """Run ``reducer`` on every keyed group and return the output pairs.

        ``groups`` maps each reduce key to the list of values its reducer
        receives. The concatenation of all reducer outputs is returned in
        the dict's insertion order, whatever the backend.
        """
        stats = RoundStats(round_index=self._stats.n_rounds)
        self._account_groups(stats, groups)

        try:
            results = self._backend.run_reducers(reducer, groups)
        finally:
            self._stats.worker_blas_threads = getattr(self._backend, "worker_blas_threads", None)
            # Distributed rounds additionally report where each group ran and
            # how many payload bytes crossed the wire, a failed round too;
            # see JobStats.
            take_accounting = getattr(self._backend, "take_round_accounting", None)
            if take_accounting is not None:
                assignments, shipped = take_accounting()
                self._stats.worker_assignments.append(assignments)
                self._stats.bytes_shipped += shipped
        outputs: list[KeyValue] = []
        for key in groups:
            produced, elapsed = results[key]
            outputs.extend(produced)
            stats.reducer_times[key] = elapsed

        self._stats.rounds.append(stats)
        return outputs


def shuffle_point_stream(
    runtime: MapReduceRuntime,
    stream,
    *,
    ell: int,
    partitioning: str,
    rng: np.random.Generator,
    chunk_size: int,
    adversarial_indices=None,
) -> tuple[list[StreamedPartition], int, int]:
    """The MapReduce drivers' shuffle: route a point stream into ``ell`` partitions.

    Wraps ``stream`` (a :class:`~repro.streaming.stream.PointStream` or
    any iterable of points/batches), probes its length, caps ``ell`` at
    the length when it is known, builds the matching
    :class:`~repro.mapreduce.partitioner.ChunkRouter` and runs
    :meth:`MapReduceRuntime.shuffle_stream` with oversized native batches
    re-split to ``chunk_size``, on the runtime's partition-storage tier.

    ``partitioning`` is ``"contiguous"``, ``"round_robin"``, ``"random"``
    or ``"adversarial"``. The random split draws one variate from ``rng``
    for its hash seed; the adversarial split (which needs a sized stream)
    builds its explicit assignment with
    :func:`~repro.mapreduce.partitioner.split_adversarial`, shuffling
    with ``rng``; the others draw nothing.

    Returns ``(partitions, n_points, ell_used)``. A stream that declares
    length 0 raises :class:`~repro.exceptions.EmptyStreamError`
    deterministically, before any store is built.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    if not isinstance(stream, PointStream):
        stream = GeneratorStream(stream)
    try:
        n_hint = len(stream)
    except TypeError:
        n_hint = None
    if n_hint == 0:
        raise EmptyStreamError("the stream declares length 0; nothing to shuffle")
    ell_used = ell if n_hint is None else min(ell, n_hint)
    if partitioning == "adversarial":
        if n_hint is None:
            raise InvalidParameterError(
                "adversarial partitioning needs the stream length up front; "
                "use a sized stream (e.g. an ArrayStream)"
            )
        assignment = split_adversarial(
            n_hint, ell_used, adversarial_indices, random_state=rng
        )
        router = ChunkRouter(ell_used, "explicit", assignment=assignment)
    elif partitioning == "random":
        router = ChunkRouter(
            ell_used, "random", n_total=n_hint, seed=int(rng.integers(2**63 - 1))
        )
    else:
        router = ChunkRouter(ell_used, partitioning, n_total=n_hint)
    parts = runtime.shuffle_stream(
        stream.iterate_batches(chunk_size), router, max_chunk_rows=chunk_size
    )
    return parts, router.points_routed, ell_used
