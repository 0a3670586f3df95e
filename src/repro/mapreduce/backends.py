"""Pluggable executor backends for the MapReduce runtime.

The runtime in :mod:`repro.mapreduce.runtime` separates *what* a round
computes (the shuffle and memory accounting) from *how* the reduce phase
is executed. The latter is delegated to an :class:`ExecutorBackend`, of
which three implementations live here (the fourth, ``"distributed"``,
lives in :mod:`repro.mapreduce.cluster`):

* :class:`SerialBackend` (``"serial"``) — runs reducers one after the
  other in the calling process. Fully deterministic timing; the reference
  implementation every other backend must agree with.
* :class:`ThreadBackend` (``"threads"``) — runs reducers on a
  :class:`~concurrent.futures.ThreadPoolExecutor`. Gives real speed-ups
  for NumPy-heavy reducers (which release the GIL inside vectorised
  kernels) with zero serialisation cost, because all threads share the
  coordinator's address space.
* :class:`ProcessBackend` (``"processes"``) — runs reducers on a
  :class:`~concurrent.futures.ProcessPoolExecutor`. Sidesteps the GIL
  entirely, so pure-Python reducer work also scales, at the price of
  pickling the reducer callable and its per-group values for every task.

Orthogonal to *where reducers run* is *where the shuffle's partition rows
live* while they are being assembled: one of two storage tiers, each a
plain class that the runtime's shuffle builds directly (the tier is
chosen by :func:`resolve_storage`):

* :class:`MemoryPartitionStore` (``"memory"``) — plain NumPy arrays in
  the coordinator's address space; the natural tier for the serial and
  thread backends (their reducers share that address space anyway). A
  process-pool worker receives the rows by value through the pool's pipe.
* :class:`DiskPartitionStore` (``"disk"``) — per-partition ``.npy``
  spill files that chunks are appended to and that :meth:`finalize
  <DiskPartitionStore.finalize>` reopens as read-only
  :class:`numpy.memmap` matrices. Worker processes open the file by
  *path* when they unpickle a handle, so no row data is pickled, and a
  reducer's working set stays ``O(n/ell)`` resident while the sealed
  partitions live on disk. The only tier of the distributed backend: a
  partition reaches a TCP worker only as a file.

Reducer callables handed to :class:`ProcessBackend` must be picklable:
module-level functions, or :func:`functools.partial` of module-level
functions over picklable arguments. The k-center drivers in
:mod:`repro.core` are written this way so that any backend can run them.
"""

from __future__ import annotations

import os
import struct
import time
import uuid
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Hashable, Protocol, runtime_checkable

import numpy as np

from .._openblas import blas_threads, limit_blas_threads
from ..exceptions import InvalidParameterError

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "PartitionArray",
    "MemoryPartitionStore",
    "DiskPartitionStore",
    "available_backends",
    "available_storage_tiers",
    "blas_threads",
    "limit_blas_threads",
    "resolve_backend",
    "resolve_storage",
]


def _timed_reduce(reducer, key, values):
    """Run one reducer call and measure the wall-clock time spent inside it.

    Module-level so that the process backend can submit it to a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the timing is taken
    in the worker, so it measures reducer compute, not serialisation.
    """
    start = time.perf_counter()
    produced = list(reducer(key, values))
    return produced, time.perf_counter() - start


# -- partition arrays ------------------------------------------------------------------


def _attach_spilled_array(meta: tuple[str, tuple, str]) -> "PartitionArray":
    """Reconstruct a spilled :class:`PartitionArray` in a worker process by path.

    The worker memory-maps the ``.npy`` spill file read-only; nothing is
    copied and the attached handle never owns (so never unlinks) the
    file — the coordinator's sealed handle does. A pool worker opens the
    coordinator's own file; a distributed worker gets ``meta`` naming its
    pushed copy instead (see :mod:`repro.mapreduce.cluster`).
    """
    return PartitionArray.from_spill_file(*meta)


def _rebuild_by_value(array: np.ndarray) -> "PartitionArray":
    """Reconstruct a by-value :class:`PartitionArray` from its pickled rows."""
    array = np.asarray(array)
    array.flags.writeable = False
    return PartitionArray(array)


class PartitionArray:
    """A sealed shuffle partition: a read-only NumPy array that pickles cheaply.

    Instances are created by the partition stores' ``finalize``. In the
    coordinator the wrapper views the stored rows (zero copy). A handle
    on a disk-tier spill file pickles as ``(path, shape, dtype)``, which
    the receiving process memory-maps read-only (the distributed backend
    puts the path of the worker's pushed copy there); a handle on
    in-process rows (the memory tier) pickles them by value, which a
    process pool's pipe carries at the price of the copy.
    """

    __slots__ = ("_array", "_spill_meta", "_owns_spill")

    def __init__(
        self,
        array: np.ndarray,
        *,
        spill_meta: tuple[str, tuple, str] | None = None,
        owns_spill: bool = False,
    ) -> None:
        self._array = array
        self._spill_meta = spill_meta
        self._owns_spill = owns_spill

    @classmethod
    def from_spill_file(
        cls, path: str, shape: tuple, dtype, *, owner: bool = False
    ) -> "PartitionArray":
        """Memory-map an on-disk ``.npy`` spill file without copying it.

        Used by :class:`DiskPartitionStore` to hand off a partition it
        appended chunk by chunk. The owner-side handle (``owner=True``)
        deletes the file on :meth:`close`; handles attached in worker
        processes never do.
        """
        if int(np.prod(tuple(shape))) == 0:
            # mmap cannot map zero bytes; an empty partition is read eagerly
            # (it costs nothing) so zero-row spill files stay valid handles.
            view = np.load(path)
            view.flags.writeable = False
        else:
            view = np.load(path, mmap_mode="r")
        expected = (tuple(shape), np.dtype(dtype))
        if (view.shape, view.dtype) != expected:
            raise InvalidParameterError(
                f"spill file {path} holds {view.shape} {view.dtype}; expected {expected}"
            )
        return cls(
            view,
            spill_meta=(os.fspath(path), tuple(shape), np.dtype(dtype).str),
            owns_spill=owner,
        )

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ``ndarray``."""
        return self._array

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, item) -> np.ndarray:
        return self._array[item]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy or dtype is not None:
            return np.array(self._array, dtype=dtype)
        return self._array

    def __reduce__(self):
        if self._spill_meta is not None:
            return (_attach_spilled_array, (self._spill_meta,))
        return (_rebuild_by_value, (np.asarray(self._array),))

    def close(self) -> None:
        """Release the backing storage (owner side: also delete the spill file)."""
        if self._owns_spill:
            # Drop the memmap view before deleting the file; on POSIX the
            # unlink is safe even if stray views are still mapped.
            path = self._spill_meta[0]
            self._array = np.empty(0, dtype=self._array.dtype)
            self._owns_spill = False
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already deleted
                pass


# -- partition storage tiers -----------------------------------------------------------


def _partition_shape(dimension: int | None, capacity) -> tuple:
    """Row-block shape: ``(capacity, d)``, or ``(capacity,)`` for 1-d rows."""
    if dimension is None:
        return (capacity,)
    return (capacity, dimension)


class MemoryPartitionStore:
    """Partition rows in a plain NumPy array in the coordinator's address space.

    The right tier for the serial and thread backends, whose reducers
    share the coordinator's memory. The array grows geometrically
    (amortised O(1) appends; ``initial_capacity`` preallocates the
    expected partition size). The sealed handle pickles its rows *by
    value*, which the process pool's pipe carries; the distributed
    backend refuses this tier (see :func:`check_storage_tier`).

    A store takes row blocks the shuffle has already checked: ``(m, d)``
    (or ``(m,)`` when ``dimension`` is ``None``, for the global-index
    column) with ``m >= 1``. :meth:`finalize` seals it once;
    :meth:`close` releases storage never handed off and is idempotent.
    """

    spilled_bytes = 0

    def __init__(self, dimension: int | None, dtype, initial_capacity: int) -> None:
        self._dimension = dimension
        self._n = 0
        self._storage = np.empty(_partition_shape(dimension, initial_capacity), dtype=dtype)

    def append(self, rows: np.ndarray) -> None:
        needed = self._n + rows.shape[0]
        capacity = self._storage.shape[0]
        if needed > capacity:
            grown = np.empty(
                _partition_shape(self._dimension, max(needed, 2 * capacity)),
                dtype=self._storage.dtype,
            )
            grown[: self._n] = self._storage[: self._n]
            self._storage = grown
        self._storage[self._n : needed] = rows
        self._n = needed

    def finalize(self) -> PartitionArray:
        view = self._storage[: self._n]
        view.flags.writeable = False
        return PartitionArray(view)

    def close(self) -> None:
        pass


_NPY_HEADER_SIZE = 128
"""Fixed on-disk ``.npy`` header size reserved by :class:`DiskPartitionStore`.

The header is rewritten in place at finalize time (once the row count is
known), so it must have a fixed length; 128 bytes fits any realistic
``(n, d)`` shape with room to spare and keeps the data 64-byte aligned
for the memmap.
"""


def _npy_header(shape: tuple, dtype: np.dtype) -> bytes:
    """A version-1.0 ``.npy`` header padded to exactly ``_NPY_HEADER_SIZE`` bytes."""
    descr = np.lib.format.dtype_to_descr(dtype)
    header = (
        f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {tuple(shape)!r}, }}"
    ).encode("latin1")
    payload_len = _NPY_HEADER_SIZE - 10  # magic (6) + version (2) + length field (2)
    if len(header) + 1 > payload_len:  # pragma: no cover - astronomically large shapes
        raise InvalidParameterError(f"spill header for shape {shape} exceeds the reserved size")
    payload = header.ljust(payload_len - 1, b" ") + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", payload_len) + payload


class DiskPartitionStore:
    """Partition rows appended to an on-disk ``.npy`` spill file in ``spill_dir``.

    Chunks are written straight through to the file (the coordinator
    keeps no copy), a placeholder header is rewritten with the true
    shape at finalize time, and the sealed partition is reopened as a
    read-only :class:`numpy.memmap`. Worker processes unpickling the
    handle open the file by path, so no row data is ever pickled; the
    tier is bounded by disk rather than by RAM. ``spilled_bytes`` counts
    the row bytes written. The row, finalize and close contract is that
    of :class:`MemoryPartitionStore`.
    """

    def __init__(self, dimension: int | None, dtype, spill_dir: str) -> None:
        self._dimension = dimension
        self._dtype = np.dtype(dtype)
        self._n = 0
        self.spilled_bytes = 0
        self._path = os.path.join(os.fspath(spill_dir), f"part-{uuid.uuid4().hex}.npy")
        self._file = open(self._path, "w+b")
        self._file.write(b"\0" * _NPY_HEADER_SIZE)

    def append(self, rows: np.ndarray) -> None:
        data = np.ascontiguousarray(rows)
        self._file.write(data.data)
        self._n += rows.shape[0]
        self.spilled_bytes += data.nbytes

    def finalize(self) -> PartitionArray:
        shape = _partition_shape(self._dimension, self._n)
        self._file.seek(0)
        self._file.write(_npy_header(shape, self._dtype))
        self._file.close()
        self._file = None
        # The store keeps the file until the handle exists, so a failed
        # attach (e.g. EMFILE from the memmap) leaves close() to unlink it.
        sealed = PartitionArray.from_spill_file(self._path, shape, self._dtype, owner=True)
        self._path = None
        return sealed

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._path is not None:
            path, self._path = self._path, None
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already deleted
                pass


def available_storage_tiers() -> tuple[str, ...]:
    """Names accepted by the ``storage=`` knobs (``"auto"`` plus the concrete tiers)."""
    return ("auto", "disk", "memory")


def check_storage_tier(storage: str, backend: "ExecutorBackend | str | None" = None) -> str:
    """Return ``storage`` if ``backend`` can run it, else raise :class:`InvalidParameterError`.

    ``storage`` must name a tier or ``"auto"``. The distributed backend
    takes no ``"memory"``: a partition reaches a TCP worker only as a
    file, so the wire never carries partition rows by value. ``backend``
    is a backend instance or a backend name; the rule reads only its
    name. The runtime calls this when it is built, before any shuffle
    reads a chunk; :func:`resolve_storage` (and so the planner) calls it
    too.
    """
    if storage not in available_storage_tiers():
        raise InvalidParameterError(
            f"unknown storage tier {storage!r}; "
            f"available: {', '.join(available_storage_tiers())}"
        )
    if storage == "memory" and getattr(backend, "name", backend) == _DISTRIBUTED:
        raise InvalidParameterError(
            "the distributed backend takes no 'memory' storage tier: a partition "
            "reaches a TCP worker only as a spill file; use storage='disk' or 'auto'"
        )
    return storage


def resolve_storage(
    storage: str | None,
    *,
    backend: "ExecutorBackend | str | None" = None,
    estimated_bytes: int | None = None,
    memory_budget_bytes: int | None = None,
) -> str:
    """Turn a storage knob (``"auto"``/``"memory"``/``"disk"``) into a tier.

    The knob is first checked against ``backend`` with
    :func:`check_storage_tier`. ``"auto"`` (or ``None``) then picks
    ``"disk"`` on the process pool and the distributed backend, whose
    workers open the sealed partitions by path instead of unpickling
    their rows, and ``"disk"`` when a ``memory_budget_bytes`` is given
    and the shuffle's estimated partition-tier footprint exceeds it (or
    is unknown, for unsized streams). The serial and thread backends
    otherwise get ``"memory"``.
    """
    if storage is None:
        storage = "auto"
    if check_storage_tier(storage, backend) != "auto":
        return storage
    if getattr(backend, "name", backend) in ("processes", _DISTRIBUTED):
        return "disk"
    if memory_budget_bytes is not None and (
        estimated_bytes is None or estimated_bytes > memory_budget_bytes
    ):
        return "disk"
    return "memory"


# -- backends --------------------------------------------------------------------------


@runtime_checkable
class ExecutorBackend(Protocol):
    """How the reduce phase of a MapReduce round is executed.

    Implementations must return one ``(outputs, elapsed_seconds)`` entry
    per reduce group, keyed like ``groups`` — the runtime relies on that
    to keep accounting and output order identical across backends.
    """

    name: str

    def run_reducers(
        self, reducer, groups: dict[Hashable, list]
    ) -> dict[Hashable, tuple[list, float]]:
        """Execute ``reducer`` on every group and return outputs plus timings."""
        ...

    def close(self) -> None:
        """Release pools and shared resources. Idempotent."""
        ...


class SerialBackend:
    """Reference backend: reducers run sequentially in the calling process."""

    name = "serial"

    def run_reducers(self, reducer, groups):
        return {key: _timed_reduce(reducer, key, values) for key, values in groups.items()}

    def close(self) -> None:
        pass


class ThreadBackend:
    """Reducers run concurrently on a thread pool (shared address space, GIL applies)."""

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = _check_workers(max_workers)
        self._pool: ThreadPoolExecutor | None = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def run_reducers(self, reducer, groups):
        if self._max_workers == 1 or len(groups) <= 1:
            return {
                key: _timed_reduce(reducer, key, values) for key, values in groups.items()
            }
        pool = self._ensure_pool()
        futures = {
            key: pool.submit(_timed_reduce, reducer, key, values)
            for key, values in groups.items()
        }
        return {key: future.result() for key, future in futures.items()}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend:
    """Reducers run on a process pool; partitions travel as spill-file handles.

    Reducer callables (and their group values) are pickled per task, so
    they must be module-level functions or partials thereof. Under
    ``storage="auto"`` the shuffle spills partitions to ``.npy`` files,
    which workers memory-map by path. Each worker caps its BLAS at one
    thread on start-up (:func:`limit_blas_threads`): the pool already
    runs one process per core, and per-worker BLAS pools would
    oversubscribe them.
    """

    name = "processes"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = _check_workers(max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._worker_blas_threads: int | None = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def worker_blas_threads(self) -> int | None:
        """BLAS threads per pool worker: 1, or ``None`` before the pool starts
        and when the cap is unavailable."""
        return self._worker_blas_threads

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers, initializer=limit_blas_threads
            )
            # Workers load the same library, so the cap applies there
            # exactly when the coordinator finds its thread calls.
            self._worker_blas_threads = 1 if blas_threads() is not None else None
        return self._pool

    def run_reducers(self, reducer, groups):
        pool = self._ensure_pool()
        futures = {
            key: pool.submit(_timed_reduce, reducer, key, values)
            for key, values in groups.items()
        }
        return {key: future.result() for key, future in futures.items()}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_BACKENDS = {
    "serial": SerialBackend,
    "threads": ThreadBackend,
    "processes": ProcessBackend,
}

#: Registered lazily in :func:`resolve_backend` (the implementation lives
#: in :mod:`repro.mapreduce.cluster`, which imports this module).
_DISTRIBUTED = "distributed"


def _check_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return os.cpu_count() or 1
    if max_workers < 1:
        raise InvalidParameterError("max_workers must be >= 1")
    return int(max_workers)


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`resolve_backend` (and the ``backend=`` knobs)."""
    return tuple(sorted((*_BACKENDS, _DISTRIBUTED)))


def resolve_backend(
    backend: str | ExecutorBackend | None = None,
    *,
    max_workers: int | None = None,
    workers=None,
) -> ExecutorBackend:
    """Turn a backend name (or ``None``, or a ready instance) into a backend.

    ``None`` preserves the runtime's historical behavior: a thread pool
    when ``max_workers`` > 1, the serial reference otherwise — unless
    ``workers`` (a sequence of ``host:port`` addresses) is given, which
    selects the distributed backend. Strings are looked up among
    :func:`available_backends`; for ``"threads"`` and ``"processes"`` a
    ``max_workers`` of ``None`` means one worker per CPU, and
    ``"distributed"`` requires ``workers``.
    """
    if backend is None and workers is not None:
        backend = _DISTRIBUTED
    if backend is None:
        if max_workers is not None and max_workers > 1:
            return ThreadBackend(max_workers)
        return SerialBackend()
    if not isinstance(backend, str):
        if workers is not None:
            raise InvalidParameterError(
                "workers= addresses only apply to the 'distributed' backend name; "
                "configure the backend instance directly instead"
            )
        if isinstance(backend, ExecutorBackend):
            return backend
        raise InvalidParameterError(
            f"backend must be a string or an ExecutorBackend; got {backend!r}"
        )
    name = backend.lower()
    if name == _DISTRIBUTED:
        from .cluster import DistributedBackend

        if workers is None:
            raise InvalidParameterError(
                "the distributed backend requires worker addresses "
                "(workers=['host:port', ...]); start daemons with "
                "'repro worker --listen HOST:PORT'"
            )
        if max_workers is not None:
            _check_workers(max_workers)  # validated, but the address list rules
        return DistributedBackend(workers)
    if workers is not None:
        raise InvalidParameterError(
            f"workers= addresses only apply to the 'distributed' backend; "
            f"got backend={backend!r} (use max_workers= for pool sizes)"
        )
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        ) from None
    if factory is SerialBackend:
        if max_workers is not None:
            _check_workers(max_workers)  # validate even though serial ignores it
        return SerialBackend()
    return factory(max_workers)
