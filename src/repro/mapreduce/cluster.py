"""Coordinator side of the distributed executor backend.

:class:`DistributedBackend` implements the
:class:`~repro.mapreduce.backends.ExecutorBackend` protocol over TCP: it
ships each reduce group to one of a fixed set of worker daemons (see
:mod:`repro.mapreduce.worker` for the daemon and the wire protocol),
runs the reducer remotely, and collects the pickled results. It slots
into :class:`~repro.mapreduce.runtime.MapReduceRuntime` like any other
backend — ``backend="distributed"`` plus ``workers=["host:port", ...]``
— and the drivers' results are bit-identical to the serial reference
because all randomness is drawn in the coordinator before dispatch.

Placement and payloads
----------------------
Reduce groups are placed round-robin: the group at enumeration position
``i`` (for the shuffle rounds, exactly the partition index) goes to
worker ``i mod W``. Placement is therefore a pure function of the
partition index and the worker list, matching the pure-function routing
of the shuffle itself. The reducer callable is shipped once per round
per worker, not once per task.

A partition reaches a worker only as a file. The runtime gives this
backend the disk tier alone (``storage="memory"`` is refused; see
:func:`~repro.mapreduce.backends.check_storage_tier`). A spill file is
pushed to a worker as a PUT frame the first time a task for that worker
references it, and the worker's OK reply names its copy. The task is
pickled per worker, and each disk-tier handle in it pickles with the
path of that worker's copy, which the reducer re-opens as a read-only
memmap: no row data is pickled, a file already pushed to a worker is
never pushed twice, and the worker opens only its own files. The file
goes out with :meth:`socket.socket.sendfile`, so the coordinator never
reads it: a push costs the coordinator no memory beyond the frame
header, and the worker writes the body into its own file through one
fixed-size buffer. Every other frame is capped at
:data:`~repro.mapreduce.worker.MAX_FRAME_BYTES`; the largest one left
is the round-2 TASK, which carries the union of the coresets by value.

Both ends of every connection set ``TCP_NODELAY``, and a frame's header
leaves in one gather write with its payload, so no frame waits for the
peer's delayed ACK (see :mod:`repro.mapreduce.worker`).
:attr:`DistributedBackend.bytes_shipped` counts the payload bytes of
every REDUCER, PUT and TASK frame sent, in failed rounds too.

Failure model
-------------
A transport failure — refused connection, reset, EOF or truncated frame
mid-result — marks the worker dead for the rest of the job and requeues
its unfinished groups round-robin onto the surviving workers (reducers
are pure, so a retry is safe and bit-identical). When no worker
survives, :class:`~repro.exceptions.WorkerUnavailableError` reports the
last failure seen per worker. An exception raised *by the reducer* is
deterministic and is not retried: it surfaces as
:class:`~repro.exceptions.WorkerTaskError` with the remote traceback,
as does a RESULT the worker refuses to send for being over the frame
cap. A REDUCER or TASK frame over the cap raises
:class:`~repro.mapreduce.worker.FrameTooLargeError` before a byte of it
is sent, and is not retried either.
Per-round attempts and shipped bytes are recorded in
:attr:`~repro.mapreduce.runtime.JobStats.worker_assignments` and
:attr:`~repro.mapreduce.runtime.JobStats.bytes_shipped`.

:class:`LocalCluster` spawns N in-process loopback workers (real TCP,
real pickling, deterministic failure injection) so the full distributed
path runs in CI without any remote machines.
"""

from __future__ import annotations

import io
import pickle
import socket
import threading
from typing import Hashable, Sequence

from ..exceptions import (
    InvalidParameterError,
    WorkerTaskError,
    WorkerUnavailableError,
)
from .backends import PartitionArray, _attach_spilled_array
from .worker import (
    OP_ERROR,
    OP_HELLO,
    OP_OK,
    OP_QUIT,
    OP_REDUCER,
    OP_RESULT,
    OP_TASK,
    FrameTooLargeError,
    WorkerServer,
    configure_socket,
    recv_frame,
    send_frame,
    send_put,
)

__all__ = [
    "DistributedBackend",
    "LocalCluster",
    "parse_worker_address",
]


def parse_worker_address(spec) -> tuple[str, int]:
    """Parse a worker address: ``"host:port"`` or a ``(host, port)`` pair."""
    if isinstance(spec, tuple) and len(spec) == 2:
        host, port = spec
    else:
        host, sep, port = str(spec).rpartition(":")
        if not sep or not host:
            raise InvalidParameterError(
                f"worker address must look like HOST:PORT; got {spec!r}"
            )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"worker address must look like HOST:PORT; got {spec!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise InvalidParameterError(f"worker port must be in [1, 65535]; got {port}")
    return str(host), port


class _TaskPickler(pickle.Pickler):
    """Pickles a task for one worker, naming that worker's copy of each spill file.

    A disk-tier :class:`PartitionArray` handle pickles as ``(path, shape,
    dtype)`` with no row data. ``worker_path`` maps the coordinator's
    path to the worker's copy, pushing the file first if need be, so the
    discovery and the push ride on the one pickling pass the task needs
    anyway.
    """

    def __init__(self, buffer: io.BytesIO, worker_path) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._worker_path = worker_path

    def reducer_override(self, obj):
        meta = obj._spill_meta if isinstance(obj, PartitionArray) else None
        if meta is None:
            return NotImplemented
        path, shape, dtype = meta
        return _attach_spilled_array, ((self._worker_path(path), shape, dtype),)


def _dumps_task(task, worker_path) -> bytes:
    buffer = io.BytesIO()
    _TaskPickler(buffer, worker_path).dump(task)
    return buffer.getvalue()


class _WorkerLink:
    """Coordinator-side state for one worker: socket, liveness, pushed files."""

    __slots__ = (
        "host", "port", "label", "sock", "alive", "failure",
        "pushed_spills", "round_marker", "hello",
    )

    def __init__(self, spec) -> None:
        self.host, self.port = parse_worker_address(spec)
        self.label = f"{self.host}:{self.port}"
        self.sock: socket.socket | None = None
        self.alive = True
        self.failure: str | None = None
        #: Coordinator spill path -> the path of the worker's copy.
        self.pushed_spills: dict[str, str] = {}
        self.round_marker: object | None = None
        #: The worker's HELLO reply from the latest connection (``None``
        #: before the first one).
        self.hello: dict | None = None

    def close(self, *, polite: bool) -> None:
        sock, self.sock = self.sock, None
        if sock is None:
            return
        if polite:
            try:
                send_frame(sock, OP_QUIT)
                recv_frame(sock)
            except OSError:
                pass
        sock.close()
        # A QUIT ends the worker-side connection, which deletes the spill
        # files it received — the next connection must push them again.
        self.pushed_spills.clear()
        self.round_marker = None


class DistributedBackend:
    """Executor backend that runs reducers on remote worker daemons over TCP.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs), e.g. the :attr:`LocalCluster.addresses` of a test
        cluster or the printed listen addresses of ``repro worker``
        daemons. At least one is required; the list order defines the
        round-robin placement.
    connect_timeout:
        Seconds to wait for a TCP connect before declaring a worker
        unreachable (the job then proceeds on the surviving workers).

    Notes
    -----
    The backend keeps one connection per worker, reused across rounds
    and across runtimes until :meth:`close`; a closed backend reconnects
    lazily, so instances may be reused. ``close()`` ends the
    connections but never stops the daemons themselves.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Sequence,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        links = [_WorkerLink(spec) for spec in workers]
        if not links:
            raise InvalidParameterError(
                "the distributed backend requires at least one worker address"
            )
        if connect_timeout <= 0:
            raise InvalidParameterError("connect_timeout must be positive")
        self._links = links
        self._connect_timeout = float(connect_timeout)
        self._lock = threading.Lock()
        self._last_assignments: dict[Hashable, list[str]] = {}
        self._last_bytes = 0
        self._bytes_shipped = 0

    # -- introspection -----------------------------------------------------------------

    @property
    def worker_addresses(self) -> tuple[str, ...]:
        """The configured worker addresses, in placement order."""
        return tuple(link.label for link in self._links)

    @property
    def max_workers(self) -> int:
        """Number of configured workers (the backend's degree of parallelism)."""
        return len(self._links)

    @property
    def bytes_shipped(self) -> int:
        """Total payload bytes sent to workers over this backend's lifetime."""
        return self._bytes_shipped

    @property
    def worker_blas_threads(self) -> int | None:
        """BLAS threads per worker, as the workers' HELLO replies report them.

        The largest count reported; ``None`` before any connection, or
        when a connected worker could not read its count.
        """
        reported = [link.hello.get("blas_threads") for link in self._links
                    if link.hello is not None]
        if not reported or None in reported:
            return None
        return max(reported)

    def take_round_accounting(self) -> tuple[dict[Hashable, list[str]], int]:
        """Per-round accounting for :class:`~repro.mapreduce.runtime.JobStats`.

        Returns ``(assignments, bytes_shipped)`` for the most recent
        :meth:`run_reducers` call and resets the per-round counters:
        ``assignments`` maps each reduce key to the worker labels that
        were attempted in order (more than one entry records a retry
        after a worker failure).
        """
        assignments, self._last_assignments = self._last_assignments, {}
        shipped, self._last_bytes = self._last_bytes, 0
        return assignments, shipped

    # -- connection plumbing -----------------------------------------------------------

    def _connect(self, link: _WorkerLink) -> None:
        """Open ``link``'s connection and record the worker's HELLO reply."""
        sock = socket.create_connection(
            (link.host, link.port), timeout=self._connect_timeout
        )
        sock.settimeout(None)
        configure_socket(sock)
        link.sock = sock
        link.round_marker = None
        send_frame(sock, OP_HELLO)
        opcode, response = recv_frame(sock)
        if opcode != OP_OK:
            raise ProtocolViolation(opcode)
        link.hello = pickle.loads(response)

    def _mark_dead(self, link: _WorkerLink, exc: BaseException) -> None:
        link.alive = False
        link.failure = f"{type(exc).__name__}: {exc}"
        sock, link.sock = link.sock, None
        if sock is not None:
            sock.close()
        link.pushed_spills.clear()
        link.round_marker = None

    # -- the ExecutorBackend protocol --------------------------------------------------

    def run_reducers(self, reducer, groups):
        """Execute ``reducer`` on every group across the workers; see the module docs."""
        keys = list(groups)
        reducer_payload = pickle.dumps(reducer, protocol=pickle.HIGHEST_PROTOCOL)

        round_marker = object()
        # Recorded as the round goes, so a failed round is accounted too:
        # the attempts and the bytes shipped before the failure.
        assignments: dict[Hashable, list[str]] = {key: [] for key in keys}
        self._last_assignments, self._last_bytes = assignments, 0
        results: dict[Hashable, tuple[list, float]] = {}
        task_errors: list[WorkerTaskError | FrameTooLargeError] = []
        abort = threading.Event()

        def drain(link: _WorkerLink, assigned: list[tuple[int, Hashable]],
                  failed: list[tuple[int, Hashable]]) -> None:
            sent = 0

            def send(opcode: bytes, payload: bytes) -> None:
                nonlocal sent
                send_frame(link.sock, opcode, payload)
                sent += len(payload)

            def reply(expected: bytes, context: str) -> bytearray:
                """The worker's reply payload; a remote ERROR raises WorkerTaskError."""
                opcode, response = recv_frame(link.sock)
                if opcode == expected:
                    return response
                if opcode == OP_ERROR:
                    exc_type, message, remote_traceback = pickle.loads(response)
                    raise WorkerTaskError(
                        f"{context} raised {exc_type} on worker {link.label}: {message}\n"
                        f"--- remote traceback ---\n{remote_traceback}"
                    )
                raise ProtocolViolation(opcode)

            def worker_path(path: str) -> str:
                """The worker's copy of spill file ``path``, pushed on first use."""
                nonlocal sent
                if path not in link.pushed_spills:
                    sent += send_put(link.sock, path)
                    local = reply(OP_OK, f"storing pushed spill file {path!r}")
                    link.pushed_spills[path] = local.decode("utf-8", "surrogateescape")
                return link.pushed_spills[path]

            try:
                for index, key in assigned:
                    if abort.is_set():
                        break
                    assignments[key].append(link.label)
                    if link.sock is None:
                        self._connect(link)
                    if link.round_marker is not round_marker:
                        send(OP_REDUCER, reducer_payload)
                        reply(OP_OK, "unpickling the reducer")
                        link.round_marker = round_marker
                    # Pickled per dispatch (not up front for the whole round),
                    # so the coordinator holds at most one serialized payload
                    # per worker in flight — a retry re-pickles instead of the
                    # round keeping a full serialized copy of every partition.
                    send(OP_TASK, _dumps_task((key, groups[key]), worker_path))
                    results[key] = pickle.loads(reply(OP_RESULT, f"reducer for key {key!r}"))
            except (WorkerTaskError, FrameTooLargeError) as exc:
                # An application error (unpicklable reducer, refused spill
                # file, raising reducer, a frame over the cap) is
                # deterministic: abort instead of retrying the identical
                # payload on every worker in turn.
                task_errors.append(exc)
                abort.set()
            except (OSError, EOFError, pickle.PickleError, ProtocolViolation) as exc:
                self._mark_dead(link, exc)
                # The task in flight and everything after it must be retried.
                failed.extend(
                    (index, key) for index, key in assigned if key not in results
                )
            except Exception as exc:
                # Anything else (e.g. a RESULT that unpickles into a class the
                # coordinator cannot resolve) is deterministic: surface it
                # instead of letting the thread die and the tasks vanish.
                task_errors.append(WorkerTaskError(
                    f"coordinator-side failure handling results from worker "
                    f"{link.label}: {exc!r}"
                ))
                abort.set()
            finally:
                with self._lock:
                    self._last_bytes += sent
                    self._bytes_shipped += sent

        pending: list[tuple[int, Hashable]] = list(enumerate(keys))
        while pending and not abort.is_set():
            alive = [link for link in self._links if link.alive]
            if not alive:
                details = "; ".join(
                    f"{link.label}: {link.failure or 'no failure recorded'}"
                    for link in self._links
                )
                raise WorkerUnavailableError(
                    f"no surviving worker to run {len(pending)} remaining reduce "
                    f"task(s) ({details})"
                )
            queues: dict[int, list[tuple[int, Hashable]]] = {
                id(link): [] for link in alive
            }
            for index, key in pending:
                link = alive[index % len(alive)]
                queues[id(link)].append((index, key))
            failures: dict[int, list[tuple[int, Hashable]]] = {
                id(link): [] for link in alive
            }
            threads = []
            for link in alive:
                assigned = queues[id(link)]
                if not assigned:
                    continue
                thread = threading.Thread(
                    target=drain, args=(link, assigned, failures[id(link)]),
                    daemon=True,
                )
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join()
            if task_errors:
                raise task_errors[0]
            pending = sorted(
                {(index, key) for per_link in failures.values()
                 for index, key in per_link if key not in results},
                key=lambda task: task[0],
            )
        return {key: results[key] for key in keys}

    def close(self) -> None:
        """End the worker connections (the daemons keep serving). Idempotent."""
        for link in self._links:
            link.close(polite=link.alive)

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProtocolViolation(Exception):
    """Internal: the worker answered with an unexpected opcode.

    Treated exactly like a transport failure (the worker is marked dead
    and its tasks retried elsewhere); never escapes the backend.
    """

    def __init__(self, opcode: bytes) -> None:
        super().__init__(f"unexpected response opcode {opcode!r}")


class LocalCluster:
    """N in-process loopback workers, for tests and the CI smoke jobs.

    Spawns :class:`~repro.mapreduce.worker.WorkerServer` instances on
    ``127.0.0.1`` (OS-assigned ports), each serving on a background
    thread — real TCP sockets and real pickling, but deterministic and
    self-contained. Use as a context manager::

        with LocalCluster(2) as cluster:
            solver = MapReduceKCenter(5, workers=cluster.addresses)
            result = solver.fit(points)

    Parameters
    ----------
    n_workers:
        Number of loopback workers to start.
    fail_after_tasks:
        Optional failure injection: ``{worker_index: n}`` makes that
        worker die on its ``n+1``-th task (see
        :class:`~repro.mapreduce.worker.WorkerServer`).
    fail_mode:
        ``"close"`` (drop the connection) or ``"truncate"`` (send a
        partial result frame first).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        fail_after_tasks: dict[int, int] | None = None,
        fail_mode: str = "close",
    ) -> None:
        if n_workers < 1:
            raise InvalidParameterError("n_workers must be >= 1")
        fail_after_tasks = fail_after_tasks or {}
        self._servers: list[WorkerServer] = []
        try:
            for index in range(n_workers):
                server = WorkerServer(
                    fail_after_tasks=fail_after_tasks.get(index),
                    fail_mode=fail_mode,
                )
                self._servers.append(server)
                server.serve_in_background()
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> list[str]:
        """``host:port`` of every worker, in placement order."""
        return [server.address for server in self._servers]

    @property
    def workers(self) -> list[WorkerServer]:
        """The underlying servers (for spill-dir and task-count assertions)."""
        return list(self._servers)

    def backend(self, **kwargs) -> DistributedBackend:
        """A :class:`DistributedBackend` wired to this cluster's workers."""
        return DistributedBackend(self.addresses, **kwargs)

    def kill_worker(self, index: int) -> None:
        """Hard-stop one worker (listener and live connections)."""
        self._servers[index].shutdown()

    def close(self) -> None:
        """Stop every worker and remove their spill directories. Idempotent."""
        for server in self._servers:
            server.shutdown()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
