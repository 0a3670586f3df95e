"""Distributed MapReduce worker daemon and the TCP wire protocol.

``repro worker --listen HOST:PORT`` (or ``python -m repro worker``)
starts a worker daemon through :func:`serve`: a small TCP server that
accepts reduce tasks from a coordinator-side
:class:`~repro.mapreduce.cluster.DistributedBackend`, executes them in
the worker's own address space, and streams the pickled results back.
One daemon serves any number of jobs, one connection per job. A daemon
caps its BLAS at one thread (:func:`~repro.mapreduce.backends.limit_blas_threads`),
like a process-pool worker. The in-process
:class:`~repro.mapreduce.cluster.LocalCluster` harness spawns the same
server on loopback sockets for deterministic tests; those servers run
inside the coordinator and leave its BLAS alone.

Wire protocol
-------------
Every frame is a 9-byte header — a 1-byte opcode followed by an unsigned
8-byte big-endian payload length — and then the payload itself. Request
opcodes (coordinator to worker):

* ``h`` **HELLO** — empty payload; the worker replies OK with pickled
  metadata (pid, address, spill directory, and ``blas_threads``: the
  process's BLAS thread count, ``None`` when it cannot be read). The
  coordinator sends it once per connection.
* ``r`` **REDUCER** — pickled reducer callable; becomes the connection's
  current reducer (sent once per round, not once per task). Replies OK.
* ``p`` **PUT** — a disk-tier spill file pushed by value, not pickled:
  the body is the raw ``.npy`` file. The coordinator streams it with
  :meth:`socket.socket.sendfile` (:func:`send_put`), so it never holds
  the file in memory. The worker parses the ``.npy`` magic and header
  from the head of the body (no pickled dtypes) and checks that the rest
  of the body is exactly ``prod(shape) * itemsize`` bytes. A body that
  passes is written straight into a new file in the worker's spill
  directory through one reused :data:`CHUNK_BYTES` buffer. Replies OK
  with that file's path (UTF-8). A body that fails the check is read to
  its end in bounded chunks and dropped: no file is written and the
  reply is ERROR.
* ``t`` **TASK** — pickled ``(key, values)``: run the connection's
  reducer on the group. Replies RESULT with pickled
  ``(outputs, elapsed_seconds)``, or ERROR with a pickled
  ``(exception_type, message, traceback)`` summary when the reducer
  itself raised or its RESULT would exceed :data:`MAX_FRAME_BYTES` (an
  application failure the coordinator must not retry).
* ``q`` **QUIT** — end the connection. The worker deletes every spill
  file received on it, then replies OK and closes.

Response opcodes (worker to coordinator): ``o`` OK, ``R`` RESULT,
``E`` ERROR. Every frame but a PUT is capped at :data:`MAX_FRAME_BYTES`:
:func:`send_frame` raises :class:`FrameTooLargeError` before it writes a
byte of a longer one, and the receiver refuses a header announcing more
before it allocates anything. Anything that breaks the framing — EOF
mid-frame, an unknown opcode, an over-cap header — is a *transport*
failure: the coordinator marks the
worker dead and retries its tasks on the surviving workers, while the
worker drops the connection and cleans up its received files, a
partly written PUT file included.

The worker never translates paths. The coordinator pickles each TASK for
one worker, and a disk-tier
:class:`~repro.mapreduce.backends.PartitionArray` in it pickles with the
path that worker's PUT reply named, so the reducer memory-maps the
worker's own copy. A partition reaches a worker only this way, as a
file: the distributed backend runs no memory tier, so no TASK frame
carries partition rows by value.

Both ends set ``TCP_NODELAY`` on every connection
(:func:`configure_socket`), and :func:`send_frame` hands a frame's
header and payload to the kernel in one gather write. The exchange is
strict request and reply, so with Nagle's algorithm on, the tail of a
frame written after its header would wait for the peer's delayed ACK
(about 40 ms on Linux) before leaving: a stall on every reply that
carries a payload. :func:`recv_frame` reads with ``recv_into`` and grows
its buffer only as bytes arrive, one :data:`CHUNK_BYTES` chunk at a
time, so a header announcing a huge payload costs one chunk, not the
announced size.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import shutil
import socket
import struct
import sys
import tempfile
import threading
import traceback
import uuid

import numpy as np

from ..exceptions import ClusterError, InvalidParameterError
from . import backends as _backends
from .backends import _timed_reduce

__all__ = [
    "OP_HELLO",
    "OP_REDUCER",
    "OP_PUT",
    "OP_TASK",
    "OP_QUIT",
    "OP_OK",
    "OP_RESULT",
    "OP_ERROR",
    "CHUNK_BYTES",
    "MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "ProtocolError",
    "configure_socket",
    "send_frame",
    "send_put",
    "recv_frame",
    "WorkerServer",
    "serve",
]


_HEADER = struct.Struct("!cQ")

OP_HELLO = b"h"
OP_REDUCER = b"r"
OP_PUT = b"p"
OP_TASK = b"t"
OP_QUIT = b"q"
OP_OK = b"o"
OP_RESULT = b"R"
OP_ERROR = b"E"

_REQUEST_OPS = (OP_HELLO, OP_REDUCER, OP_PUT, OP_TASK, OP_QUIT)

#: Upper bound on the payload of every frame but a PUT (256 MiB). No
#: frame carries partition rows: partitions travel as PUT files, whose
#: bodies are checked against their ``.npy`` header instead. The largest
#: legitimate frame left is the round-2 TASK, which carries the union of
#: the round-1 coresets by value: points, weights and indices, about
#: 0.4 MiB for the 5440-point, 7-dimensional union of a 200k-point solve
#: with 200 outliers. A receiver treats a longer announced length as a
#: broken stream before allocating; a header within the cap costs it at
#: most one chunk until the bytes actually arrive.
MAX_FRAME_BYTES = 256 << 20

#: Largest piece of a frame read by one ``recv_into``, and the size of
#: the one buffer a PUT body passes through on its way into the file.
CHUNK_BYTES = 1 << 20

#: Longest ``.npy`` header a PUT may carry (numpy's own parsing default).
_MAX_NPY_HEADER_BYTES = 10000


class FrameTooLargeError(ClusterError):
    """A frame to send is over :data:`MAX_FRAME_BYTES`; raised before any byte is written.

    Not a transport failure: the same payload is too large for any
    worker, so the coordinator does not retry it elsewhere.
    """


class ProtocolError(ConnectionError):
    """The peer violated the framing (EOF mid-frame, bad opcode, oversized frame).

    A :class:`ConnectionError`, so coordinator-side code that treats
    ``OSError`` as "this worker is gone" handles truncated frames and
    vanished peers through one code path.
    """


def configure_socket(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off on a connected TCP socket (both ends call this)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _send_buffers(sock: socket.socket, buffers) -> None:
    """Write all of ``buffers`` with gather writes, resuming after partial sends."""
    views = [memoryview(buffer).cast("B") for buffer in buffers if len(buffer)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


def _check_frame_size(length: int) -> None:
    """Raise :class:`FrameTooLargeError` if a non-PUT payload is over the cap."""
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"a {length}-byte frame payload exceeds the {MAX_FRAME_BYTES >> 20} MiB cap"
        )


def send_frame(sock: socket.socket, opcode: bytes, payload: bytes = b"") -> None:
    """Write one length-prefixed frame to ``sock`` in one gather write.

    Raises :class:`FrameTooLargeError`, having written nothing, when the
    payload is over :data:`MAX_FRAME_BYTES`.
    """
    _check_frame_size(len(payload))
    _send_buffers(sock, (_HEADER.pack(opcode, len(payload)), payload))


def send_put(sock: socket.socket, path: str) -> int:
    """Push the spill file at ``path`` as a PUT frame; returns the body length.

    The file follows the frame header through
    :meth:`socket.socket.sendfile`, so the caller never reads it into
    memory.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        sock.sendall(_HEADER.pack(OP_PUT, size))
        if size and sock.sendfile(handle, 0, size) != size:
            raise ProtocolError(f"spill file {path} shrank while it was being sent")
    return size


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError` on early EOF.

    Up to :data:`CHUNK_BYTES` are read in place. A longer payload is read
    chunk by chunk through one buffer and appended to the result, so
    memory grows with the bytes that arrive, not with the announced ``n``.
    """
    if n <= CHUNK_BYTES:
        buffer = bytearray(n)
        view = memoryview(buffer)
        got = 0
        while got < n:
            received = sock.recv_into(view[got:])
            if not received:
                break
            got += received
    else:
        buffer = bytearray()
        chunk = memoryview(bytearray(CHUNK_BYTES))
        while len(buffer) < n:
            received = sock.recv_into(chunk, min(n - len(buffer), CHUNK_BYTES))
            if not received:
                break
            buffer += chunk[:received]
        got = len(buffer)
    if got < n:
        raise ProtocolError(
            f"connection closed mid-frame ({got} of {n} bytes received)"
        )
    return buffer


def _recv_header(sock: socket.socket) -> tuple[bytes, int]:
    """Read one frame header; returns ``(opcode, payload_length)``."""
    return _HEADER.unpack(_recv_exact(sock, _HEADER.size))


def _recv_payload(sock: socket.socket, length: int) -> bytearray:
    """Read a non-PUT payload, refusing an over-cap length before allocating."""
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame announces {length} bytes, over the {MAX_FRAME_BYTES >> 20} MiB cap; "
            "refusing"
        )
    return _recv_exact(sock, length)


def recv_frame(sock: socket.socket) -> tuple[bytes, bytearray]:
    """Read one frame; returns ``(opcode, payload)``."""
    opcode, length = _recv_header(sock)
    return opcode, _recv_payload(sock, length)


class _PutRefused(ValueError):
    """A PUT body the worker will not store (its head does not check out)."""


class _PutBody:
    """The unread rest of one PUT frame's body, read through one reused buffer."""

    def __init__(self, sock: socket.socket, length: int) -> None:
        self._sock = sock
        self.remaining = length
        self._chunk = memoryview(bytearray(min(length, CHUNK_BYTES)))

    def read(self, n: int) -> bytearray:
        """The next ``n`` bytes of the body; refuses to read past its end."""
        if n > self.remaining:
            raise _PutRefused(
                f"PUT body ends {self.remaining} bytes in; its head needs {n} more"
            )
        self.remaining -= n
        return _recv_exact(self._sock, n)

    def drain(self, handle=None) -> None:
        """Read the rest of the body, writing it to ``handle`` unless ``None``."""
        while self.remaining:
            size = min(self.remaining, len(self._chunk))
            received = self._sock.recv_into(self._chunk, size)
            if not received:
                raise ProtocolError(
                    f"connection closed mid-frame ({self.remaining} PUT bytes missing)"
                )
            self.remaining -= received
            if handle is not None:
                handle.write(self._chunk[:received])


def _read_put_head(body: _PutBody) -> bytes:
    """Parse a PUT body's ``.npy`` magic and header; returns the bytes read.

    Leaves ``body`` at the first data byte and checks that exactly the
    data the ``.npy`` header announces is left; raises :class:`_PutRefused`
    (or another :class:`ValueError` from numpy) when the head is malformed.
    """
    head = body.read(8)  # magic string and format version
    major = head[6]
    if major not in (1, 2):
        raise _PutRefused(f"PUT body is not a version 1 or 2 .npy file: {bytes(head)!r}")
    length_field = struct.Struct("<H" if major == 1 else "<I")
    head += body.read(length_field.size)
    (header_length,) = length_field.unpack(head[8:])
    if header_length > _MAX_NPY_HEADER_BYTES:
        raise _PutRefused(f".npy header of {header_length} bytes; refusing")
    head += body.read(header_length)
    stream = io.BytesIO(head)
    version = np.lib.format.read_magic(stream)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, _fortran_order, dtype = read_header(stream)
    if dtype.hasobject:
        raise _PutRefused("PUT body holds an object array; refusing (no pickles)")
    data_bytes = math.prod(shape) * dtype.itemsize
    if body.remaining != data_bytes:
        raise _PutRefused(
            f"PUT body carries {body.remaining} data bytes; its .npy header "
            f"{shape} {dtype} announces {data_bytes}"
        )
    return bytes(head)


# -- the server ------------------------------------------------------------------------


def parse_listen_address(spec: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` listen spec (port 0 asks the OS for a free port)."""
    host, sep, port_text = str(spec).rpartition(":")
    if not sep or not host:
        raise InvalidParameterError(
            f"worker address must look like HOST:PORT; got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise InvalidParameterError(
            f"worker address must look like HOST:PORT; got {spec!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise InvalidParameterError(f"port must be in [0, 65535]; got {port}")
    return host, port


class WorkerServer:
    """A distributed-MapReduce worker: one TCP listener, one thread per connection.

    Parameters
    ----------
    host, port:
        Listen address. Port 0 (the default) binds a free port; the
        bound address is available as :attr:`address`.
    spill_dir:
        Directory for spill files received through PUT frames. ``None``
        (default) creates a worker-owned temporary directory that
        :meth:`shutdown` removes; a caller-provided directory is created
        if missing and left in place.
    fail_after_tasks, fail_mode:
        Deterministic failure injection for tests: after
        ``fail_after_tasks`` completed TASK frames the worker "dies" on
        the next one — ``fail_mode="close"`` drops the connection cold,
        ``fail_mode="truncate"`` first writes a partial result frame
        (header plus a few bytes) so the coordinator exercises its
        truncated-frame path. Once triggered the worker stays dead for
        every later task until :meth:`revive` is called.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spill_dir: str | None = None,
        fail_after_tasks: int | None = None,
        fail_mode: str = "close",
    ) -> None:
        if fail_mode not in ("close", "truncate"):
            raise InvalidParameterError(
                f"fail_mode must be 'close' or 'truncate'; got {fail_mode!r}"
            )
        if fail_after_tasks is not None and fail_after_tasks < 0:
            raise InvalidParameterError("fail_after_tasks must be >= 0 or None")
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        bound = self._listener.getsockname()
        self.host, self.port = bound[0], bound[1]
        self.address = f"{self.host}:{self.port}"
        if spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-worker-")
            self._owns_spill_dir = True
        else:
            os.makedirs(spill_dir, exist_ok=True)
            self._spill_dir = os.fspath(spill_dir)
            self._owns_spill_dir = False
        self._fail_after = fail_after_tasks
        self._fail_mode = fail_mode
        self._failed = False
        self._tasks_completed = 0
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._connections: set[socket.socket] = set()
        self._handler_threads: list[threading.Thread] = []
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def spill_dir(self) -> str:
        """Directory holding the spill files this worker received."""
        return self._spill_dir

    @property
    def tasks_completed(self) -> int:
        """TASK frames answered with a RESULT so far (all connections)."""
        with self._lock:
            return self._tasks_completed

    def revive(self) -> None:
        """Clear a triggered failure injection so the worker serves again."""
        with self._lock:
            self._failed = False
            self._tasks_completed = 0

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; blocks the calling thread."""
        while not self._shutdown.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            configure_socket(conn)
            with self._lock:
                if self._shutdown.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
                thread = threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                )
                # Prune finished handlers so a long-lived daemon serving
                # many jobs does not accumulate dead Thread objects.
                self._handler_threads = [
                    handler for handler in self._handler_threads if handler.is_alive()
                ]
                self._handler_threads.append(thread)
            thread.start()

    def serve_in_background(self) -> "WorkerServer":
        """Run :meth:`serve_forever` on a daemon thread; returns ``self``."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        self._serve_thread = thread
        return self

    def shutdown(self) -> None:
        """Stop accepting, drop live connections, join handlers, remove owned files."""
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._lock:
            connections = list(self._connections)
            threads = list(self._handler_threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._owns_spill_dir:
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- failure injection -------------------------------------------------------------

    def _should_fail_now(self) -> bool:
        with self._lock:
            if self._failed:
                return True
            if (
                self._fail_after is not None
                and self._tasks_completed >= self._fail_after
            ):
                self._failed = True
                return True
        return False

    def _die_on(self, conn: socket.socket) -> None:
        if self._fail_mode == "truncate":
            # A result header announcing a payload that never arrives: the
            # coordinator must fail on the truncated frame, not hang.
            try:
                conn.sendall(_HEADER.pack(OP_RESULT, 1 << 20) + b"dead")
            except OSError:  # pragma: no cover - peer already gone
                pass
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - peer already gone
            pass

    # -- connection handling -----------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        received: list[str] = []
        reducer = None
        try:
            while not self._shutdown.is_set():
                opcode, length = _recv_header(conn)
                if opcode not in _REQUEST_OPS:
                    raise ProtocolError(f"unknown opcode {opcode!r}")
                if opcode == OP_PUT:
                    self._receive_put(conn, length, received)
                    continue
                payload = _recv_payload(conn, length)
                if opcode == OP_QUIT:
                    # Delete the received files *before* acknowledging, so a
                    # coordinator that saw the OK can rely on the cleanup.
                    self._cleanup_received(received)
                    send_frame(conn, OP_OK)
                    break
                if opcode == OP_HELLO:
                    info = {
                        "pid": os.getpid(),
                        "address": self.address,
                        "spill_dir": self._spill_dir,
                        "blas_threads": _backends.blas_threads(),
                    }
                    send_frame(conn, OP_OK, pickle.dumps(info))
                elif opcode == OP_REDUCER:
                    # An unpicklable reducer (module only on the coordinator,
                    # version skew) is an application error, not a transport
                    # one: report it instead of dying, so the coordinator
                    # does not retry the identical payload elsewhere.
                    try:
                        reducer = pickle.loads(payload)
                    except Exception as exc:
                        send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
                    else:
                        send_frame(conn, OP_OK)
                elif opcode == OP_TASK:
                    if self._should_fail_now():
                        self._die_on(conn)
                        return
                    try:
                        if reducer is None:
                            raise RuntimeError(
                                "TASK received before any REDUCER on this connection"
                            )
                        key, values = pickle.loads(payload)
                        result = pickle.dumps(_timed_reduce(reducer, key, values))
                        # An over-cap result is the reducer's doing, not the
                        # wire's: answer ERROR so the coordinator does not retry.
                        _check_frame_size(len(result))
                    except Exception as exc:
                        send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
                    else:
                        send_frame(conn, OP_RESULT, result)
                        with self._lock:
                            self._tasks_completed += 1
        except (ProtocolError, OSError, EOFError, pickle.UnpicklingError):
            pass  # the peer vanished or spoke garbage; drop the connection
        finally:
            self._cleanup_received(received)
            conn.close()
            with self._lock:
                self._connections.discard(conn)

    def _receive_put(self, conn: socket.socket, length: int, received: list[str]) -> None:
        """Store one PUT body as a local spill file, or refuse it with ERROR.

        A refused body is read to its end and dropped, so the connection
        stays usable. EOF mid-body raises :class:`ProtocolError`; the
        partly written file is already in ``received``, so the
        connection's cleanup deletes it.
        """
        body = _PutBody(conn, length)
        try:
            head = _read_put_head(body)
        except ValueError as exc:
            body.drain()
            send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
            return
        local_path = os.path.join(self._spill_dir, f"recv-{uuid.uuid4().hex}.npy")
        received.append(local_path)
        try:
            with open(local_path, "wb") as handle:
                handle.write(head)
                body.drain(handle)
        except ConnectionError:
            raise  # the socket failed, not the file: the connection's cleanup runs
        except OSError as exc:  # the file failed (e.g. a full disk): refuse the body
            body.drain()
            received.remove(local_path)
            try:
                os.unlink(local_path)
            except FileNotFoundError:
                pass
            send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
            return
        send_frame(conn, OP_OK, local_path.encode("utf-8", "surrogateescape"))

    @staticmethod
    def _summarize(exc: BaseException) -> tuple[str, str, str]:
        """The ``(type, message, traceback)`` triple an ERROR frame carries."""
        return (type(exc).__name__, str(exc), traceback.format_exc())

    @staticmethod
    def _cleanup_received(received: list[str]) -> None:
        """Delete spill files received on a connection. Idempotent."""
        while received:
            path = received.pop()
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


def serve(listen: str, *, spill_dir: str | None = None) -> int:
    """Run a worker daemon on ``listen`` (``HOST:PORT``) until interrupted.

    Handles SIGTERM like Ctrl-C: the daemon drops its connections and
    removes its owned spill directory before exiting, so supervisors
    that stop workers with a plain ``kill`` leave no orphans behind.
    The daemon's BLAS runs one thread, as in a process-pool worker.
    """
    host, port = parse_listen_address(listen)
    _backends.limit_blas_threads()
    server = WorkerServer(host, port, spill_dir=spill_dir)
    print(f"repro worker listening on {server.address}", flush=True)
    previous_handler = None
    try:
        import signal

        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(0)
        )
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.shutdown()
        if previous_handler is not None:
            import signal

            signal.signal(signal.SIGTERM, previous_handler)
    return 0
