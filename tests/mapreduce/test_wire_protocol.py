"""Tests for the distributed backend's wire layer.

Framing (one gather write per frame, partial sends, chunked receives),
``TCP_NODELAY`` at both ends of every connection, PUT frames that stream
a spill file into the worker's own file, the cap on every other frame
(checked by the sender before writing and by the receiver before
allocating), and hostile frames: a PUT whose ``.npy`` header does not
match its body, a PUT cut off mid-body, and a header announcing far more
bytes than ever arrive.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import WorkerTaskError
from repro.mapreduce import LocalCluster, WorkerServer
from repro.mapreduce import worker as worker_module
from repro.mapreduce.backends import DiskPartitionStore, PartitionArray
from repro.mapreduce.worker import (
    CHUNK_BYTES,
    MAX_FRAME_BYTES,
    OP_ERROR,
    FrameTooLargeError,
    OP_HELLO,
    OP_OK,
    OP_PUT,
    OP_TASK,
    ProtocolError,
    recv_frame,
    send_frame,
    send_put,
)


# Module-level so every payload is picklable for the wire.
def summing_reducer(key, values):
    yield (key, sum(values))


def row_count_reducer(key, values):
    yield (key, len(values))


def large_output_reducer(key, values):
    yield (key, bytes(8192))


class SpySocket:
    """Counts the send calls a frame takes; ``limit`` caps each gather write."""

    def __init__(self, sock: socket.socket, limit: int | None = None) -> None:
        self._sock = sock
        self._limit = limit
        self.calls: list[str] = []

    def sendmsg(self, buffers):
        self.calls.append("sendmsg")
        if self._limit is None:
            return self._sock.sendmsg(buffers)
        data = b"".join(bytes(buffer) for buffer in buffers)[: self._limit]
        return self._sock.send(data)

    def sendall(self, data):  # pragma: no cover - must not be called
        self.calls.append("sendall")
        return self._sock.sendall(data)

    def send(self, data):  # pragma: no cover - must not be called
        self.calls.append("send")
        return self._sock.send(data)


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _put_frame(body: bytes, *, announce: int | None = None) -> bytes:
    """A raw PUT frame: the header, then ``body`` (announced as its length by default)."""
    length = len(body) if announce is None else announce
    return struct.pack("!cQ", OP_PUT, length) + body


@contextlib.contextmanager
def _traced_peak():
    """Yields a list that receives the bytes allocated at peak inside the block."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    result = []
    try:
        yield result
        result.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if started:
            tracemalloc.stop()


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def server():
    with WorkerServer() as worker:
        worker.serve_in_background()
        yield worker


@pytest.fixture
def connection(server):
    with socket.create_connection((server.host, server.port)) as sock:
        yield sock


class TestFraming:
    @pytest.mark.parametrize("payload", [b"", b"x", b"payload" * 1000])
    def test_send_frame_makes_one_send_call(self, payload):
        left, right = socket.socketpair()
        try:
            spy = SpySocket(left)
            send_frame(spy, OP_TASK, payload)
            assert spy.calls == ["sendmsg"]
            assert recv_frame(right) == (OP_TASK, payload)
        finally:
            left.close()
            right.close()

    def test_send_frame_resumes_partial_sends(self):
        left, right = socket.socketpair()
        try:
            spy = SpySocket(left, limit=3)
            send_frame(spy, OP_TASK, b"0123456789abcdef")
            assert len(spy.calls) == -(-(9 + 16) // 3)
            assert recv_frame(right) == (OP_TASK, b"0123456789abcdef")
        finally:
            left.close()
            right.close()

    def test_payload_longer_than_a_chunk_roundtrips(self):
        payload = np.random.default_rng(0).bytes(2 * CHUNK_BYTES + 12345)
        left, right = socket.socketpair()
        try:
            sender = threading.Thread(target=send_frame, args=(left, OP_TASK, payload))
            sender.start()
            opcode, received = recv_frame(right)
            sender.join(timeout=10.0)
            assert not sender.is_alive()
            assert opcode == OP_TASK
            assert received == payload
        finally:
            left.close()
            right.close()


class TestNoDelay:
    def test_links_and_accepted_connections_set_nodelay(self):
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                backend.run_reducers(summing_reducer, {0: [1], 1: [2]})
                for link in backend._links:
                    assert link.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
                for worker in cluster.workers:
                    accepted = list(worker._connections)
                    assert accepted
                    for conn in accepted:
                        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1

    def test_sequential_small_tasks_do_not_wait_for_delayed_acks(self):
        # A reply whose payload waits for the peer's delayed ACK costs about
        # 40 ms, so 200 such tasks take about 8 s; without the stall they
        # take well under 1 s. The bound is loose on purpose.
        groups = {key: [key] for key in range(200)}
        with LocalCluster(1) as cluster:
            with cluster.backend() as backend:
                backend.run_reducers(summing_reducer, {0: [0]})  # connect first
                start = time.perf_counter()
                results = backend.run_reducers(summing_reducer, groups)
                elapsed = time.perf_counter() - start
        assert results[199][0] == [(199, 199)]
        assert elapsed < 4.0


class TestStreamedPut:
    def test_put_streams_the_file_into_the_worker_spill_dir(self, server, connection, tmp_path):
        path = tmp_path / "part.npy"
        array = np.arange(3000, dtype=np.float64).reshape(1000, 3)
        np.save(path, array)
        body = send_put(connection, str(path))
        assert body == path.stat().st_size
        opcode, reply = recv_frame(connection)
        assert opcode == OP_OK
        local_path = reply.decode()
        assert os.path.dirname(local_path) == server.spill_dir
        with open(local_path, "rb") as copy:
            assert copy.read() == path.read_bytes()

    def test_push_holds_no_copy_of_the_file(self, tmp_path):
        # One 7 MB spill file; the coordinator streams it with sendfile and
        # the in-process worker writes it through one CHUNK_BYTES buffer.
        store = DiskPartitionStore(7, np.dtype(np.float64), str(tmp_path))
        store.append(np.random.default_rng(1).normal(size=(125_000, 7)))
        handle = store.finalize()
        try:
            with LocalCluster(1) as cluster:
                with cluster.backend() as backend:
                    backend.run_reducers(summing_reducer, {0: [0]})  # connect first
                    with _traced_peak() as peak:
                        results = backend.run_reducers(row_count_reducer, {0: handle})
            assert results[0][0] == [(0, 125_000)]
            assert peak[0] < 2 * (1 << 20)
        finally:
            handle.close()

    def test_header_mismatched_put_is_a_task_error_and_writes_no_file(self, tmp_path):
        # The header announces ten rows; the file holds nine.
        path = tmp_path / "lying.npy"
        path.write_bytes(_npy_bytes(np.zeros((10, 3)))[:-24])
        handle = PartitionArray(np.zeros((10, 3)), spill_meta=(str(path), (10, 3), "<f8"))
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                with pytest.raises(WorkerTaskError, match="announces"):
                    backend.run_reducers(row_count_reducer, {0: handle})
                # Not retried: the second worker was never even connected.
                assert backend._links[1].sock is None
                for worker in cluster.workers:
                    assert os.listdir(worker.spill_dir) == []
                # The refused body was read to its end: the link still works.
                results = backend.run_reducers(summing_reducer, {0: [3], 1: [4]})
                assert results[0][0] == [(0, 3)]

    @pytest.mark.parametrize(
        "tail",
        [
            _npy_bytes(np.zeros((10, 3)))[:-24],  # a row short
            _npy_bytes(np.zeros((10, 3))) + b"\0" * 24,  # a row too many
            _npy_bytes(np.array([1, "a"], dtype=object)),  # pickled objects
            b"\x93NUMPY\x03\x00",  # an unsupported format version
            b"not an npy file at all",
            b"\x93NU",  # ends inside the magic string
        ],
        ids=["short", "long", "object", "version", "garbage", "cut-magic"],
    )
    def test_refused_body_is_drained_and_answered_with_error(self, server, connection, tail):
        connection.sendall(_put_frame(tail))
        opcode, reply = recv_frame(connection)
        assert opcode == OP_ERROR
        exc_type, message, _ = pickle.loads(reply)
        assert exc_type in ("_PutRefused", "ValueError")
        assert os.listdir(server.spill_dir) == []
        send_frame(connection, OP_HELLO)
        assert recv_frame(connection)[0] == OP_OK

    def test_put_cut_off_mid_body_drops_the_connection_and_its_file(self, server, connection):
        data = _npy_bytes(np.zeros((100_000, 3)))
        frame = _put_frame(data)
        connection.sendall(frame[: len(frame) // 2])
        assert _wait_for(lambda: len(os.listdir(server.spill_dir)) == 1)
        connection.shutdown(socket.SHUT_WR)
        # A transport failure: the worker closes without a reply ...
        assert connection.recv(1) == b""
        # ... and deletes the partly written file.
        assert _wait_for(lambda: os.listdir(server.spill_dir) == [])


class TestFrameCap:
    def test_cap_is_256_mib(self):
        assert MAX_FRAME_BYTES == 256 << 20

    def test_send_frame_over_the_cap_raises_before_writing(self, monkeypatch):
        monkeypatch.setattr(worker_module, "MAX_FRAME_BYTES", 1024)
        left, right = socket.socketpair()
        try:
            spy = SpySocket(left)
            with pytest.raises(FrameTooLargeError, match="cap"):
                send_frame(spy, OP_TASK, bytes(1025))
            assert spy.calls == []
            # A frame at the cap goes out, and it is the first one on the wire.
            send_frame(spy, OP_TASK, bytes(1024))
            assert recv_frame(right) == (OP_TASK, bytes(1024))
        finally:
            left.close()
            right.close()

    def test_over_cap_result_is_a_task_error_not_a_retry(self, monkeypatch):
        monkeypatch.setattr(worker_module, "MAX_FRAME_BYTES", 4096)
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                with pytest.raises(WorkerTaskError, match="FrameTooLargeError"):
                    backend.run_reducers(large_output_reducer, {0: [1]})
                # Not retried: the second worker was never even connected.
                assert backend._links[1].sock is None
                assert all(link.alive for link in backend._links)
                # The worker answered ERROR in place of the RESULT: the link still works.
                results = backend.run_reducers(summing_reducer, {0: [3], 1: [4]})
                assert results[0][0] == [(0, 3)]

    def test_over_cap_task_raises_before_a_byte_is_sent(self, monkeypatch):
        monkeypatch.setattr(worker_module, "MAX_FRAME_BYTES", 4096)
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                with pytest.raises(FrameTooLargeError):
                    backend.run_reducers(row_count_reducer, {0: [bytes(8192)]})
                _, shipped = backend.take_round_accounting()
                # Only the REDUCER frame went out; no worker is marked dead.
                assert 0 < shipped < 4096
                assert backend._links[1].sock is None
                assert all(link.alive for link in backend._links)
                assert cluster.workers[0].tasks_completed == 0
                results = backend.run_reducers(row_count_reducer, {0: [1, 2]})
                assert results[0][0] == [(0, 2)]


class TestHostileFrames:
    def test_huge_announced_frame_then_eof_allocates_one_chunk(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!cQ", OP_TASK, MAX_FRAME_BYTES))
            left.close()
            with _traced_peak() as peak:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    recv_frame(right)
            assert peak[0] < 2 * CHUNK_BYTES
        finally:
            right.close()

    def test_frame_over_the_cap_is_refused(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!cQ", OP_TASK, MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="refusing"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_huge_announced_put_then_eof_drops_the_connection(self, server, connection):
        head = _npy_bytes(np.zeros((10, 3)))[:128]
        connection.sendall(_put_frame(head, announce=1 << 40))
        connection.shutdown(socket.SHUT_WR)
        assert connection.recv(1) == b""
        assert _wait_for(lambda: os.listdir(server.spill_dir) == [])

    def test_unknown_opcode_drops_the_connection(self, server, connection):
        connection.sendall(struct.pack("!cQ", b"z", 4) + b"junk")
        # The worker closes without reading the payload, so the close may
        # arrive as a reset.
        try:
            assert connection.recv(1) == b""
        except ConnectionResetError:
            pass
