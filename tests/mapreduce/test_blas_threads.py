"""Reducer processes run one BLAS thread; the coordinator keeps its own count.

The ``"processes"`` pool and ``repro worker`` daemons cap numpy's
scipy-openblas at one thread (:func:`repro.mapreduce.backends.limit_blas_threads`);
the serial and thread backends, and the in-process servers of a
:class:`~repro.mapreduce.LocalCluster`, share the coordinator's BLAS and
leave it alone. The test process reads the thread count through its own
``ctypes`` handle on the library it has mapped, so the checks do not go
through the helper under test. Without the library, the helpers return
``None``, the Euclidean ``Metric.pairwise`` takes NumPy's product and the
round-2 solver runs its passes in one thread.
"""

from __future__ import annotations

import _ctypes
import ctypes
import os
import pickle
import socket
import subprocess
import sys

import importlib

import numpy as np
import pytest
from _rounds import echo_reducer

from repro import _openblas as openblas_module
from repro.core import OutliersClusterSolver
from repro.datasets import higgs_like
from repro.mapreduce import LocalCluster, MapReduceRuntime
from repro.mapreduce.backends import blas_threads, limit_blas_threads
from repro.metricspace import WeightedPoints, get_metric
from repro.mapreduce.worker import OP_HELLO, OP_OK, recv_frame, send_frame

solver_module = importlib.import_module("repro.core.outliers_cluster")


def _loaded_openblas() -> ctypes.CDLL | None:
    """The scipy-openblas library this process has mapped, or ``None``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        return None
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "libscipy_openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        if hasattr(library, "scipy_openblas_get_num_threads64_"):
            library.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            library.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            return library
    return None


_OPENBLAS = _loaded_openblas()

needs_openblas = pytest.mark.skipif(
    _OPENBLAS is None, reason="numpy's BLAS is not a loaded scipy-openblas library"
)


def _threads() -> int:
    return _OPENBLAS.scipy_openblas_get_num_threads64_()


@pytest.fixture
def coordinator_threads():
    """Run the test with two BLAS threads in this process, then restore the count.

    Two threads make an uncapped worker (which inherits or defaults to
    more than one) distinguishable from a capped one on any host.
    """
    original = _threads()
    _OPENBLAS.scipy_openblas_set_num_threads64_(2)
    try:
        yield 2
    finally:
        _OPENBLAS.scipy_openblas_set_num_threads64_(original)


# Module-level so the process pool can unpickle it.
def blas_threads_reducer(key, values):
    yield (key, _loaded_openblas().scipy_openblas_get_num_threads64_())


def _run_round(runtime: MapReduceRuntime, n_groups: int = 4) -> list:
    groups = {key: [None] for key in range(n_groups)}
    return runtime.execute_round(groups, blas_threads_reducer)


@needs_openblas
class TestProcessPoolCap:
    def test_pool_reducers_see_one_thread(self, coordinator_threads):
        with MapReduceRuntime(backend="processes", max_workers=2) as runtime:
            outputs = _run_round(runtime)
            assert [count for _key, count in outputs] == [1, 1, 1, 1]
            assert runtime.stats.worker_blas_threads == 1
            assert "worker_blas_threads=1" in repr(runtime.stats)

    def test_coordinator_count_unchanged_after_pool_job(self, coordinator_threads):
        with MapReduceRuntime(backend="processes", max_workers=2) as runtime:
            _run_round(runtime)
        assert _threads() == coordinator_threads

    def test_serial_and_threads_leave_blas_alone(self, coordinator_threads):
        for backend in ("serial", "threads"):
            with MapReduceRuntime(backend=backend, max_workers=2) as runtime:
                outputs = _run_round(runtime)
                assert {count for _key, count in outputs} == {coordinator_threads}
                assert runtime.stats.worker_blas_threads is None
        assert _threads() == coordinator_threads


@needs_openblas
class TestLocalClusterLeavesCoordinatorAlone:
    def test_coordinator_count_unchanged_after_cluster_job(self, coordinator_threads):
        with LocalCluster(2) as cluster:
            with MapReduceRuntime(workers=cluster.addresses) as runtime:
                outputs = _run_round(runtime)
                # The in-process servers share the coordinator's BLAS and
                # report its count; only daemons cap theirs.
                assert {count for _key, count in outputs} == {coordinator_threads}
                assert runtime.stats.worker_blas_threads == coordinator_threads
        assert _threads() == coordinator_threads


class TestHelperWithoutOpenblas:
    def test_missing_library(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            openblas_module, "_OPENBLAS_PATTERN", str(tmp_path / "libscipy_openblas*")
        )
        assert limit_blas_threads() is None
        assert blas_threads() is None

    def test_library_without_the_symbol(self, monkeypatch):
        monkeypatch.setattr(openblas_module, "_OPENBLAS_PATTERN", _ctypes.__file__)
        assert limit_blas_threads() is None
        assert blas_threads() is None

    def test_pool_runs_uncapped_and_says_so(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            openblas_module, "_OPENBLAS_PATTERN", str(tmp_path / "libscipy_openblas*")
        )
        with MapReduceRuntime(backend="processes", max_workers=1) as runtime:
            runtime.execute_round({0: [1]}, echo_reducer)
            assert runtime.stats.worker_blas_threads is None

    def test_pairwise_and_round_two_fall_back(self, monkeypatch, tmp_path):
        points = higgs_like(2049, random_state=5)
        metric = get_metric("euclidean")
        expected = metric.pairwise(points)
        coreset = WeightedPoints(points=points, weights=np.ones(points.shape[0]))
        monkeypatch.setattr(
            openblas_module, "_OPENBLAS_PATTERN", str(tmp_path / "libscipy_openblas*")
        )
        assert openblas_module.syrk_upper(points) is None
        # NumPy's ``points @ points.T`` carries the same upper triangle.
        assert metric.pairwise(points).tobytes() == expected.tobytes()
        thread_counts = []
        in_threads = solver_module._in_threads

        def spy(task, arguments):
            thread_counts.append(len(arguments))
            return in_threads(task, arguments)

        monkeypatch.setattr(solver_module, "_in_threads", spy)
        solver = OutliersClusterSolver(coreset, k=5)
        solver.run(0.0)
        radius = float(np.quantile(solver.candidate_radii(), 0.01))
        assert radius <= solver._graph_bound
        solver.run(radius)
        # One upper-triangle pass and one graph build, each on one thread.
        assert thread_counts == [1, 1]


@needs_openblas
def test_worker_daemon_reports_one_thread_in_hello(tmp_path):
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    # The daemon imports the test-only reducer from next to this file.
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, os.path.dirname(os.path.abspath(__file__)), env.get("PYTHONPATH", "")]
    )
    # The daemon would start with two threads; its start-up must cap them.
    env["OPENBLAS_NUM_THREADS"] = "2"
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
         "--spill-dir", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=env,
    ) as process:
        try:
            address = process.stdout.readline().strip().rsplit(" ", 1)[-1]
            host, port = address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                send_frame(sock, OP_HELLO)
                opcode, payload = recv_frame(sock)
            assert opcode == OP_OK
            assert pickle.loads(payload)["blas_threads"] == 1
            with MapReduceRuntime(workers=[address]) as runtime:
                runtime.execute_round({0: [1]}, echo_reducer)
                assert runtime.stats.worker_blas_threads == 1
        finally:
            process.terminate()
            assert process.wait(timeout=10) == 0
