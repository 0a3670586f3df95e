"""Process-level accounting: CPU of the process tree, peak RSS, worker daemons,
and the environment record printed with every result."""

from __future__ import annotations

import os
import platform
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")
#: Seconds a worker daemon may take to print its listen address.
START_TIMEOUT_S = 60.0


def _proc_stat(pid: str) -> tuple[int, float] | None:
    """``(ppid, user+sys seconds)`` of a live process, or ``None`` if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    # Fields after the command name start at field 3 (state): ppid is 4,
    # utime 14 and stime 15 in proc(5) numbering.
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu_s() -> float:
    """User+sys CPU seconds of this process and all its descendants.

    Live descendants (pool workers, worker daemons) are read from
    ``/proc``; descendants already reaped are in ``RUSAGE_CHILDREN``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    children: dict[int, list[tuple[int, float]]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat is not None:
                children.setdefault(stat[0], []).append((int(entry), stat[1]))
    pending = [os.getpid()]
    while pending:
        for pid, cpu in children.get(pending.pop(), ()):
            total += cpu
            pending.append(pid)
    return total


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark (``ru_maxrss``) to its current RSS.

    Lets ``peak_rss_mib`` describe the measured solves rather than input
    generation. Linux only; elsewhere the mark keeps its old value.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code: host, versions, BLAS threads."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class WorkerDaemons:
    """``python -m repro worker`` daemons on loopback, owned by the benchmark.

    Each daemon gets its own temporary directory (``TMPDIR``), so the
    spill directory it creates there can be checked after shutdown, and
    its stderr goes to a file in that directory's parent.
    """

    def __init__(self, count: int, src: Path, scratch: Path) -> None:
        self.addresses: list[str] = []
        self._procs: list[subprocess.Popen] = []
        self._dirs: list[Path] = []
        self._stderr: list[Path] = []
        try:
            for index in range(count):
                tmp = scratch / f"daemon-{index}"
                tmp.mkdir(parents=True)
                err = scratch / f"daemon-{index}.stderr"
                env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))
                with open(err, "wb") as err_handle:
                    proc = subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
                        stdout=subprocess.PIPE, stderr=err_handle, env=env,
                    )
                self._procs.append(proc)
                self._dirs.append(tmp)
                self._stderr.append(err)
            for proc in self._procs:
                ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
                line = proc.stdout.readline().decode().strip() if ready else ""
                if " listening on " not in line:
                    raise RuntimeError(f"worker daemon did not start: {line!r}")
                self.addresses.append(line.rsplit(" ", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self, timeout: float = 20.0) -> list[str]:
        """SIGTERM every daemon and return the problems found.

        A problem is a daemon that had to be killed, exited with a
        non-zero code, or left its spill directory behind.
        """
        problems = []
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for index, proc in enumerate(self._procs):
            try:
                code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                problems.append(f"daemon {index} ignored SIGTERM and was killed")
            else:
                if code != 0:
                    problems.append(f"daemon {index} exited with code {code}")
            proc.stdout.close()
        for index, tmp in enumerate(self._dirs):
            left = sorted(p.name for p in tmp.iterdir())
            if left:
                problems.append(f"daemon {index} left {left} behind")
        self._procs = []
        return problems

    def stderr_text(self) -> str:
        return "".join(path.read_text(errors="replace") for path in self._stderr)
