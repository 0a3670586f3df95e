"""Streaming-engine throughput: CORESETSTREAM at batch size 1 vs ``--batch-size``.

This benchmark backs the batched streaming engine with a number: it runs
the same seeded synthetic stream through CORESETSTREAM twice — once with
one point per ``process_batch`` call (``batch_size=1``) and once in
chunks of ``--batch-size`` points — and reports points/second for both,
plus their ratio.

The measured trajectory is written to ``BENCH_stream.json`` (override
the location with ``REPRO_BENCH_STREAM_JSON``) so CI can archive the
numbers as an artifact and benchmark history can track them.

Knobs (see ``conftest.py``): ``--stream-points`` (default 100000),
``--batch-size`` (default 1024), ``--seed``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import CoresetStreamKCenter
from repro.datasets import higgs_like
from repro.streaming import ArrayStream, StreamingRunner

from .conftest import bench_batch_size, bench_seed, stream_points

K = 50
MU = 8
#: Batched throughput must beat batch size 1 by this factor on streams long
#: enough to amortise the warm-up (the acceptance bar of the engine).
MIN_SPEEDUP = 5.0
#: Below this stream length the interpreter warm-up dominates both paths,
#: so only sanity (speedup > 1) is asserted.
FULL_ASSERT_POINTS = 50_000


def _trajectory_path() -> str:
    return os.environ.get("REPRO_BENCH_STREAM_JSON", "BENCH_stream.json")


def _run_once(points: np.ndarray, batch_size: int):
    algorithm = CoresetStreamKCenter(K, coreset_multiplier=MU, random_state=bench_seed())
    runner = StreamingRunner(batch_size=batch_size)
    start = time.perf_counter()
    report = runner.run(algorithm, ArrayStream(points))
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_stream_throughput_batched_vs_one_point():
    n = stream_points()
    batch_size = bench_batch_size()
    points = higgs_like(n, random_state=bench_seed())

    one_point_report, _ = _run_once(points, 1)
    batched_report, _ = _run_once(points, batch_size)

    # Identical results: batching is an execution detail, not an algorithm
    # change.
    assert np.array_equal(
        batched_report.result.centers, one_point_report.result.centers
    )
    assert batched_report.n_points == one_point_report.n_points == n

    speedup = batched_report.throughput / one_point_report.throughput
    trajectory = {
        "benchmark": "bench_stream_throughput",
        "algorithm": "CoresetStreamKCenter",
        "k": K,
        "coreset_multiplier": MU,
        "n_points": n,
        "seed": bench_seed(),
        "records": [
            {
                "mode": "one-point",
                "batch_size": 1,
                "stream_time_s": one_point_report.stream_time,
                "points_per_sec": one_point_report.throughput,
            },
            {
                "mode": "batched",
                "batch_size": batch_size,
                "stream_time_s": batched_report.stream_time,
                "points_per_sec": batched_report.throughput,
            },
        ],
        "speedup": speedup,
    }
    with open(_trajectory_path(), "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    print()
    print(
        f"stream throughput (n={n}, batch_size={batch_size}): "
        f"batch size 1 {one_point_report.throughput:,.0f} pts/s, "
        f"batched {batched_report.throughput:,.0f} pts/s, "
        f"speedup {speedup:.1f}x"
    )

    assert speedup > 1.0
    if n >= FULL_ASSERT_POINTS:
        assert speedup >= MIN_SPEEDUP, (
            f"batched throughput only {speedup:.2f}x batch size 1 "
            f"(need >= {MIN_SPEEDUP}x at n={n})"
        )
