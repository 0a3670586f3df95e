"""Figure 7 — Scalability with respect to the number of processors.

Paper setup: randomized MapReduce algorithm with k=20, z=200, the size of
the *union* of the coresets fixed at ``8 (16 k + 6 z)``, parallelism ell
in {1, 2, 4, 8, 16}; the plot separates the coreset-construction time
(which shrinks super-linearly with ell, since each worker handles
``|S|/ell`` points and builds a coreset a factor ell smaller) from the
constant time of the final OUTLIERSCLUSTER solve.

Three complementary measurements:

* ``test_figure7_scaling_processors`` — the per-reducer accounting view:
  the parallel time of the coreset phase is the slowest round-1 reducer,
  which must decrease as ell grows while the solve time stays constant.
  Runs on whatever backend ``--backend`` selects (serial by default).
* ``test_figure7_true_wallclock_scaling`` — real end-to-end wall-clock
  over 1/2/4 worker pools on a synthetic ``--scaling-points`` instance
  (default 100k points). Requires ``--backend threads`` or
  ``--backend processes``; the speedup assertion additionally needs at
  least 4 CPUs (it is reported either way).
* ``test_figure7_streamed_shuffle_memory`` — the out-of-core shuffle on
  the seeded fig7 configuration: per backend, ``fit_stream`` with the
  ``"memory"`` partition tier and with ``"disk"`` spill files must agree
  bit for bit while the coordinator's accounted working set stays at
  ``O(chunk + coreset)``. Emits points/sec, spilled bytes, the exact
  coordinator accounting and the process peak RSS to
  ``BENCH_mapreduce.json`` (override with ``REPRO_BENCH_MAPREDUCE_JSON``)
  so CI can archive the trajectory.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import MapReduceKCenterOutliers
from repro.datasets import inject_outliers
from repro.evaluation import (
    figure7_scaling_processors,
    figure7_wallclock_scaling,
    format_records,
)
from repro.streaming import ArrayStream

from .conftest import (
    attach_records,
    bench_backend,
    bench_seed,
    scaling_points,
)

K, Z = 10, 60
ELLS = (1, 2, 4, 8, 16)

MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.5"))


def test_figure7_scaling_processors(benchmark, paper_datasets):
    records = figure7_scaling_processors(
        paper_datasets,
        k=K,
        z=Z,
        ells=ELLS,
        union_multiplier=8.0,
        backend=bench_backend(),
        random_state=bench_seed(),
    )

    injected = inject_outliers(paper_datasets["power"], Z, random_state=bench_seed())

    def run_ell16():
        solver = MapReduceKCenterOutliers(
            K, Z, ell=16, coreset_multiplier=8, randomized=True,
            include_log_term=False, random_state=bench_seed(),
            backend=bench_backend(),
        )
        return solver.fit(injected.points)

    benchmark.pedantic(run_ell16, rounds=3, iterations=1)

    attach_records(
        benchmark,
        records,
        printed_columns=[
            "dataset", "ell", "backend", "per_partition_coreset", "union_coreset_size",
            "radius", "coreset_time_parallel_s", "coreset_time_total_s", "solve_time_s",
        ],
    )

    for dataset_name in paper_datasets:
        rows = sorted(
            (r for r in records if r["dataset"] == dataset_name),
            key=lambda r: r["ell"],
        )
        # The parallel coreset time (slowest reducer) at ell=16 is below the ell=1 time.
        assert rows[-1]["coreset_time_parallel_s"] <= rows[0]["coreset_time_parallel_s"] + 1e-6
        # The final solve runs on a union of roughly constant size, so its
        # cost does not explode with ell.
        solve_times = np.array([r["solve_time_s"] for r in rows])
        assert solve_times.max() <= max(10 * solve_times.min(), solve_times.min() + 0.5)


def _mapreduce_trajectory_path() -> str:
    return os.environ.get("REPRO_BENCH_MAPREDUCE_JSON", "BENCH_mapreduce.json")


def _peak_rss_kib() -> int:
    """Process high-water RSS in KiB (monotonic; observational only)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


def test_figure7_streamed_shuffle_memory(paper_datasets):
    """Out-of-core shuffle: memory and disk tiers agree, coordinator O(chunk + coreset)."""
    k, z, ell, chunk_size = K, Z, 8, 256
    points = inject_outliers(
        paper_datasets["power"], Z, random_state=bench_seed()
    ).points
    n = points.shape[0]

    records = []
    for backend in ("serial", "threads", "processes"):
        def solve(storage):
            # mu = 1 keeps the coreset union well below n at smoke scale so
            # the coordinator-memory bound is visible; at paper scale
            # (millions of points) any mu leaves union << n.
            solver = MapReduceKCenterOutliers(
                k, z, ell=ell, coreset_multiplier=1, randomized=True,
                include_log_term=False, random_state=bench_seed(),
                backend=backend, max_workers=2,
            )
            start = time.perf_counter()
            result = solver.fit_stream(
                ArrayStream(points), chunk_size=chunk_size, storage=storage
            )
            return result, time.perf_counter() - start

        in_memory, in_memory_s = solve("memory")
        spilled, spilled_s = solve("disk")

        # The acceptance contract: identical solutions and a bounded
        # coordinator on the in-memory tier and the spill-to-disk tier alike.
        np.testing.assert_array_equal(spilled.center_indices, in_memory.center_indices)
        assert spilled.radius == in_memory.radius
        np.testing.assert_array_equal(spilled.outlier_indices, in_memory.outlier_indices)
        for variant in (in_memory, spilled):
            assert variant.stats.coordinator_peak_items <= max(
                chunk_size, variant.coreset_size
            )
            if max(chunk_size, variant.coreset_size) < n:
                assert variant.stats.coordinator_peak_items < n
        assert in_memory.stats.storage_tier == "memory"
        assert spilled.stats.storage_tier == "disk"
        assert spilled.stats.spilled_bytes > 0

        for result, elapsed in ((in_memory, in_memory_s), (spilled, spilled_s)):
            records.append({
                "backend": backend,
                "storage": result.stats.storage_tier,
                "chunk_size": chunk_size,
                "spilled_bytes": result.stats.spilled_bytes,
                "n_points": n,
                "radius": float(result.radius),
                "points_per_sec": n / elapsed if elapsed > 0 else float("inf"),
                "wall_time_s": elapsed,
                "peak_local_memory": result.stats.peak_local_memory,
                "coordinator_peak_items": result.stats.coordinator_peak_items,
                "peak_working_memory": result.peak_working_memory_size,
                "coordinator_peak_rss_kib": _peak_rss_kib(),
            })

    trajectory = {
        "benchmark": "bench_fig7_streamed_shuffle",
        "k": k,
        "z": z,
        "ell": ell,
        "chunk_size": chunk_size,
        "n_points": n,
        "seed": bench_seed(),
        "records": records,
    }
    with open(_mapreduce_trajectory_path(), "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    print()
    print(format_records(
        records,
        columns=["backend", "storage", "points_per_sec", "spilled_bytes",
                 "coordinator_peak_items", "peak_local_memory", "peak_working_memory",
                 "coordinator_peak_rss_kib"],
    ))


def test_figure7_true_wallclock_scaling():
    backend = bench_backend()
    if backend in (None, "serial"):
        pytest.skip("pass --backend threads|processes to measure true wall-clock scaling")

    records = figure7_wallclock_scaling(
        scaling_points(),
        k=K,
        z=Z,
        workers=(1, 2, 4),
        backend=backend,
        random_state=bench_seed(),
    )
    print()
    print(format_records(
        records,
        columns=["backend", "workers", "ell", "n_points", "radius",
                 "coreset_time_total_s", "wall_time_s", "speedup"],
    ))

    # The solution must not depend on the worker count (shared seed).
    radii = {r["radius"] for r in records}
    assert len(radii) == 1

    speedup_at_4 = next(r["speedup"] for r in records if r["workers"] == 4)
    if (os.cpu_count() or 1) >= 4:
        assert speedup_at_4 > MIN_SPEEDUP, (
            f"expected > {MIN_SPEEDUP}x wall-clock speedup at 4 workers, "
            f"got {speedup_at_4:.2f}x"
        )
