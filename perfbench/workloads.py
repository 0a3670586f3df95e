"""The four seeded workloads: set-up, one solve, output checks, layer metrics.

Every workload draws ``higgs_like`` points (d=7) from the seed before any
timing and hands the solver nothing but an ``ArrayStream`` over them.
Load comes from one process and no workload uses more than two workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import checks
from .metrics import dispatch_s, efficiency, median
from .procs import WorkerDaemons, reset_peak_rss

K = 20
ELL = 8
CHUNK = 4096
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration; ``kind`` selects the driver."""

    name: str
    kind: str  # "mr-outliers" | "mr-kcenter" | "stream-outliers"
    n_points: int
    backend: str = "serial"  # "serial" | "processes" | "distributed"
    storage: str = "memory"
    z: int = 0
    warmup_points: int = 50_000
    warmup_z: int = 0
    #: Inputs drawn per run; solves take them in turn. More than one where
    #: the solver's work depends strongly on the data, so a run's median
    #: is not one draw's luck.
    datasets: int = 1

    @property
    def multiprocess(self) -> bool:
        return self.backend != "serial"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mr-outliers-solve", "mr-outliers", 200_000, z=200, warmup_z=20),
        Workload("mr-kcenter-spill", "mr-kcenter", 1_000_000,
                 backend="processes", storage="disk"),
        # Where the merge rule fires decides the coreset size the sweep
        # works against, so one draw can cost twice another; a run takes
        # its median over eight draws.
        Workload("stream-outliers", "stream-outliers", 250_000, z=200, warmup_z=200,
                 datasets=8),
        Workload("mr-kcenter-cluster", "mr-kcenter", 1_000_000,
                 backend="distributed", storage="disk"),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same job on a few thousand points, for the self-test smoke run."""
    return replace(workload, n_points=6_000, z=min(workload.z, 20),
                   warmup_points=3_000, warmup_z=min(workload.warmup_z, 20))


class Setup:
    """Inputs plus the executor the solves run on (pool or daemons)."""

    def __init__(self, workload: Workload, seed: int, src: Path, scratch: Path) -> None:
        from repro.datasets import higgs_like
        from repro.mapreduce.backends import ProcessBackend

        self.workload = workload
        self.seed = seed
        # Input 0 is higgs_like(n, random_state=seed); the others come from
        # (seed, index) so they are as reproducible.
        self.datasets = [
            higgs_like(workload.n_points,
                       random_state=seed if index == 0 else np.random.default_rng([seed, index]))
            for index in range(workload.datasets)
        ]
        reset_peak_rss()
        self.pool = None
        self.daemons = None
        if workload.backend == "processes":
            self.pool = ProcessBackend(max_workers=WORKERS)
        elif workload.backend == "distributed":
            self.daemons = WorkerDaemons(WORKERS, src, scratch)
        try:
            solve(self, self.datasets[0][: workload.warmup_points], z=workload.warmup_z)
        except BaseException:
            self.close()
            raise

    def executor(self) -> dict:
        """Keyword arguments that select this set-up's backend on a driver."""
        if self.pool is not None:
            return {"backend": self.pool}
        if self.daemons is not None:
            return {"backend": "distributed", "workers": self.daemons.addresses}
        return {"backend": "serial"}

    def close(self) -> list[str]:
        """Stop the pool or the daemons; returns lifecycle problems found."""
        problems = []
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.daemons is not None:
            problems = self.daemons.stop()
            stderr = self.daemons.stderr_text()
            if stderr.strip():
                print("# worker daemon stderr:\n" + stderr, flush=True)
            self.daemons = None
        return problems


def solve(setup: Setup, points, *, z: int | None = None, executor: dict | None = None):
    """One solve of the workload's job on ``points``; returns the driver's result."""
    from repro.core.mr_kcenter import MapReduceKCenter
    from repro.core.mr_outliers import MapReduceKCenterOutliers
    from repro.core.stream_outliers import CoresetStreamOutliers
    from repro.streaming.runner import StreamingRunner
    from repro.streaming.stream import ArrayStream

    workload = setup.workload
    z = workload.z if z is None else z
    executor = setup.executor() if executor is None else executor
    if workload.kind == "mr-outliers":
        return MapReduceKCenterOutliers(
            k=K, z=z, ell=ELL, coreset_multiplier=4, randomized=True,
            include_log_term=False, random_state=setup.seed, **executor,
        ).fit_stream(ArrayStream(points), chunk_size=CHUNK, storage=workload.storage)
    if workload.kind == "mr-kcenter":
        return MapReduceKCenter(
            k=K, ell=ELL, coreset_multiplier=4, partitioning="random",
            random_state=setup.seed, **executor,
        ).fit_stream(ArrayStream(points), chunk_size=CHUNK, storage=workload.storage)
    runner = StreamingRunner(batch_size=1024)
    return runner.run(CoresetStreamOutliers(k=K, z=z, coreset_multiplier=8), ArrayStream(points))


def fingerprint(workload: Workload, result) -> tuple:
    """The outputs two runs of one seed must agree on bit for bit."""
    if workload.kind == "mr-outliers":
        return (result.centers, result.center_indices, result.radius,
                result.radius_all_points, result.outlier_indices)
    if workload.kind == "mr-kcenter":
        return (result.centers, result.center_indices, result.radius)
    solution = result.result
    return (solution.centers, solution.estimated_radius, solution.n_processed)


def check(workload: Workload, points, result) -> list[str]:
    """Independent recomputation of the result's radii and outliers."""
    if workload.kind == "mr-outliers":
        return checks.check_outliers(points, result, K, workload.z)
    if workload.kind == "mr-kcenter":
        return checks.check_kcenter(points, result, K)
    return checks.check_stream_outliers(points, result.result, K, workload.z)


def reference(setup: Setup, dataset: int):
    """Serial-backend fingerprint of one input, or ``None`` when the
    workload already runs serially (its solves of that input are then
    compared with one another)."""
    if not setup.workload.multiprocess:
        return None
    result = solve(setup, setup.datasets[dataset], executor={"backend": "serial"})
    return fingerprint(setup.workload, result)


def timed_solve(setup: Setup, dataset: int):
    """``(result, wall seconds)`` for one solve over one whole input."""
    points = setup.datasets[dataset]
    start = time.perf_counter()
    result = solve(setup, points)
    return result, time.perf_counter() - start


# -- per-layer metrics ---------------------------------------------------------------------

#: Name and unit of every per-layer metric, in report order.
PER_LAYER = [("shuffle.s", "s"), ("shuffle.rows_per_s", "rows/s"),
             ("shuffle.spilled_bytes", "bytes")]
for _r in (1, 2, 3):
    PER_LAYER += [(f"round{_r}.s", "s"), (f"round{_r}.reducer_busy_s", "s"),
                  (f"round{_r}.reducer_max_s", "s"), (f"round{_r}.efficiency", "ratio"),
                  (f"round{_r}.dispatch_s", "s")]
PER_LAYER += [
    ("coreset.s", "s"), ("coreset.calls", "count"), ("coreset.union_points", "count"),
    ("solve.s", "s"), ("solve.pairwise_s", "s"), ("solve.candidates_s", "s"),
    ("solve.probes", "count"), ("solve.probe_s", "s"), ("solve.union_m", "count"),
    ("solve.peak_mib", "MiB"),
    ("nearest.s", "s"), ("nearest.calls", "count"), ("nearest.dist_evals", "count"),
    ("pairwise.s", "s"),
    ("stream.s", "s"), ("stream.finalize_s", "s"), ("stream.batches", "count"),
    ("stream.sweep_s", "s"), ("stream.merge_s", "s"), ("stream.merges", "count"),
    ("stream.peak_points", "count"),
    ("wire.bytes_shipped", "bytes"), ("wire.tasks", "count"), ("wire.retries", "count"),
    ("wire.dispatch_s", "s"),
    ("worker_peak_rss_mib", "MiB"),
    ("traced.wall_s", "s"), ("traced.overhead_s", "s"), ("traced.coverage", "ratio"),
]
del _r


def layer_metrics(workload: Workload, result, spans, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced solve (0 for layers it does not use)."""
    values = {name: 0.0 for name, _unit in PER_LAYER}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, where=None):
        return sum(s.duration for s in by_name.get(name, ()) if where is None or where(s))

    names = {span.span_id: span.name for span in spans}

    def under(parent_name):
        return lambda span: names.get(span.parent) == parent_name

    values["shuffle.s"] = total("shuffle")
    if values["shuffle.s"] > 0:
        values["shuffle.rows_per_s"] = workload.n_points / values["shuffle.s"]
    covered = values["shuffle.s"]
    for span in by_name.get("round", ()):
        r, workers = span.attrs["round"], span.attrs["workers"]
        busy = span.attrs["busy_s"]
        values[f"round{r}.s"] = span.duration
        values[f"round{r}.reducer_busy_s"] = busy
        values[f"round{r}.reducer_max_s"] = span.attrs["max_s"]
        values[f"round{r}.efficiency"] = efficiency(span.duration, busy, workers)
        values[f"round{r}.dispatch_s"] = dispatch_s(span.duration, busy, workers)
        if span.attrs["backend"] == "distributed":
            values["wire.dispatch_s"] += values[f"round{r}.dispatch_s"]
        covered += span.duration

    if workload.kind != "stream-outliers":
        stats = result.stats
        values["shuffle.spilled_bytes"] = stats.spilled_bytes
        values["coreset.s"] = result.coreset_time
        values["coreset.calls"] = stats.rounds[0].n_reducers
        values["coreset.union_points"] = result.coreset_size
        values["wire.bytes_shipped"] = stats.bytes_shipped
        values["wire.tasks"] = sum(len(a) for a in stats.worker_assignments)
        values["wire.retries"] = sum(
            len(tried) - 1 for a in stats.worker_assignments for tried in a.values()
        )
    else:
        values["stream.s"] = total("process_batch")
        values["stream.finalize_s"] = total("finalize")
        values["stream.batches"] = len(by_name.get("process_batch", ()))
        values["stream.sweep_s"] = total("nearest", under("process_batch"))
        values["stream.merge_s"] = total("merge")
        values["stream.merges"] = len(by_name.get("merge", ()))
        values["stream.peak_points"] = result.peak_memory
        covered = values["stream.s"] + values["stream.finalize_s"]

    values["solve.s"] = total("solver_init") + total("search_radius")
    values["solve.pairwise_s"] = total("pairwise", under("solver_init"))
    values["solve.candidates_s"] = total("candidates")
    values["solve.probes"] = len(by_name.get("probe", ()))
    values["solve.probe_s"] = total("probe")
    values["solve.union_m"] = max(
        (s.attrs["union_m"] for s in by_name.get("solver_init", ())), default=0
    )
    values["solve.peak_mib"] = max(
        (s.attrs.get("peak_bytes", 0) for s in by_name.get("search_radius", ())), default=0
    ) / 2**20
    values["nearest.s"] = total("nearest")
    values["nearest.calls"] = len(by_name.get("nearest", ()))
    values["nearest.dist_evals"] = sum(s.attrs["evals"] for s in by_name.get("nearest", ()))
    values["pairwise.s"] = total("pairwise")
    values["traced.wall_s"] = wall_s
    values["traced.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return values


def median_layers(per_solve: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced solves."""
    return {name: median(v[name] for v in per_solve) for name, _unit in PER_LAYER}
