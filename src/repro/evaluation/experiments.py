"""Experiment drivers that regenerate the paper's figures.

Every public function in this module reproduces one figure of the
evaluation section (Section 5) as a list of result *records* (plain
dictionaries), one per experimental configuration, mirroring the axes of
the corresponding plot. The benchmark harness in ``benchmarks/`` calls
these drivers on scaled-down datasets and prints the records with
:func:`repro.evaluation.reporting.format_records`; ``EXPERIMENTS.md``
documents how the measured shapes compare with the paper.

The drivers accept the datasets and parameters explicitly so users can
re-run them at the paper's original scale; the defaults keep everything
laptop-sized.
"""

from __future__ import annotations

import os
import time
from typing import Mapping, Sequence

import numpy as np

from .._validation import check_random_state
from ..baselines.mccutchen import BaseStreamKCenter, BaseStreamOutliers
from ..baselines.charikar import CharikarKCenterOutliers
from ..core.assignment import radius_with_outliers, clustering_radius
from ..core.mr_kcenter import MapReduceKCenter
from ..core.mr_outliers import MapReduceKCenterOutliers
from ..core.sequential import SequentialKCenterOutliers
from ..core.stream_kcenter import CoresetStreamKCenter
from ..core.stream_outliers import CoresetStreamOutliers
from ..datasets.inflation import inflate
from ..datasets.loaders import higgs_like, power_like, wiki_like
from ..datasets.outliers import inject_outliers
from ..datasets.synthetic import GaussianMixtureSpec, gaussian_mixture
from ..streaming.runner import StreamingRunner
from ..streaming.stream import ArrayStream
from .ratio import approximation_ratios

__all__ = [
    "default_datasets",
    "DEFAULT_K",
    "figure2_mr_kcenter",
    "figure3_stream_kcenter",
    "figure4_mr_outliers",
    "figure5_stream_outliers",
    "figure6_scaling_size",
    "figure7_scaling_processors",
    "figure7_wallclock_scaling",
    "figure8_sequential",
    "ablation_coreset_stopping",
    "ablation_partitioning",
]


DEFAULT_K = {"higgs": 50, "power": 100, "wiki": 60}
"""Per-dataset k values used in the paper's k-center experiments (Figure 2)."""


def default_datasets(
    n_points: int = 2000,
    *,
    names: Sequence[str] = ("higgs", "power", "wiki"),
    random_state=None,
) -> dict[str, np.ndarray]:
    """Scaled-down synthetic stand-ins for the paper's three datasets."""
    rng = check_random_state(random_state)
    generators = {"higgs": higgs_like, "power": power_like, "wiki": wiki_like}
    return {
        name: generators[name](n_points, random_state=rng) for name in names
    }


def _attach_ratios(records: list[dict], *, group_keys: Sequence[str], radius_key: str = "radius") -> None:
    """Add a ``ratio`` field to each record, relative to the best radius of its group."""
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        key = tuple(record[k] for k in group_keys)
        groups.setdefault(key, []).append(record)
    for members in groups.values():
        ratios = approximation_ratios(
            {id(member): member[radius_key] for member in members}
        )
        for member in members:
            member["ratio"] = ratios[id(member)]


# --------------------------------------------------------------------------------------
# Figure 2 — MapReduce k-center: approximation ratio vs coreset size and parallelism
# --------------------------------------------------------------------------------------


def figure2_mr_kcenter(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k_values: Mapping[str, int] | None = None,
    multipliers: Sequence[float] = (1, 2, 4, 8),
    ells: Sequence[int] = (2, 4, 8, 16),
    random_state=None,
) -> list[dict]:
    """Approximation ratio of the MapReduce k-center algorithm (Figure 2).

    ``mu = 1`` corresponds to the baseline of Malkomes et al. [26]; larger
    coreset multipliers should yield monotonically better ratios, and
    larger parallelism also helps because the union coreset grows.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(random_state=rng)
    if k_values is None:
        k_values = DEFAULT_K

    records: list[dict] = []
    for name, points in datasets.items():
        k = int(k_values.get(name, 50))
        for ell in ells:
            for mu in multipliers:
                solver = MapReduceKCenter(
                    k,
                    ell=int(ell),
                    coreset_multiplier=float(mu),
                    random_state=int(rng.integers(2**31 - 1)),
                )
                start = time.perf_counter()
                result = solver.fit(points)
                elapsed = time.perf_counter() - start
                records.append(
                    {
                        "figure": "2",
                        "dataset": name,
                        "k": k,
                        "ell": int(ell),
                        "mu": float(mu),
                        "radius": result.radius,
                        "coreset_size": result.coreset_size,
                        "local_memory": result.stats.peak_local_memory,
                        "time_s": elapsed,
                    }
                )
    _attach_ratios(records, group_keys=("dataset", "ell"))
    return records


# --------------------------------------------------------------------------------------
# Figure 3 — Streaming k-center: ratio and throughput vs space
# --------------------------------------------------------------------------------------


def figure3_stream_kcenter(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k_values: Mapping[str, int] | None = None,
    multipliers: Sequence[int] = (1, 2, 4, 8, 16),
    base_instances: Sequence[int] = (1, 2, 4, 8, 16),
    batch_size: int = 1024,
    random_state=None,
) -> list[dict]:
    """CORESETSTREAM vs BASESTREAM: quality and throughput vs space (Figure 3).

    ``batch_size`` is the streaming chunk size; the reported solutions do
    not depend on it, only the throughput column changes.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(random_state=rng)
    if k_values is None:
        k_values = DEFAULT_K

    records: list[dict] = []
    for name, points in datasets.items():
        k = int(k_values.get(name, 50))
        shuffled = ArrayStream(points, shuffle=True, random_state=int(rng.integers(2**31 - 1)))
        order = None  # ArrayStream shuffles internally and replays the same order.

        for mu in multipliers:
            algorithm = CoresetStreamKCenter(k, coreset_multiplier=float(mu))
            report = StreamingRunner(batch_size=batch_size).run(
                algorithm, ArrayStream(points, shuffle=True, random_state=0)
            )
            radius = clustering_radius(points, report.result.centers)
            records.append(
                {
                    "figure": "3",
                    "dataset": name,
                    "algorithm": "CoresetStream",
                    "space_param": int(mu),
                    "space": report.peak_memory,
                    "radius": radius,
                    "throughput": report.throughput,
                }
            )
        for m in base_instances:
            algorithm = BaseStreamKCenter(k, n_instances=int(m))
            report = StreamingRunner(batch_size=batch_size).run(
                algorithm, ArrayStream(points, shuffle=True, random_state=0)
            )
            radius = clustering_radius(points, report.result.centers)
            records.append(
                {
                    "figure": "3",
                    "dataset": name,
                    "algorithm": "BaseStream",
                    "space_param": int(m),
                    "space": report.peak_memory,
                    "radius": radius,
                    "throughput": report.throughput,
                }
            )
        del shuffled, order
    _attach_ratios(records, group_keys=("dataset",))
    return records


# --------------------------------------------------------------------------------------
# Figure 4 — MapReduce k-center with outliers: deterministic vs randomized
# --------------------------------------------------------------------------------------


def figure4_mr_outliers(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k: int = 20,
    z: int = 200,
    ell: int = 16,
    multipliers: Sequence[float] = (1, 2, 4, 8),
    random_state=None,
) -> list[dict]:
    """Deterministic vs randomized MapReduce with outliers (Figure 4).

    Outliers are injected with the paper's MEB procedure and — for the
    deterministic variant — adversarially packed into a single partition.
    The randomized variant uses coresets of size ``mu * (k + 6 z / ell)``.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(random_state=rng)

    records: list[dict] = []
    for name, points in datasets.items():
        injection = inject_outliers(
            points, z, random_state=int(rng.integers(2**31 - 1))
        )
        augmented = injection.points
        for variant in ("deterministic", "randomized"):
            for mu in multipliers:
                solver = MapReduceKCenterOutliers(
                    k,
                    z,
                    ell=ell,
                    coreset_multiplier=float(mu),
                    randomized=(variant == "randomized"),
                    include_log_term=False,
                    partitioning="adversarial" if variant == "deterministic" else "random",
                    adversarial_indices=(
                        injection.outlier_indices if variant == "deterministic" else None
                    ),
                    random_state=int(rng.integers(2**31 - 1)),
                )
                start = time.perf_counter()
                result = solver.fit(augmented)
                elapsed = time.perf_counter() - start
                records.append(
                    {
                        "figure": "4",
                        "dataset": name,
                        "variant": variant,
                        "k": k,
                        "z": z,
                        "mu": float(mu),
                        "radius": result.radius,
                        "coreset_size": result.coreset_size,
                        "time_s": elapsed,
                        "coreset_time_s": result.coreset_time,
                        "solve_time_s": result.solve_time,
                    }
                )
    _attach_ratios(records, group_keys=("dataset",))
    return records


# --------------------------------------------------------------------------------------
# Figure 5 — Streaming k-center with outliers: ratio and throughput vs space
# --------------------------------------------------------------------------------------


def figure5_stream_outliers(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k: int = 20,
    z: int = 200,
    multipliers: Sequence[int] = (1, 2, 4, 8, 16),
    base_instances: Sequence[int] = (1, 2),
    base_buffer_capacity: int | None = None,
    batch_size: int = 1024,
    random_state=None,
) -> list[dict]:
    """CORESETOUTLIERS vs BASEOUTLIERS: quality and throughput vs space (Figure 5).

    ``base_buffer_capacity`` overrides the per-instance buffer of the
    baseline (its default ``k * z`` may exceed scaled-down dataset sizes,
    which would let the baseline simply store everything).
    ``batch_size`` is the streaming chunk size; solutions do not depend
    on it.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(random_state=rng)

    records: list[dict] = []
    for name, points in datasets.items():
        injection = inject_outliers(points, z, random_state=int(rng.integers(2**31 - 1)))
        augmented = injection.points

        for mu in multipliers:
            algorithm = CoresetStreamOutliers(k, z, coreset_multiplier=float(mu))
            report = StreamingRunner(batch_size=batch_size).run(
                algorithm, ArrayStream(augmented, shuffle=True, random_state=0)
            )
            radius = radius_with_outliers(augmented, report.result.centers, z)
            records.append(
                {
                    "figure": "5",
                    "dataset": name,
                    "algorithm": "CoresetOutliers",
                    "space_param": int(mu),
                    "space": report.peak_memory,
                    "radius": radius,
                    "throughput": report.throughput,
                }
            )
        for m in base_instances:
            algorithm = BaseStreamOutliers(
                k, z, n_instances=int(m), buffer_capacity=base_buffer_capacity
            )
            report = StreamingRunner(batch_size=batch_size).run(
                algorithm, ArrayStream(augmented, shuffle=True, random_state=0)
            )
            centers = report.result.centers
            radius = (
                radius_with_outliers(augmented, centers, z)
                if centers.size
                else float("inf")
            )
            records.append(
                {
                    "figure": "5",
                    "dataset": name,
                    "algorithm": "BaseOutliers",
                    "space_param": int(m),
                    "space": report.peak_memory,
                    "radius": radius,
                    "throughput": report.throughput,
                }
            )
    _attach_ratios(records, group_keys=("dataset",))
    return records


# --------------------------------------------------------------------------------------
# Figure 6 — Scalability with respect to input size
# --------------------------------------------------------------------------------------


def figure6_scaling_size(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k: int = 20,
    z: int = 200,
    ell: int = 16,
    mu: float = 8.0,
    size_factors: Sequence[float] = (1, 2, 4, 8),
    random_state=None,
) -> list[dict]:
    """Running time of the randomized MapReduce outlier algorithm vs input size (Figure 6).

    The paper inflates the datasets by factors 25/50/100; the defaults here
    use smaller factors so the simulation stays fast, but the construction
    is identical (SMOTE-like perturbation plus re-injected outliers).
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(n_points=1000, random_state=rng)

    records: list[dict] = []
    for name, points in datasets.items():
        for factor in size_factors:
            inflated = inflate(points, float(factor), random_state=int(rng.integers(2**31 - 1)))
            injection = inject_outliers(
                inflated, z, random_state=int(rng.integers(2**31 - 1))
            )
            solver = MapReduceKCenterOutliers(
                k,
                z,
                ell=ell,
                coreset_multiplier=mu,
                randomized=True,
                include_log_term=False,
                random_state=int(rng.integers(2**31 - 1)),
            )
            start = time.perf_counter()
            result = solver.fit(injection.points)
            elapsed = time.perf_counter() - start
            records.append(
                {
                    "figure": "6",
                    "dataset": name,
                    "size_factor": float(factor),
                    "n_points": injection.points.shape[0],
                    "radius": result.radius,
                    "time_s": elapsed,
                    # The coreset phase is the part whose work grows linearly
                    # with the input; the final solve has constant cost in the
                    # randomized variant (fixed union-coreset size).
                    "coreset_time_s": result.coreset_time,
                    "solve_time_s": result.solve_time,
                    "points_per_s": injection.points.shape[0] / elapsed if elapsed > 0 else float("inf"),
                }
            )
    return records


# --------------------------------------------------------------------------------------
# Figure 7 — Scalability with respect to the number of processors
# --------------------------------------------------------------------------------------


def figure7_scaling_processors(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k: int = 20,
    z: int = 200,
    ells: Sequence[int] = (1, 2, 4, 8, 16),
    union_multiplier: float = 8.0,
    backend: str | None = None,
    max_workers: int | None = None,
    random_state=None,
) -> list[dict]:
    """Coreset time vs solve time for varying parallelism (Figure 7).

    As in the paper, the size of the *union* of the coresets is held fixed
    at ``union_multiplier * (16 k + 6 z)`` so that every parallelism level
    targets the same solution quality; each partition then contributes a
    coreset of that size divided by ``ell``.

    With the default (serial) backend the parallel time of the coreset
    phase is *estimated* as the slowest reducer of round 1. Passing
    ``backend="threads"`` or ``"processes"`` executes the reducers on a
    real worker pool (``max_workers`` per run, default ``min(ell, cpus)``)
    so the reported ``wall_time_s`` is genuine multi-worker wall-clock.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(random_state=rng)

    union_size = union_multiplier * (16 * k + 6 * z)
    records: list[dict] = []
    for name, points in datasets.items():
        injection = inject_outliers(points, z, random_state=int(rng.integers(2**31 - 1)))
        augmented = injection.points
        for ell in ells:
            per_partition = max(k + 1, int(round(union_size / ell)))
            base = k + max(1, int(np.ceil(6.0 * z / ell)))
            mu = max(1.0, per_partition / base)
            workers = max_workers
            if workers is None and backend is not None and backend != "serial":
                workers = max(1, min(int(ell), os.cpu_count() or 1))
            solver = MapReduceKCenterOutliers(
                k,
                z,
                ell=int(ell),
                coreset_multiplier=mu,
                randomized=True,
                include_log_term=False,
                random_state=int(rng.integers(2**31 - 1)),
                backend=backend,
                max_workers=workers,
            )
            start = time.perf_counter()
            result = solver.fit(augmented)
            wall_time = time.perf_counter() - start
            round1 = result.stats.rounds[0]
            records.append(
                {
                    "figure": "7",
                    "dataset": name,
                    "ell": int(ell),
                    "backend": backend or "serial",
                    "workers": int(workers or 1),
                    "per_partition_coreset": per_partition,
                    "union_coreset_size": result.coreset_size,
                    "radius": result.radius,
                    "coreset_time_parallel_s": round1.parallel_time,
                    "coreset_time_total_s": round1.sequential_time,
                    "solve_time_s": result.solve_time,
                    "wall_time_s": wall_time,
                    "peak_local_memory": result.stats.peak_local_memory,
                    "coordinator_peak_items": result.stats.coordinator_peak_items,
                    "peak_working_memory": result.peak_working_memory_size,
                }
            )
    return records


def figure7_wallclock_scaling(
    n_points: int = 100_000,
    *,
    k: int = 10,
    z: int = 60,
    dimension: int = 4,
    workers: Sequence[int] = (1, 2, 4),
    backend: str = "processes",
    coreset_multiplier: float = 4.0,
    random_state=None,
) -> list[dict]:
    """True wall-clock scaling of the coreset phase over real worker pools.

    Complements :func:`figure7_scaling_processors`: instead of varying
    ``ell`` under a simulated runtime, this fixes the problem (a synthetic
    ``n_points``-point instance, ``ell`` = max(workers)) and varies the
    number of *actual* workers executing the round-1 reducers on the
    chosen backend. Each record carries the end-to-end ``wall_time_s``
    and the ``speedup`` relative to the smallest worker count in
    ``workers`` (normally 1), which is the quantity the paper's Figure 7
    measures on a Spark cluster.

    All runs share one seed, so the solutions are identical across worker
    counts; only the wall-clock may differ.
    """
    rng = check_random_state(random_state)
    seed = int(rng.integers(2**31 - 1))
    spec = GaussianMixtureSpec(
        n_clusters=max(2, k), dimension=dimension, cluster_std=1.0, box_size=100.0
    )
    points = gaussian_mixture(n_points, spec, random_state=seed)
    injection = inject_outliers(points, z, random_state=seed + 1)
    augmented = injection.points
    ell = max(int(w) for w in workers)

    runs = []
    for n_workers in workers:
        solver = MapReduceKCenterOutliers(
            k,
            z,
            ell=ell,
            coreset_multiplier=coreset_multiplier,
            randomized=True,
            include_log_term=False,
            random_state=seed,
            backend=backend,
            max_workers=int(n_workers),
        )
        start = time.perf_counter()
        result = solver.fit(augmented)
        runs.append((int(n_workers), result, time.perf_counter() - start))

    baseline = min(runs, key=lambda run: run[0])[2]
    return [
        {
            "figure": "7-wallclock",
            "backend": backend,
            "workers": n_workers,
            "ell": ell,
            "n_points": augmented.shape[0],
            "radius": result.radius,
            "coreset_time_total_s": result.coreset_time,
            "wall_time_s": wall_time,
            "speedup": baseline / wall_time if wall_time > 0 else float("inf"),
        }
        for n_workers, result, wall_time in runs
    ]


# --------------------------------------------------------------------------------------
# Figure 8 — Sequential algorithms: running time and radius
# --------------------------------------------------------------------------------------


def figure8_sequential(
    datasets: Mapping[str, np.ndarray] | None = None,
    *,
    k: int = 20,
    z: int = 200,
    multipliers: Sequence[float] = (2, 4, 8),
    sample_size: int = 2000,
    random_state=None,
) -> list[dict]:
    """Sequential comparison: CHARIKARETAL vs MALKOMESETAL vs ours (Figure 8).

    The paper samples 10 000 points per dataset to keep Charikar et al.'s
    quadratic algorithm feasible; the default here samples 2 000 for the
    same reason at simulation speed. ``mu = 1`` is the MALKOMESETAL row.
    """
    rng = check_random_state(random_state)
    if datasets is None:
        datasets = default_datasets(n_points=sample_size, random_state=rng)

    records: list[dict] = []
    for name, points in datasets.items():
        sample = points
        if sample.shape[0] > sample_size:
            sample = sample[rng.choice(sample.shape[0], size=sample_size, replace=False)]
        injection = inject_outliers(sample, z, random_state=int(rng.integers(2**31 - 1)))
        augmented = injection.points

        charikar = CharikarKCenterOutliers(k, z, max_points=augmented.shape[0])
        charikar_result = charikar.fit(augmented)
        records.append(
            {
                "figure": "8",
                "dataset": name,
                "algorithm": "CharikarEtAl",
                "mu": None,
                "radius": charikar_result.radius,
                "time_s": charikar_result.elapsed_time,
            }
        )

        for mu in (1, *multipliers):
            solver = SequentialKCenterOutliers(
                k, z, coreset_multiplier=float(mu), random_state=int(rng.integers(2**31 - 1))
            )
            result = solver.fit(augmented)
            label = "MalkomesEtAl" if mu == 1 else f"Ours(mu={int(mu)})"
            records.append(
                {
                    "figure": "8",
                    "dataset": name,
                    "algorithm": label,
                    "mu": float(mu),
                    "radius": result.radius,
                    "time_s": result.elapsed_time,
                }
            )
    _attach_ratios(records, group_keys=("dataset",))
    return records


# --------------------------------------------------------------------------------------
# Ablations (design-choice studies beyond the paper's figures)
# --------------------------------------------------------------------------------------


def ablation_coreset_stopping(
    points: np.ndarray | None = None,
    *,
    k: int = 20,
    epsilons: Sequence[float] = (1.0, 0.5, 0.25),
    multipliers: Sequence[float] = (1, 2, 4, 8),
    ell: int = 8,
    random_state=None,
) -> list[dict]:
    """Epsilon-driven vs size-driven coreset stopping for MapReduce k-center.

    The theoretical rule adapts the coreset size to the dataset's doubling
    dimension; the size rule fixes it a priori. This ablation reports the
    coreset sizes and radii both rules produce on the same input.
    """
    rng = check_random_state(random_state)
    if points is None:
        points = higgs_like(2000, random_state=rng)

    records: list[dict] = []
    for epsilon in epsilons:
        solver = MapReduceKCenter(
            k, ell=ell, epsilon=float(epsilon), random_state=int(rng.integers(2**31 - 1))
        )
        result = solver.fit(points)
        records.append(
            {
                "rule": "epsilon",
                "parameter": float(epsilon),
                "coreset_size": result.coreset_size,
                "radius": result.radius,
            }
        )
    for mu in multipliers:
        solver = MapReduceKCenter(
            k, ell=ell, coreset_multiplier=float(mu), random_state=int(rng.integers(2**31 - 1))
        )
        result = solver.fit(points)
        records.append(
            {
                "rule": "mu",
                "parameter": float(mu),
                "coreset_size": result.coreset_size,
                "radius": result.radius,
            }
        )
    _attach_ratios(records, group_keys=())
    return records


def ablation_partitioning(
    points: np.ndarray | None = None,
    *,
    k: int = 20,
    z: int = 100,
    ell: int = 8,
    mu: float = 4.0,
    random_state=None,
) -> list[dict]:
    """Effect of the partitioning strategy on the outlier algorithm.

    Compares contiguous, random, and adversarial (all planted outliers in
    one partition) placements for the deterministic algorithm, plus the
    randomized variant, at a fixed coreset multiplier.
    """
    rng = check_random_state(random_state)
    if points is None:
        points = power_like(2000, random_state=rng)
    injection = inject_outliers(points, z, random_state=int(rng.integers(2**31 - 1)))
    augmented = injection.points

    configurations = [
        ("contiguous", False),
        ("random", False),
        ("adversarial", False),
        ("random", True),
    ]
    records: list[dict] = []
    for partitioning, randomized in configurations:
        solver = MapReduceKCenterOutliers(
            k,
            z,
            ell=ell,
            coreset_multiplier=mu,
            randomized=randomized,
            include_log_term=False,
            partitioning=partitioning,
            adversarial_indices=(
                injection.outlier_indices if partitioning == "adversarial" else None
            ),
            random_state=int(rng.integers(2**31 - 1)),
        )
        result = solver.fit(augmented)
        label = "randomized" if randomized else f"deterministic/{partitioning}"
        records.append(
            {
                "configuration": label,
                "coreset_size": result.coreset_size,
                "radius": result.radius,
            }
        )
    _attach_ratios(records, group_keys=())
    return records
