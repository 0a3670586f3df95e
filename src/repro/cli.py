"""Command-line interface for the repro package.

Two groups of subcommands are provided:

* ``solve`` — run one of the solvers on a synthetic dataset (or one of
  the paper-dataset stand-ins) and print the solution summary; handy for
  quick experimentation without writing a script.
* ``figure2`` … ``figure8`` and ``ablation-*`` — regenerate one of the
  paper's experiments at a configurable scale and print its result table.
* ``worker`` — run a distributed MapReduce worker daemon that the
  ``mr-*`` solvers can target with ``--backend distributed --workers
  HOST:PORT[,HOST:PORT...]`` (see :mod:`repro.mapreduce.cluster`).

Examples
--------
::

    python -m repro solve mr-outliers --dataset power --n-points 5000 \
        --k 20 --z 100 --ell 8 --mu 4 --randomized
    python -m repro figure2 --n-points 2000
    python -m repro figure8 --sample-size 1500
    python -m repro worker --listen 127.0.0.1:7071  # then, elsewhere:
    python -m repro solve mr-kcenter --backend distributed \
        --workers 127.0.0.1:7071,127.0.0.1:7072
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .core import (
    CoresetStreamKCenter,
    CoresetStreamOutliers,
    MapReduceKCenter,
    MapReduceKCenterOutliers,
    SequentialKCenter,
    SequentialKCenterOutliers,
)
from .datasets import inject_outliers, load_paper_dataset, stream_paper_dataset
from .exceptions import InvalidParameterError
from .mapreduce import available_backends, available_storage_tiers
from .streaming import ArrayStream, GeneratorStream, StreamingRunner
from .evaluation import (
    ablation_coreset_stopping,
    ablation_partitioning,
    default_datasets,
    figure2_mr_kcenter,
    figure3_stream_kcenter,
    figure4_mr_outliers,
    figure5_stream_outliers,
    figure6_scaling_size,
    figure7_scaling_processors,
    figure8_sequential,
    format_records,
)

__all__ = ["main", "build_parser"]


def _add_common_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-points", type=int, default=2000, help="points per dataset stand-in")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def _positive_int(value: str) -> int:
    """argparse type: an integer >= 1."""
    if not value.isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1; got {value!r}")
    return int(value)


def _add_batch_size_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size", type=_positive_int, default=1024,
        help="streaming chunk size: points per process_batch call (1 = one point per call)",
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="executor backend for the MapReduce runtime (default: serial)",
    )
    parser.add_argument(
        "--workers", default=None,
        help="worker count for the threads/processes backends (default: one "
             "per CPU), or the comma-separated HOST:PORT daemon addresses "
             "for --backend distributed (start daemons with 'repro worker')",
    )


def _resolve_execution(args: argparse.Namespace) -> tuple[int | None, list[str] | None]:
    """Split ``--workers`` into a pool size or distributed daemon addresses."""
    spec = getattr(args, "workers", None)
    backend = getattr(args, "backend", None)
    if backend == "distributed":
        if not spec:
            raise InvalidParameterError(
                "--backend distributed requires --workers HOST:PORT[,HOST:PORT...]"
            )
        return None, [part.strip() for part in str(spec).split(",") if part.strip()]
    if spec is None:
        return None, None
    try:
        return int(spec), None
    except ValueError:
        raise InvalidParameterError(
            f"--workers must be an integer count for backend "
            f"{backend or 'serial'}; got {spec!r} (worker addresses "
            f"require --backend distributed)"
        ) from None


def _add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--from-stream", action="store_true",
        help="drive the solver out of core: generate the dataset chunk by chunk "
             "and route it through the streamed shuffle (fit_stream) so the "
             "coordinator never holds the full point matrix",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=4096,
        help="rows per shuffle chunk in --from-stream mode (the coordinator's "
             "transient working set)",
    )
    parser.add_argument(
        "--storage", choices=available_storage_tiers(), default="auto",
        help="partition-storage tier for the streamed shuffle: memory/shared/disk, "
             "or auto (spills to disk when --memory-budget-mb is exceeded)",
    )
    parser.add_argument(
        "--spill-dir", default=None,
        help="directory for disk-tier spill files (default: a run-owned "
             "temporary directory, removed afterwards)",
    )
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="in-memory partition budget (MiB) consulted by --storage auto; "
             "streams whose partitions would exceed it spill to disk",
    )


def _solve(args: argparse.Namespace) -> int:
    if getattr(args, "from_stream", False) and args.command in ("mr-kcenter", "mr-outliers"):
        return _solve_from_stream(args)
    points = load_paper_dataset(args.dataset, args.n_points, random_state=args.seed)
    if args.command in ("mr-outliers", "sequential-outliers", "stream-outliers"):
        injected = inject_outliers(points, args.z, random_state=args.seed + 1)
        points = injected.points

    if args.command in ("stream-kcenter", "stream-outliers"):
        if args.command == "stream-kcenter":
            algorithm = CoresetStreamKCenter(
                args.k, coreset_multiplier=args.mu, random_state=args.seed
            )
            label = "CoresetStreamKCenter"
        else:
            algorithm = CoresetStreamOutliers(args.k, args.z, coreset_multiplier=args.mu)
            label = "CoresetStreamOutliers"
        runner = StreamingRunner(batch_size=args.batch_size)
        report = runner.run(
            algorithm, ArrayStream(points, shuffle=True, random_state=args.seed)
        )
        rows = [{
            "algorithm": label,
            "batch_size": args.batch_size,
            "coreset_size": report.result.coreset_size,
            "peak_memory": report.peak_memory,
            "throughput_pts_per_s": report.throughput,
        }]
        if args.command == "stream-outliers":
            rows[0]["estimated_radius"] = report.result.estimated_radius
        else:
            rows[0]["coreset_radius_bound"] = report.result.coreset_radius_bound
        print(format_records(rows))
        return 0

    max_workers, worker_addresses = _resolve_execution(args)
    if args.command == "mr-kcenter":
        solver = MapReduceKCenter(
            args.k, ell=args.ell, coreset_multiplier=args.mu, random_state=args.seed,
            backend=args.backend, max_workers=max_workers, workers=worker_addresses,
        )
        result = solver.fit(points)
        rows = [{
            "algorithm": "MapReduceKCenter",
            "backend": args.backend or "serial",
            "radius": result.radius,
            "coreset_size": result.coreset_size,
            "peak_local_memory": result.stats.peak_local_memory,
        }]
    elif args.command == "mr-outliers":
        solver = MapReduceKCenterOutliers(
            args.k, args.z, ell=args.ell, coreset_multiplier=args.mu,
            randomized=args.randomized, include_log_term=False, random_state=args.seed,
            backend=args.backend, max_workers=max_workers, workers=worker_addresses,
        )
        result = solver.fit(points)
        rows = [{
            "algorithm": "MapReduceKCenterOutliers" + (" (randomized)" if args.randomized else ""),
            "backend": args.backend or "serial",
            "radius": result.radius,
            "radius_all_points": result.radius_all_points,
            "coreset_size": result.coreset_size,
            "peak_local_memory": result.stats.peak_local_memory,
        }]
    elif args.command == "sequential-kcenter":
        result = SequentialKCenter(args.k, random_state=args.seed).fit(points)
        rows = [{
            "algorithm": "SequentialKCenter (GMM)",
            "radius": result.radius,
            "time_s": result.elapsed_time,
        }]
    else:  # sequential-outliers
        result = SequentialKCenterOutliers(
            args.k, args.z, coreset_multiplier=args.mu, random_state=args.seed
        ).fit(points)
        rows = [{
            "algorithm": "SequentialKCenterOutliers",
            "radius": result.radius,
            "radius_all_points": result.radius_all_points,
            "coreset_size": result.coreset_size,
            "time_s": result.elapsed_time,
        }]

    print(format_records(rows))
    return 0


def _chunks_with_planted_outliers(args):
    """Chunked dataset generation with the paper's outlier planting, out of core.

    Mirrors the in-memory CLI path (which runs ``inject_outliers`` on the
    full matrix) at chunk granularity: the ``z`` planted points are spread
    proportionally over the chunks and each batch is injected relative to
    its own enclosing ball, so no stage ever materialises the full
    dataset. The planted scale tracks each chunk's extent rather than the
    global MEB — the same far-away-outlier regime, chunk by chunk.
    """
    n, z = args.n_points, args.z
    planted = 0
    seen = 0
    chunks = stream_paper_dataset(
        args.dataset, n, chunk_size=args.chunk_size, random_state=args.seed
    )
    for index, chunk in enumerate(chunks):
        seen += chunk.shape[0]
        take = round(z * seen / n) - planted
        if take > 0:
            injected = inject_outliers(chunk, take, random_state=args.seed + 1 + index)
            planted += take
            yield injected.points
        else:
            yield chunk


def _solve_from_stream(args: argparse.Namespace) -> int:
    """Out-of-core solve: chunked dataset generation into the streamed shuffle."""
    if args.command == "mr-outliers":
        # Same problem instance as the in-memory path: z planted outliers
        # ride along with the stream (chunk-wise injection).
        chunks = _chunks_with_planted_outliers(args)
        stream = GeneratorStream(chunks, length_hint=args.n_points + args.z)
    else:
        chunks = stream_paper_dataset(
            args.dataset, args.n_points, chunk_size=args.chunk_size,
            random_state=args.seed,
        )
        stream = GeneratorStream(chunks, length_hint=args.n_points)
    storage_kwargs = dict(
        storage=args.storage,
        spill_dir=args.spill_dir,
        # Converted as-is: a budget that is zero or negative is rejected by
        # the runtime's own validation rather than silently clamped.
        memory_budget_bytes=(
            None if args.memory_budget_mb is None
            else int(args.memory_budget_mb * 1024 * 1024)
        ),
    )
    max_workers, worker_addresses = _resolve_execution(args)
    if args.command == "mr-kcenter":
        solver = MapReduceKCenter(
            args.k, ell=args.ell, coreset_multiplier=args.mu, random_state=args.seed,
            backend=args.backend, max_workers=max_workers, workers=worker_addresses,
        )
        result = solver.fit_stream(stream, chunk_size=args.chunk_size, **storage_kwargs)
        row = {"algorithm": "MapReduceKCenter (streamed)"}
    else:
        solver = MapReduceKCenterOutliers(
            args.k, args.z, ell=args.ell, coreset_multiplier=args.mu,
            randomized=args.randomized, include_log_term=False, random_state=args.seed,
            backend=args.backend, max_workers=max_workers, workers=worker_addresses,
        )
        result = solver.fit_stream(stream, chunk_size=args.chunk_size, **storage_kwargs)
        row = {"algorithm": "MapReduceKCenterOutliers (streamed)"}
    row.update({
        "backend": args.backend or "serial",
        "chunk_size": args.chunk_size,
        "storage": result.stats.storage_tier,
        "spilled_bytes": result.stats.spilled_bytes,
        "radius": result.radius,
        "coreset_size": result.coreset_size,
        "peak_local_memory": result.stats.peak_local_memory,
        "coordinator_peak": result.stats.coordinator_peak_items,
        "peak_working_memory": result.peak_working_memory_size,
    })
    print(format_records([row]))
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    datasets = default_datasets(n_points=args.n_points, random_state=args.seed)
    figure = args.figure
    if figure == "figure2":
        records = figure2_mr_kcenter(datasets, random_state=args.seed)
    elif figure == "figure3":
        records = figure3_stream_kcenter(
            datasets, batch_size=args.batch_size,
            random_state=args.seed,
        )
    elif figure == "figure4":
        records = figure4_mr_outliers(datasets, k=args.k, z=args.z, random_state=args.seed)
    elif figure == "figure5":
        records = figure5_stream_outliers(
            datasets, k=args.k, z=args.z,
            batch_size=args.batch_size,
            random_state=args.seed,
        )
    elif figure == "figure6":
        records = figure6_scaling_size(datasets, k=args.k, z=args.z, random_state=args.seed)
    elif figure == "figure7":
        max_workers, worker_addresses = _resolve_execution(args)
        if worker_addresses is not None:
            raise InvalidParameterError(
                "figure7 sweeps the single-host backends; run the distributed "
                "backend through 'repro solve mr-kcenter --backend distributed'"
            )
        records = figure7_scaling_processors(
            datasets, k=args.k, z=args.z, backend=args.backend,
            max_workers=max_workers, random_state=args.seed,
        )
    elif figure == "figure8":
        records = figure8_sequential(
            datasets, k=args.k, z=args.z, sample_size=args.sample_size, random_state=args.seed
        )
    elif figure == "ablation-coreset":
        records = ablation_coreset_stopping(
            next(iter(datasets.values())), k=args.k, random_state=args.seed
        )
    else:  # ablation-partitioning
        records = ablation_partitioning(
            next(iter(datasets.values())), k=args.k, z=args.z, random_state=args.seed
        )
    print(format_records(records))
    return 0


def _worker(args: argparse.Namespace) -> int:
    """Run a distributed MapReduce worker daemon until interrupted."""
    from .mapreduce.worker import serve

    return serve(args.listen, spill_dir=args.spill_dir)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coreset-based k-center clustering (with outliers) in MapReduce and Streaming",
    )
    subparsers = parser.add_subparsers(dest="group", required=True)

    solve = subparsers.add_parser("solve", help="run one solver on a dataset stand-in")
    solve_sub = solve.add_subparsers(dest="command", required=True)
    for name in (
        "mr-kcenter", "mr-outliers", "sequential-kcenter", "sequential-outliers",
        "stream-kcenter", "stream-outliers",
    ):
        sub = solve_sub.add_parser(name)
        sub.add_argument("--dataset", choices=("higgs", "power", "wiki"), default="higgs")
        sub.add_argument("--k", type=int, default=20)
        sub.add_argument("--z", type=int, default=100)
        sub.add_argument("--ell", type=int, default=8)
        sub.add_argument("--mu", type=float, default=4.0)
        sub.add_argument("--randomized", action="store_true")
        _add_common_dataset_arguments(sub)
        if name.startswith("mr-"):
            _add_backend_arguments(sub)
            _add_stream_arguments(sub)
        if name.startswith("stream-"):
            _add_batch_size_argument(sub)
        sub.set_defaults(handler=_solve)

    worker = subparsers.add_parser(
        "worker",
        help="run a distributed MapReduce worker daemon (for --backend distributed)",
    )
    worker.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port; the bound "
             "address is printed on startup)",
    )
    worker.add_argument(
        "--spill-dir", default=None,
        help="directory for spill files received from coordinators "
             "(default: a worker-owned temporary directory)",
    )
    worker.set_defaults(handler=_worker)

    figure_names = (
        "figure2", "figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
        "ablation-coreset", "ablation-partitioning",
    )
    for name in figure_names:
        sub = subparsers.add_parser(name, help=f"regenerate the paper's {name}")
        sub.add_argument("--k", type=int, default=20)
        sub.add_argument("--z", type=int, default=100)
        sub.add_argument("--sample-size", type=int, default=1500)
        _add_common_dataset_arguments(sub)
        if name == "figure7":
            # The only figure driver with a backend knob so far; the other
            # figures reject the flags rather than silently ignoring them.
            _add_backend_arguments(sub)
        if name in ("figure3", "figure5"):
            _add_batch_size_argument(sub)
        sub.set_defaults(handler=_run_figure, figure=name)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
