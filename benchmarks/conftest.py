"""Shared configuration for the benchmark harness.

Every benchmark regenerates one figure of the paper's evaluation section
on scaled-down datasets (see ``DESIGN.md`` §3 and ``EXPERIMENTS.md``).
The figures' result tables are printed to stdout (run pytest with ``-s``
to see them) and attached to the pytest-benchmark ``extra_info`` so they
are preserved in ``--benchmark-json`` output.

Reproducibility knobs — every ``bench_*.py`` draws its seed and problem
size from here, so a CI smoke run is fully determined by the command
line:

* ``--seed N`` — master seed (overrides ``REPRO_BENCH_SEED``; default 7);
* ``--bench-points N`` — points per dataset stand-in (overrides
  ``REPRO_BENCH_POINTS``; default 1500);
* ``--backend NAME`` — MapReduce executor backend for the benchmarks
  that support one (default serial);
* ``--scaling-points N`` — instance size for the true wall-clock
  scaling benchmark in ``bench_fig7_scaling_procs.py`` (default 100000).

The options are registered only when pytest is invoked on the
``benchmarks/`` directory (an "initial conftest"); the helpers fall back
to the environment variables otherwise.
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation import default_datasets
from repro.mapreduce import available_backends, available_storage_tiers

_CONFIG = None


def pytest_addoption(parser):
    group = parser.getgroup("repro-bench", "paper-reproduction benchmark knobs")
    group.addoption("--seed", type=int, default=None,
                    help="master seed for all benchmarks (overrides REPRO_BENCH_SEED)")
    group.addoption("--bench-points", type=int, default=None,
                    help="points per dataset stand-in (overrides REPRO_BENCH_POINTS)")
    group.addoption("--backend", choices=available_backends(), default=None,
                    help="MapReduce executor backend for backend-aware benchmarks")
    group.addoption("--storage", choices=available_storage_tiers(), default="auto",
                    help="partition-storage tier for the streamed-shuffle benchmark's "
                         "'streamed' mode (the spill-to-disk column always runs)")
    group.addoption("--scaling-points", type=int, default=100_000,
                    help="instance size for the true wall-clock scaling benchmark")
    group.addoption("--batch-size", type=int, default=1024,
                    help="streaming chunk size (points per process_batch call) "
                         "for the streaming benchmarks")
    group.addoption("--stream-points", type=int, default=100_000,
                    help="stream length for the streaming throughput benchmark")


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config


def _option(name: str, default=None):
    if _CONFIG is None:
        return default
    return _CONFIG.getoption(name, default=default)


def bench_points() -> int:
    """Dataset size used by the benchmark harness."""
    from_option = _option("--bench-points")
    if from_option is not None:
        return int(from_option)
    return int(os.environ.get("REPRO_BENCH_POINTS", "1500"))


def bench_seed() -> int:
    """Master seed used by the benchmark harness."""
    from_option = _option("--seed")
    if from_option is not None:
        return int(from_option)
    return int(os.environ.get("REPRO_BENCH_SEED", "7"))


def bench_backend() -> str | None:
    """Executor backend requested on the command line (``None`` = serial)."""
    return _option("--backend")


def bench_storage() -> str:
    """Partition-storage tier requested on the command line (default ``"auto"``)."""
    return str(_option("--storage", default="auto"))


def scaling_points() -> int:
    """Instance size for the true wall-clock scaling benchmark."""
    return int(_option("--scaling-points", default=100_000))


def bench_batch_size() -> int:
    """Streaming chunk size requested on the command line."""
    return int(_option("--batch-size", default=1024))


def stream_points() -> int:
    """Stream length for the streaming throughput benchmark."""
    return int(_option("--stream-points", default=100_000))


@pytest.fixture(scope="session")
def paper_datasets():
    """Scaled-down Higgs/Power/Wiki stand-ins shared by all benchmarks."""
    return default_datasets(n_points=bench_points(), random_state=bench_seed())


@pytest.fixture(scope="session")
def bench_k_values():
    """Per-dataset k values, scaled down with the dataset size.

    The paper uses k = 50 / 100 / 60 on multi-million-point datasets; on the
    default 1500-point stand-ins we keep the same ordering at a smaller
    scale so clusters stay meaningful.
    """
    return {"higgs": 20, "power": 25, "wiki": 15}


def attach_records(benchmark, records, *, printed_columns=None) -> None:
    """Store experiment records on the benchmark and print them."""
    from repro.evaluation import format_records

    benchmark.extra_info["records"] = [
        {key: (value.item() if hasattr(value, "item") else value)
         for key, value in record.items()
         if not hasattr(value, "__len__") or isinstance(value, str)}
        for record in records
    ]
    table = format_records(records, columns=printed_columns)
    print()
    print(table)
