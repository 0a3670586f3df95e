"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mr-outliers-solve --seed 7 --seconds 15 --trace 0

``--trace 0`` times untraced solves and reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced solves and reports the
per-layer metrics, writing the spans to ``.perfbench_out/``. See
``perfbench/README.md`` for the workloads, the metrics and the findings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import procs, tracing, workloads  # noqa: E402
from perfbench.checks import same_arrays  # noqa: E402
from perfbench.metrics import median, self_times, summarize_spans  # noqa: E402

END_TO_END = [("wall_s", "s"), ("points_per_s", "points/s"), ("cpu_s", "s"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s")]
#: Complete set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the job on a few thousand points (self-test smoke)")
    return parser.parse_args(argv)


class Run:
    """State of one invocation: set-ups, solves, checks, and the result line."""

    def __init__(self, args, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        workload = workloads.WORKLOADS[args.workload]
        self.workload = workloads.tiny(workload) if args.tiny else workload
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        #: ``(input index, fingerprint or None)`` per solve, in order.
        self.fingerprints: list[tuple[int, tuple | None]] = []
        #: The first result of each input, for the independent check.
        self.first_results: dict[int, object] = {}
        self.tracer: tracing.Tracer | None = None

    def set_up(self):
        """Set up :data:`SETUPS` times, keeping the last; returns it and the durations."""
        durations = []
        setup = None
        for index in range(SETUPS):
            if setup is not None:
                self.problems += setup.close()
            start = time.perf_counter()
            setup = workloads.Setup(self.workload, self.args.seed, SRC,
                                    self.scratch / f"setup-{index}")
            durations.append(time.perf_counter() - start)
        return setup, durations

    def one_solve(self, setup, tracer=None) -> None:
        dataset = self.attempted % self.workload.datasets
        self.attempted += 1
        cpu_before = procs.tree_cpu_s()
        if tracer is not None:
            tracer.solve = self.attempted
            tracer.enabled = True
        try:
            result, wall = workloads.timed_solve(setup, dataset)
        except Exception:
            # A solve that raises is a failed solve; the run goes on.
            traceback.print_exc()
            self.failed += 1
            self.fingerprints.append((dataset, None))
            return
        finally:
            if tracer is not None:
                tracer.enabled = False
        cpu = procs.tree_cpu_s() - cpu_before
        self.fingerprints.append((dataset, workloads.fingerprint(self.workload, result)))
        if tracer is None:
            self.walls.append(wall)
            self.cpus.append(cpu)
        else:
            self.traced_walls.append(wall)
            self.layers.append(workloads.layer_metrics(
                self.workload, result, tracer.spans_of(self.attempted), wall))
        self.first_results.setdefault(dataset, result)

    def measure(self, setup) -> None:
        """Solve until ``--seconds`` have passed (at least once)."""
        procs.reset_peak_rss()
        start = time.perf_counter()

        def more() -> bool:
            if not self.attempted:
                return True
            if self.args.trace and not (self.walls and self.traced_walls):
                # A traced run needs one solve of each kind for the overhead.
                return self.attempted < 4
            return time.perf_counter() - start < self.args.seconds

        if not self.args.trace:
            while more():
                self.one_solve(setup)
            return
        self.tracer = tracing.Tracer()
        with tracing.instrument(self.tracer):
            while more():
                traced = self.attempted % 2 == 0
                self.one_solve(setup, self.tracer if traced else None)

    def verify(self, setup) -> None:
        """Count every solve whose output is wrong as failed (untimed).

        The first result of each input gets the independent
        recomputation; every solve of that input must then match it bit
        for bit, or match the serial-backend reference when the workload
        runs on other processes.
        """
        for dataset, first in self.first_results.items():
            prints = [fp for d, fp in self.fingerprints if d == dataset and fp is not None]
            found = workloads.check(self.workload, setup.datasets[dataset], first)
            if found:
                self.problems += [f"output check on input {dataset}: {p}" for p in found]
                self.failed += len(prints)
                continue
            expected, against = workloads.reference(setup, dataset), "the serial reference"
            if expected is None:
                expected, against = prints[0], "the first solve of the same input"
            mismatched = sum(not same_arrays(fp, expected) for fp in prints)
            if mismatched:
                self.failed += mismatched
                self.problems.append(
                    f"{mismatched} solve(s) of input {dataset} differ from {against}")

    def result_line(self, setup_durations, peak_rss, worker_rss) -> dict:
        if self.args.trace:
            values = workloads.median_layers(self.layers) if self.layers else {
                name: 0.0 for name, _ in workloads.PER_LAYER}
            values["worker_peak_rss_mib"] = worker_rss
            if self.walls and self.traced_walls:
                values["traced.overhead_s"] = median(self.traced_walls) - median(self.walls)
            units = workloads.PER_LAYER
        else:
            walls = self.walls or [0.0]
            values = {
                "wall_s": median(walls),
                "points_per_s": median(self.workload.n_points / w for w in self.walls)
                if self.walls else 0.0,
                "cpu_s": median(self.cpus or [0.0]),
                "peak_rss_mib": peak_rss,
                "setup_s": median(setup_durations),
            }
            units = END_TO_END
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units},
        }


def write_trace(run: Run, env: dict) -> Path:
    """Dump the spans of a traced run, one JSON object per line."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{run.workload.name}-seed{run.args.seed}.jsonl"
    spans = run.tracer.spans
    own = self_times(spans)
    with open(path, "w") as handle:
        handle.write(json.dumps({"env": env, "workload": run.workload.name,
                                 "seed": run.args.seed}) + "\n")
        for span in spans:
            handle.write(json.dumps({
                "id": span.span_id, "name": span.name, "parent": span.parent,
                "solve": span.solve, "start": span.start, "end": span.end,
                "self_s": own[span.span_id], **span.attrs,
            }) + "\n")
        handle.write(json.dumps({"summary": summarize_spans(spans)}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Spill files, daemon directories and pool scratch stay inside the checkout.
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        env = procs.environment(ROOT)
        print("# env " + json.dumps(env), flush=True)
        run = Run(args, scratch)
        setup, durations = run.set_up()
        try:
            run.measure(setup)
            peak_rss = procs.peak_rss_mib()
        finally:
            run.problems += setup.close()
        worker_rss = (procs.peak_rss_mib(resource.RUSAGE_CHILDREN)
                      if run.workload.multiprocess else 0.0)
        run.verify(setup)
        if args.trace:
            print(f"# trace written to {write_trace(run, env).relative_to(ROOT)}")
            for name, entry in summarize_spans(run.tracer.spans).items():
                print(f"# span {name:14s} calls={entry['calls']:<6d} "
                      f"total_s={entry['total_s']:.4f} self_s={entry['self_s']:.4f}")
        for problem in run.problems:
            print(f"# problem: {problem}", flush=True)
        line = run.result_line(durations, peak_rss, worker_rss)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    walls = run.traced_walls if args.trace else run.walls
    print(f"# {run.workload.name} seed={args.seed} solves={run.attempted} "
          f"walls={[round(w, 3) for w in walls]} setups={[round(d, 3) for d in durations]}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
