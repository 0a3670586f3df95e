"""Run every workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/runs/set-a.json

Each run is a separate ``perfbench/run.py`` process, one after another.
For every workload and end-to-end metric the output holds the values of
all runs, their median and their inter-quartile spread as a share of the
median; the bounds in ``BENCHMARK.json`` are chosen from these files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import median, relative_spread  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in spec:
        low, high = spec.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"seed": seed, "returncode": proc.returncode, "elapsed_s": time.perf_counter() - start,
            "env": env, "result": result, "notes": [l for l in lines if l.startswith("# ")
                                                    and not l.startswith("# env ")]}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds)
                for seed in parse_seeds(args.seeds)]
        done = [r["result"] for r in runs if r["result"] is not None]
        summary = {}
        for name in (done[0]["metrics"] if done else {}):
            values = [r["metrics"][name]["value"] for r in done]
            summary[name] = {"median": median(values), "spread": relative_spread(values),
                             "bound": bounds.get(name), "values": values}
        report["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "all_correct": len(done) == len(runs) and all(
                r["correct"] and r["failed"] == 0 for r in done),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
        }
        print(f"{workload}: correct={report['workloads'][workload]['all_correct']} "
              f"max_elapsed_s={report['workloads'][workload]['max_elapsed_s']:.1f}")
        for name, entry in summary.items():
            print(f"  {name:14s} median={entry['median']:.4f} spread={entry['spread']:.4f}"
                  f" bound={entry['bound']}")
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
