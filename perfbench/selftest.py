"""The benchmark's own tests: metric math, output checks, and a tiny smoke run.

Run from the root of a checkout::

    python3 perfbench/selftest.py            # everything (smoke takes ~1 min)
    python3 perfbench/selftest.py MetricMath # one group

The file is not named ``test_*.py`` on purpose: the repository's test
suite collects those, and these tests belong to the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, metrics  # noqa: E402
from perfbench.metrics import Span  # noqa: E402


class MetricMath(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        values = [4.0, 1.0, 3.0, 2.0, 10.0]
        self.assertEqual(metrics.median(values), 3.0)
        # statistics.quantiles(n=4), "exclusive" method: 1.5, 3, 7
        self.assertEqual(metrics.quartiles(values), (1.5, 3.0, 7.0))
        self.assertAlmostEqual(metrics.relative_spread(values), (7.0 - 1.5) / 3.0)

    def test_single_sample_has_no_spread(self):
        self.assertEqual(metrics.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(metrics.relative_spread([2.5]), 0.0)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_efficiency_and_dispatch(self):
        # Two workers, 4 s of reducer work in a 2.5 s round: 80% busy,
        # 0.5 s of the round not explained by the reducers.
        self.assertAlmostEqual(metrics.efficiency(2.5, 4.0, 2), 0.8)
        self.assertAlmostEqual(metrics.dispatch_s(2.5, 4.0, 2), 0.5)
        self.assertAlmostEqual(metrics.dispatch_s(1.0, 1.0, 1), 0.0)
        self.assertEqual(metrics.efficiency(0.0, 1.0, 2), 0.0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span(0, "round", 0.0, 10.0, None, 1),
            Span(1, "solver_init", 1.0, 3.0, 0, 1),
            Span(2, "pairwise", 1.5, 2.5, 1, 1),
            Span(3, "search_radius", 4.0, 9.0, 0, 1),
            Span(4, "probe", 4.0, 5.0, 3, 1),
            Span(5, "probe", 6.0, 8.0, 3, 1),
        ]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(own[1], 2.0 - 1.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 5.0 - 3.0)
        summary = metrics.summarize_spans(spans)
        self.assertEqual(summary["probe"]["calls"], 2)
        self.assertAlmostEqual(summary["probe"]["total_s"], 3.0)
        self.assertAlmostEqual(sum(e["self_s"] for e in summary.values()), 10.0)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.points = rng.normal(size=(500, 3))
        self.indices = np.array([0, 1, 2])
        self.centers = self.points[self.indices]
        dist = np.sqrt(((self.points[:, None, :] - self.centers[None]) ** 2).sum(2)).min(1)
        self.dist = dist

    def test_kcenter_radius(self):
        good = SimpleNamespace(centers=self.centers, center_indices=self.indices,
                               radius=float(self.dist.max()))
        self.assertEqual(checks.check_kcenter(self.points, good, k=3), [])
        bad = SimpleNamespace(**{**vars(good), "radius": good.radius * 1.01})
        self.assertTrue(checks.check_kcenter(self.points, bad, k=3))
        moved = SimpleNamespace(**{**vars(good), "center_indices": np.array([0, 1, 3])})
        self.assertTrue(checks.check_kcenter(self.points, moved, k=3))

    def test_outlier_set_and_radii(self):
        z = 5
        order = np.argsort(self.dist)
        good = SimpleNamespace(
            centers=self.centers, center_indices=self.indices,
            radius=float(self.dist[order[-(z + 1)]]),
            radius_all_points=float(self.dist[order[-1]]),
            outlier_indices=np.sort(order[-z:]),
        )
        self.assertEqual(checks.check_outliers(self.points, good, k=3, z=z), [])
        swapped = np.sort(np.concatenate([order[-z:-1], order[:1]]))
        bad = SimpleNamespace(**{**vars(good), "outlier_indices": swapped})
        self.assertTrue(checks.check_outliers(self.points, bad, k=3, z=z))

    def test_stream_centers_must_be_input_points(self):
        good = SimpleNamespace(centers=self.centers, n_processed=500)
        self.assertEqual(checks.check_stream_outliers(self.points, good, k=3, z=5), [])
        off = SimpleNamespace(centers=self.centers + 1e-9, n_processed=500)
        self.assertTrue(checks.check_stream_outliers(self.points, off, k=3, z=5))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Smoke(unittest.TestCase):
    """Every workload at a few thousand points, with its output checks."""

    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_tiny(self, workload: str, trace: int) -> dict:
        proc = run_benchmark(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_workload_untraced_and_traced(self):
        end_to_end = [m["name"] for m in self.config["end_to_end"]]
        per_layer = [m["name"] for m in self.config["per_layer"]]
        for workload in [w["name"] for w in self.config["workloads"]]:
            with self.subTest(workload=workload):
                untraced = self.run_tiny(workload, 0)
                self.assertEqual(list(untraced["metrics"]), end_to_end)
                self.assertTrue(all(m["value"] > 0 for m in untraced["metrics"].values()))
                traced = self.run_tiny(workload, 1)["metrics"]
                self.assertEqual(list(traced), per_layer)
                self.assertEqual(traced["wire.retries"]["value"], 0)
                # Loose at this size: runtime set-up and teardown are a
                # visible share of a millisecond-scale solve.
                self.assertAlmostEqual(traced["traced.coverage"]["value"], 1.0, delta=0.1)

    def test_refuses_to_run_without_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(Path(bare), "--workload", "stream-outliers", "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
