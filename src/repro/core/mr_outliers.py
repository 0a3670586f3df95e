"""2-round MapReduce algorithms for k-center with z outliers (Section 3.2).

Two variants are provided through a single driver class:

* the **deterministic** algorithm (Theorem 2): arbitrary equal-size
  partitioning, per-partition weighted coresets of base size ``k + z``,
  final solution via OUTLIERSCLUSTER + radius search on the union —
  a ``(3 + eps)``-approximation with local memory
  ``O(sqrt(|S| (k+z)) (24/eps)^D)``;
* the **randomized** algorithm (Section 3.2.1, Corollary 3): uniformly
  random partitioning and per-partition base size ``k + z'`` with
  ``z' = 6 (z/ell + log2 |S|)`` — with high probability the same
  approximation using much smaller coresets when ``z`` is large.

Both variants accept the paper's experimental knob ``coreset_multiplier``
(``mu``) instead of the theoretical ``epsilon`` stopping rule: the
deterministic variant then uses coresets of size ``mu * (k + z)`` and the
randomized one ``mu * (k + 6 z / ell)``, exactly the configurations of
Figure 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import check_non_negative_int
from ..exceptions import InvalidParameterError
from ..mapreduce.backends import ExecutorBackend
from ..mapreduce.runtime import JobStats
# Bound here too: instrumentation (perfbench/tracing.py) wraps these names
# in every driver module.
from ..mapreduce.runtime import shuffle_point_stream  # noqa: F401
from ..metricspace.distance import Metric
from ..metricspace.points import WeightedPoints
from .coreset import build_coreset  # noqa: F401
from .mr_driver import Evaluation, MapReduceDriver, Solution
from .outliers_cluster import OutliersClusterSolver
from .radius_search import search_radius

__all__ = ["MROutliersResult", "MapReduceKCenterOutliers"]


def _outliers_solve(union: WeightedPoints, *, k: int, z: int, eps_hat: float, metric: Metric):
    """Round-2 solver: radius search + OUTLIERSCLUSTER on the coreset union (picklable)."""
    search = search_radius(OutliersClusterSolver(union, k, eps_hat=eps_hat, metric=metric), z)
    return search.solution.center_indices, search


@dataclass(frozen=True)
class MROutliersResult:
    """Result of a MapReduce k-center-with-outliers run.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the returned centers.
    center_indices:
        Indices of the centers in the original dataset.
    radius:
        Radius of the dataset w.r.t. the centers **after discarding the
        z farthest points** (the problem's objective).
    radius_all_points:
        Plain radius including the outliers, for reference.
    outlier_indices:
        Indices of the ``z`` points the solution leaves farthest away.
    estimated_radius:
        The ``r_tilde_min`` found by the radius search on the coreset.
    coreset_size:
        Size of the union of the weighted coresets.
    ell:
        Number of partitions used.
    randomized:
        Whether the randomized variant was used.
    stats:
        MapReduce accounting: three rounds (coresets, solve,
        evaluation), local / aggregate memory, parallel time estimate.
    coreset_time, solve_time:
        Wall-clock seconds in the two phases (coreset construction summed
        over partitions; radius search + OUTLIERSCLUSTER for the solve).
    search_probes:
        Number of OUTLIERSCLUSTER executions performed by the radius search.
    peak_working_memory_size:
        The paper's space metric (stored points): the largest working
        set any single participant held — reducers *and* the
        coordinator, ``O(n/ell + chunk + union coreset)``.
    """

    centers: np.ndarray
    center_indices: np.ndarray
    radius: float
    radius_all_points: float
    outlier_indices: np.ndarray
    estimated_radius: float
    coreset_size: int
    ell: int
    randomized: bool
    stats: JobStats
    coreset_time: float
    solve_time: float
    search_probes: int
    peak_working_memory_size: int = 0

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


class MapReduceKCenterOutliers(MapReduceDriver):
    """Coreset-based 2-round MapReduce solver for k-center with z outliers.

    Parameters
    ----------
    k:
        Number of centers.
    z:
        Number of outliers the objective may discard.
    ell:
        Number of partitions (degree of parallelism).
    epsilon:
        Precision parameter; drives both the theoretical coreset stopping
        rule and ``eps_hat = epsilon / 6`` used by OUTLIERSCLUSTER.
        Mutually exclusive with ``coreset_multiplier``.
    coreset_multiplier:
        The experimental knob ``mu``: per-partition coresets of size
        ``mu * (k + z)`` (deterministic) or ``mu * (k + 6 z / ell)``
        (randomized). ``mu = 1`` with the deterministic variant is the
        baseline of [26].
    randomized:
        Use the randomized partitioning / reduced coreset variant of
        Section 3.2.1.
    eps_hat:
        Explicit override of the OUTLIERSCLUSTER precision parameter.
        Defaults to ``epsilon / 6`` when ``epsilon`` is given, else to
        ``1/6`` (i.e. the value corresponding to ``epsilon = 1``).
    partitioning:
        ``"contiguous"``, ``"round_robin"``, ``"random"`` or
        ``"adversarial"``. The adversarial option requires
        ``adversarial_indices`` (typically the planted outliers) and
        reproduces the stress setup of Figure 4. The randomized variant
        always uses random partitioning regardless of this setting.
    adversarial_indices:
        Indices forced into a single partition under adversarial
        partitioning.
    include_log_term:
        Whether ``z'`` includes the ``log2 |S|`` term of Lemma 7 (the
        paper's experiments drop it; theory keeps it). Only relevant for
        the randomized variant.
    metric, random_state, local_memory_limit, max_workers, backend, workers:
        As in :class:`~repro.core.mr_kcenter.MapReduceKCenter`
        (``workers`` are the distributed backend's daemon addresses).
    """

    partitionings = ("contiguous", "round_robin", "random", "adversarial")
    weighted = True

    def __init__(
        self,
        k: int,
        z: int,
        *,
        ell: int = 4,
        epsilon: float | None = None,
        coreset_multiplier: float | None = None,
        randomized: bool = False,
        eps_hat: float | None = None,
        partitioning: str = "contiguous",
        adversarial_indices=None,
        include_log_term: bool = True,
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
    ) -> None:
        super().__init__(
            k,
            ell=ell,
            epsilon=epsilon,
            coreset_multiplier=coreset_multiplier,
            partitioning=partitioning,
            metric=metric,
            random_state=random_state,
            local_memory_limit=local_memory_limit,
            max_workers=max_workers,
            backend=backend,
            workers=workers,
        )
        self.z = check_non_negative_int(z, name="z")
        self.randomized = bool(randomized)
        if eps_hat is None:
            eps_hat = (epsilon / 6.0) if epsilon is not None else 1.0 / 6.0
        if eps_hat < 0:
            raise InvalidParameterError("eps_hat must be non-negative")
        self.eps_hat = float(eps_hat)
        if partitioning == "adversarial" and adversarial_indices is None:
            raise InvalidParameterError(
                "adversarial partitioning requires adversarial_indices"
            )
        self.adversarial_indices = (
            None
            if adversarial_indices is None
            else np.asarray(adversarial_indices, dtype=np.intp)
        )
        self.include_log_term = bool(include_log_term)

    def _z_prime(self, n: int, ell: int) -> int:
        """The randomized variant's per-partition outlier bound ``z'`` (Lemma 7)."""
        log_term = math.log2(max(n, 2)) if self.include_log_term else 0.0
        return max(1, int(math.ceil(6.0 * (self.z / ell + log_term))))

    def _base_size(self, n: int, ell: int) -> int:
        if self.randomized:
            return self.k + self._z_prime(n, ell)
        return self.k + self.z

    def _routing(self) -> dict:
        # The randomized variant's analysis (Lemma 7) needs random partitioning.
        if self.randomized:
            return {"partitioning": "random"}
        return {
            "partitioning": self.partitioning,
            "adversarial_indices": self.adversarial_indices,
        }

    def _check_size(self, n: int) -> None:
        super()._check_size(n)
        if self.z >= n:
            raise InvalidParameterError(
                f"z={self.z} must be smaller than the dataset size {n}"
            )

    def _solver(self, rng: np.random.Generator):
        return partial(
            _outliers_solve, k=self.k, z=self.z, eps_hat=self.eps_hat, metric=self.metric
        )

    def _result(self, solution: Solution, evaluation: Evaluation, common: dict):
        return MROutliersResult(
            radius=evaluation.radius,
            radius_all_points=evaluation.radius_all_points,
            outlier_indices=evaluation.outlier_indices,
            estimated_radius=solution.search.radius,
            randomized=self.randomized,
            search_probes=solution.search.probes,
            **common,
        )
