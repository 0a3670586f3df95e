"""2-round MapReduce algorithm for k-center (Section 3.1, Theorem 1).

Round 1 partitions the input into ``ell`` subsets and, in parallel, runs
the incremental GMM traversal on each subset until the coreset stopping
rule is met (either the theoretical ``epsilon`` rule or the experimental
``tau = mu * k`` rule). Round 2 gathers the union of the per-partition
coresets into one reducer and runs GMM on the union to produce the final
``k`` centers. The result is a ``(2 + eps)``-approximation with local
memory ``O(|S|/ell + ell * k * (4/eps)^D)``. A third round computes the
radius, partition by partition (see :mod:`repro.core.mr_driver`).

Setting ``coreset_multiplier = 1`` recovers the algorithm of Malkomes et
al. [26] (the paper's baseline in Figure 2), which is also exposed
directly as :class:`repro.baselines.malkomes.MalkomesKCenter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..mapreduce.runtime import JobStats
# Bound here too: instrumentation (perfbench/tracing.py) wraps these names
# in every driver module.
from ..mapreduce.runtime import shuffle_point_stream  # noqa: F401
from ..metricspace.distance import Metric
from ..metricspace.points import WeightedPoints
from .coreset import build_coreset  # noqa: F401
from .gmm import gmm_select
from .mr_driver import Evaluation, MapReduceDriver, Solution

__all__ = ["MRKCenterResult", "MapReduceKCenter"]


def _gmm_solve(union: WeightedPoints, *, k: int, metric: Metric, seed: int):
    """Round-2 solver: GMM on the coreset union (picklable)."""
    solution = gmm_select(union.points, k, metric, first_center=None, random_state=seed)
    return solution.centers, None


@dataclass(frozen=True)
class MRKCenterResult:
    """Result of a MapReduce k-center run.

    Attributes
    ----------
    centers:
        ``(k, d)`` coordinates of the returned centers.
    center_indices:
        Indices of the centers in the original dataset.
    radius:
        Radius of the dataset with respect to the returned centers.
    coreset_size:
        Size of the union of the per-partition coresets handled by the
        second-round reducer.
    ell:
        Number of partitions (degree of parallelism) used.
    stats:
        MapReduce accounting: three rounds (coresets, solve,
        evaluation), local / aggregate memory, parallel time estimate.
    coreset_time:
        Wall-clock seconds spent building the per-partition coresets
        (sum over partitions; divide by ``ell`` for the ideal parallel time,
        or use ``stats`` for the slowest-reducer estimate).
    solve_time:
        Wall-clock seconds spent solving on the union of the coresets.
    peak_working_memory_size:
        The paper's space metric (stored points): the largest working
        set any single participant held — reducers *and* the
        coordinator, ``O(n/ell + chunk + union coreset)``.
    """

    centers: np.ndarray
    center_indices: np.ndarray
    radius: float
    coreset_size: int
    ell: int
    stats: JobStats
    coreset_time: float
    solve_time: float
    peak_working_memory_size: int = 0

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


class MapReduceKCenter(MapReduceDriver):
    """Coreset-based 2-round MapReduce solver for the k-center problem.

    Parameters
    ----------
    k:
        Number of centers.
    ell:
        Number of partitions (the paper's degree of parallelism). The
        theory suggests ``ell = Theta(sqrt(|S| / k))``; any value >= 1 works.
    epsilon:
        Precision parameter of the theoretical coreset stopping rule.
        Mutually exclusive with ``coreset_multiplier``; if neither is
        given, ``epsilon = 1.0`` is used.
    coreset_multiplier:
        The experimental knob ``mu``: each partition contributes a coreset
        of exactly ``mu * k`` points. ``mu = 1`` is the baseline of [26].
    partitioning:
        ``"contiguous"`` (default), ``"round_robin"`` or ``"random"``.
    metric:
        Metric name or instance.
    random_state:
        Seed for the random partitioning and the arbitrary choice of the
        first GMM center in each partition.
    local_memory_limit:
        Optional per-reducer memory cap (items) enforced by the runtime.
    max_workers:
        Workers used by the runtime to execute the per-partition coreset
        constructions concurrently (1 = sequential). The result is
        deterministic for any value because per-partition seeds are drawn
        up front.
    backend:
        Executor backend for the runtime: ``"serial"``, ``"threads"``,
        ``"processes"``, ``"distributed"``, an instance, or ``None``
        (threads when ``max_workers`` > 1, distributed when ``workers``
        is given, serial otherwise). All backends produce identical
        centers, radii and accounting, modulo timings.
    workers:
        Worker daemon addresses (``["host:port", ...]``) for the
        distributed backend — see the "Distributed backend" section of
        the :mod:`repro.mapreduce.runtime` docstring. Each daemon is
        started with ``repro worker --listen HOST:PORT``.

    Examples
    --------
    >>> from repro.datasets import gaussian_mixture, GaussianMixtureSpec
    >>> pts = gaussian_mixture(500, GaussianMixtureSpec(5, 2), random_state=0)
    >>> result = MapReduceKCenter(k=5, ell=4, coreset_multiplier=4,
    ...                           random_state=0).fit(pts)
    >>> result.k
    5
    """

    def _base_size(self, n: int, ell: int) -> int:
        return self.k

    def _solver(self, rng: np.random.Generator):
        return partial(
            _gmm_solve, k=self.k, metric=self.metric, seed=int(rng.integers(2**31 - 1))
        )

    def _result(self, solution: Solution, evaluation: Evaluation, common: dict):
        return MRKCenterResult(radius=evaluation.radius_all_points, **common)
