"""The drive path shared by the MapReduce coreset algorithms.

The paper's two MapReduce algorithms — k-center (Section 3.1) and
k-center with z outliers (Section 3.2) — run as the same job:

* a shuffle routes the input, chunk by chunk, into ``ell`` partitions
  (:func:`~repro.mapreduce.runtime.shuffle_point_stream`);
* round 1: each reducer builds the GMM coreset of its partition;
* round 2: one reducer solves the problem on the union of the coresets;
* round 3: each reducer scores its partition against the final centers
  and returns its ``z + 1`` farthest points, from which the coordinator
  merges the exact radii and outlier set.

:class:`MapReduceDriver` runs that job for both algorithms; a driver
supplies only its coreset size, its round-2 solver and its result. The
coordinator holds one routing chunk plus the coreset union
(``O(chunk + union coreset)`` points) and each reducer one partition
(``O(n / ell)``), which is the paper's memory model.

Reducers are module-level functions parameterised with
:func:`functools.partial` over picklable arguments, and every random
draw happens in the coordinator before dispatch, so a run produces
identical results on every executor backend and storage tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import check_positive_int, check_random_state
from ..exceptions import InvalidParameterError
from ..mapreduce import runtime as mr_runtime
from ..mapreduce.backends import ExecutorBackend
from ..mapreduce.partitioner import draw_partition_seeds
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints
from ..streaming.stream import ArrayStream
from . import coreset as coreset_module

__all__ = ["MapReduceDriver", "Solution"]


@dataclass(frozen=True)
class _Coreset:
    """Round-1 output: one partition's coreset (with global indices) and its build time."""

    points: WeightedPoints
    elapsed: float


@dataclass(frozen=True)
class Solution:
    """Round-2 output: the final centers, their global indices and the solve time.

    ``search`` carries the outliers driver's
    :class:`~repro.core.radius_search.RadiusSearchResult` (``None`` for
    plain k-center).
    """

    centers: np.ndarray
    center_indices: np.ndarray
    coreset_size: int
    elapsed: float
    search: object = None


@dataclass(frozen=True)
class _EvaluationTask:
    """Round-3 input: one partition and the centers to score it against."""

    partition: mr_runtime.StreamedPartition
    centers: np.ndarray

    def __len__(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class Evaluation:
    """The final solution's radii and outlier set, merged from round 3."""

    radius: float
    radius_all_points: float
    outlier_indices: np.ndarray


def _coreset_reducer(
    partition_id,
    values,
    *,
    spec: coreset_module.CoresetSpec,
    metric: Metric,
    seeds: tuple[int, ...],
    weighted: bool,
):
    """Build the coreset of one partition (round-1 reducer; picklable)."""
    part: mr_runtime.StreamedPartition = values[0]
    start = time.perf_counter()
    result = coreset_module.build_coreset(
        part.points.array,
        spec,
        metric,
        weighted=weighted,
        first_center=None,
        random_state=seeds[partition_id],
    )
    elapsed = time.perf_counter() - start
    points = WeightedPoints(
        points=result.coreset.points,
        weights=result.coreset.weights,
        origin_indices=part.indices.array[result.center_indices],
    )
    return [(0, _Coreset(points, elapsed))]


def _solve_reducer(_key, values, *, solve):
    """Run a driver's solver on the union of the coresets (round-2 reducer; picklable).

    ``solve(union)`` returns the centers' positions in the union and an
    optional search record.
    """
    union = WeightedPoints.concatenate(values)
    start = time.perf_counter()
    positions, search = solve(union)
    elapsed = time.perf_counter() - start
    return [
        (
            0,
            Solution(
                centers=union.points[positions],
                center_indices=union.origin_indices[positions],
                coreset_size=len(union),
                elapsed=elapsed,
                search=search,
            ),
        )
    ]


def _evaluation_reducer(_partition_id, values, *, metric: Metric, z: int):
    """The ``z + 1`` farthest points of one partition (round-3 reducer; picklable).

    Uses the blocked :meth:`~repro.metricspace.distance.Metric.nearest`
    kernel, so the reducer holds its partition plus the centers, never
    the ``(n_i, k)`` cross matrix. Every globally-far point is far within
    its partition, so merging the per-partition lists recovers the exact
    global ``z + 1`` farthest points.
    """
    task: _EvaluationTask = values[0]
    indices = task.partition.indices.array
    distances, _ = metric.nearest(task.partition.points.array, task.centers)
    keep = min(z + 1, distances.shape[0])
    # Candidates are every point at least as far as the keep-th largest
    # distance (ties included); ordering them by (distance, global index)
    # is the tie-break the coordinator's merge uses.
    threshold = np.partition(distances, -keep)[-keep]
    candidates = np.flatnonzero(distances >= threshold)
    order = candidates[np.lexsort((indices[candidates], distances[candidates]))][-keep:]
    return [(0, (distances[order], indices[order]))]


def _merge_evaluations(summaries, z: int) -> Evaluation:
    """Merge the per-partition farthest points into the global radii and outliers.

    Sorting by (distance, index) makes the selection among equal
    distances deterministic.
    """
    distances = np.concatenate([summary[0] for summary in summaries])
    indices = np.concatenate([summary[1] for summary in summaries])
    order = np.lexsort((indices, distances))
    return Evaluation(
        radius=float(distances[order[-(z + 1)]]),
        radius_all_points=float(distances[order[-1]]),
        outlier_indices=np.sort(indices[order[len(order) - z :]]),
    )


class MapReduceDriver:
    """The shuffle, coreset, solve and evaluation rounds both drivers share.

    Subclasses set :attr:`partitionings` and :attr:`weighted` and
    implement :meth:`_base_size`, :meth:`_solver` and :meth:`_result`;
    the outliers driver also overrides :meth:`_routing` and
    :meth:`_check_size`. See the subclasses for the parameters.
    """

    #: Partitioning strategies the driver accepts.
    partitionings: tuple[str, ...] = ("contiguous", "round_robin", "random")
    #: Whether round-1 coresets weigh each point by its proxy count.
    weighted = False
    #: Points the objective may discard; round 3 keeps the ``z + 1``
    #: farthest points of every partition.
    z = 0

    def __init__(
        self,
        k: int,
        *,
        ell: int = 4,
        epsilon: float | None = None,
        coreset_multiplier: float | None = None,
        partitioning: str = "contiguous",
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.ell = check_positive_int(ell, name="ell")
        if epsilon is not None and coreset_multiplier is not None:
            raise InvalidParameterError(
                "epsilon and coreset_multiplier are mutually exclusive"
            )
        if epsilon is None and coreset_multiplier is None:
            epsilon = 1.0
        self.epsilon = epsilon
        self.coreset_multiplier = coreset_multiplier
        if partitioning not in self.partitionings:
            raise InvalidParameterError(
                f"partitioning must be one of {sorted(self.partitionings)}; "
                f"got {partitioning!r}"
            )
        self.partitioning = partitioning
        self.metric = get_metric(metric)
        self.random_state = random_state
        self.local_memory_limit = local_memory_limit
        if max_workers is not None:
            max_workers = check_positive_int(max_workers, name="max_workers")
        self.max_workers = max_workers
        self.backend = backend
        self.workers = None if workers is None else list(workers)

    # -- what a driver supplies --------------------------------------------------------

    def _base_size(self, n: int, ell: int) -> int:
        """Base size of every partition's coreset (scaled by ``epsilon`` or ``mu``)."""
        raise NotImplementedError

    def _solver(self, rng: np.random.Generator):
        """Picklable round-2 solver: ``solve(union) -> (center positions, search)``."""
        raise NotImplementedError

    def _result(self, solution: Solution, evaluation: Evaluation, common: dict):
        """The driver's result object; ``common`` holds the fields both results share."""
        raise NotImplementedError

    def _routing(self) -> dict:
        """Keyword arguments selecting the shuffle's partitioning."""
        return {"partitioning": self.partitioning}

    def _check_size(self, n: int) -> None:
        if self.k > n:
            raise InvalidParameterError(f"k={self.k} exceeds the dataset size {n}")

    def _coreset_spec(self, n: int, ell: int) -> coreset_module.CoresetSpec:
        base = self._base_size(n, ell)
        if self.coreset_multiplier is not None:
            return coreset_module.CoresetSpec.from_multiplier(base, self.coreset_multiplier)
        return coreset_module.CoresetSpec.from_epsilon(base, self.epsilon)

    # -- entry points ------------------------------------------------------------------

    def fit(self, points):
        """Run the algorithm on an ``(n, d)`` point matrix: ``fit_stream(ArrayStream(points))``."""
        return self.fit_stream(ArrayStream(points))

    def fit_stream(
        self,
        stream,
        *,
        chunk_size: int = 4096,
        storage: str = "auto",
        spill_dir: str | None = None,
        memory_budget_bytes: int | None = None,
    ):
        """Run the algorithm on a chunked point stream, out of core.

        The coordinator never materialises the ``(n, d)`` matrix: chunks
        are routed straight into per-partition stores, the reducers build
        their coresets from their own partitions, and a third round
        scores each partition against the centers to compute the radii
        (and, with outliers, the exact outlier set). The coordinator's
        working set is ``O(chunk_size + union coreset)`` points (see
        ``stats.coordinator_peak_items``), so dataset size is bounded by
        the reducers' memory, not the coordinator's.

        Parameters
        ----------
        stream:
            A :class:`~repro.streaming.stream.PointStream`, or any
            iterable of points / point batches (wrapped in a
            :class:`~repro.streaming.stream.GeneratorStream`).
            ``"contiguous"`` and ``"adversarial"`` partitioning need a
            stream with a known length (``len(stream)``); unknown-length
            sources can use ``"round_robin"`` or ``"random"``. ``ell``
            is capped at the length when it is known and used as given
            otherwise.
        chunk_size:
            Rows per routing chunk; also the coordinator's transient
            working set during the shuffle.
        storage:
            Partition-storage tier for the shuffle: ``"auto"``
            (default), ``"memory"`` or ``"disk"``. Under
            ``"auto"`` with a ``memory_budget_bytes``, streams whose
            estimated partition footprint exceeds the budget spill to
            disk; ``stats.storage_tier`` / ``stats.spilled_bytes``
            report what ran. Every tier is bit-identical.
        spill_dir:
            Directory for ``"disk"``-tier spill files (default: a
            run-owned temporary directory, removed afterwards).
        memory_budget_bytes:
            In-memory partition budget consulted by ``storage="auto"``.
        """
        chunk_size = check_positive_int(chunk_size, name="chunk_size")
        rng = check_random_state(self.random_state)

        with mr_runtime.MapReduceRuntime(
            local_memory_limit=self.local_memory_limit,
            max_workers=self.max_workers,
            backend=self.backend,
            workers=self.workers,
            storage=storage,
            spill_dir=spill_dir,
            memory_budget_bytes=memory_budget_bytes,
        ) as runtime:
            # Looked up on the module, like build_coreset below, so that
            # instrumentation wrapping the module attribute sees the call.
            parts, n, ell = mr_runtime.shuffle_point_stream(
                runtime, stream, ell=self.ell, rng=rng, chunk_size=chunk_size,
                **self._routing(),
            )
            self._check_size(n)
            spec = self._coreset_spec(n, ell)
            # Every seed is drawn up front, so reducers carry no shared
            # random state and any backend gives the same result.
            partition_seeds = draw_partition_seeds(rng, len(parts))
            solver = self._solver(rng)

            # Partitions the routing left empty are dropped: that lowers the
            # effective parallelism, never correctness.
            partitions = {
                partition_id: part for partition_id, part in enumerate(parts) if len(part)
            }
            coresets = runtime.execute_round(
                {partition_id: [part] for partition_id, part in partitions.items()},
                partial(
                    _coreset_reducer,
                    spec=spec,
                    metric=self.metric,
                    seeds=partition_seeds,
                    weighted=self.weighted,
                ),
            )
            solution: Solution = runtime.execute_round(
                {0: [output.points for _, output in coresets]},
                partial(_solve_reducer, solve=solver),
            )[0][1]
            # The union of the coresets passed through the coordinator
            # between rounds 1 and 2: charge it to the coordinator's peak.
            runtime.note_coordinator_items(solution.coreset_size)
            summaries = runtime.execute_round(
                {
                    partition_id: [_EvaluationTask(part, solution.centers)]
                    for partition_id, part in partitions.items()
                },
                partial(_evaluation_reducer, metric=self.metric, z=self.z),
            )
            stats = runtime.stats

        common = dict(
            centers=solution.centers,
            center_indices=solution.center_indices,
            coreset_size=solution.coreset_size,
            ell=len(partitions),
            stats=stats,
            coreset_time=sum(output.elapsed for _, output in coresets),
            solve_time=solution.elapsed,
            peak_working_memory_size=stats.peak_working_memory_size,
        )
        evaluation = _merge_evaluations([summary for _, summary in summaries], self.z)
        return self._result(solution, evaluation, common)
