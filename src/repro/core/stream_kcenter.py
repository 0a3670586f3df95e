"""1-pass coreset-based Streaming algorithm for k-center (CORESETSTREAM).

Section 4 of the paper focuses on the outlier formulation, but notes that
the same coreset techniques give a ``(2 + eps)``-approximation Streaming
algorithm for plain k-center using ``O(k (1/eps)^D)`` working memory; the
experiments of Figure 3 call it CORESETSTREAM and compare it against the
algorithm of McCutchen and Khuller [27] (BASESTREAM).

The algorithm maintains a weighted doubling-algorithm coreset of ``tau``
centers during the pass (:class:`~repro.core.doubling_coreset.StreamingCoreset`)
and, at the end of the stream, runs GMM on the coreset to extract the
final ``k`` centers. In the experiments ``tau = mu * k`` is the space
knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..streaming.runner import StreamingAlgorithm
from .doubling_coreset import StreamingCoreset
from .gmm import gmm_select

__all__ = ["StreamKCenterSolution", "CoresetStreamKCenter", "streaming_coreset_size"]


def streaming_coreset_size(
    k: int,
    z: int,
    epsilon: float,
    doubling_dimension: float,
    *,
    with_outliers: bool = True,
) -> int:
    """The theoretical coreset size ``tau`` of Theorem 3 (and its k-center analogue).

    For the outlier formulation ``tau = (k + z) * (16 / eps_hat)^D`` with
    ``eps_hat = eps / 6`` (i.e. ``(96 / eps)^D``); for plain k-center the
    paper quotes ``O(k (1/eps)^D)`` and we use ``k * (8 / eps)^D`` (the
    doubling algorithm's factor-8 radius slack divided by ``eps``).

    These bounds grow very quickly with ``D``; the experiments use the
    ``mu`` knob instead, and so do the defaults of the solver classes.
    """
    k = check_positive_int(k, name="k")
    if z < 0:
        raise InvalidParameterError("z must be non-negative")
    if epsilon <= 0 or epsilon > 1:
        raise InvalidParameterError("epsilon must lie in (0, 1]")
    if doubling_dimension < 0:
        raise InvalidParameterError("doubling_dimension must be non-negative")
    if with_outliers:
        eps_hat = epsilon / 6.0
        base = k + z
        factor = (16.0 / eps_hat) ** doubling_dimension
    else:
        base = k
        factor = (8.0 / epsilon) ** doubling_dimension
    return int(np.ceil(base * factor))


@dataclass(frozen=True)
class StreamKCenterSolution:
    """Final answer of the streaming k-center algorithm.

    Attributes
    ----------
    centers:
        ``(k, d)`` coordinates of the selected centers.
    coreset_size:
        Number of coreset points held when the stream ended.
    coreset_radius_bound:
        ``8 * phi``, the doubling algorithm's bound on the distance from
        any stream point to its proxy in the coreset.
    n_processed:
        Number of stream points consumed.
    """

    centers: np.ndarray
    coreset_size: int
    coreset_radius_bound: float
    n_processed: int

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


class CoresetStreamKCenter(StreamingAlgorithm):
    """CORESETSTREAM: 1-pass coreset-based streaming k-center.

    Parameters
    ----------
    k:
        Number of centers.
    coreset_size:
        Explicit coreset budget ``tau``; overrides ``coreset_multiplier``.
    coreset_multiplier:
        Space knob ``mu``: ``tau = mu * k`` (default ``mu = 8``).
    metric:
        Metric name or instance.
    random_state:
        Seed for the arbitrary first-center choice of the final GMM run.
    """

    def __init__(
        self,
        k: int,
        *,
        coreset_size: int | None = None,
        coreset_multiplier: float = 8.0,
        metric: str | Metric = "euclidean",
        random_state=None,
    ) -> None:
        self.k = check_positive_int(k, name="k")
        if coreset_size is None:
            if coreset_multiplier < 1:
                raise InvalidParameterError("coreset_multiplier must be >= 1")
            coreset_size = int(round(coreset_multiplier * self.k))
        self.coreset_size = check_positive_int(coreset_size, name="coreset_size")
        if self.coreset_size < self.k:
            raise InvalidParameterError("coreset_size must be at least k")
        self.metric = get_metric(metric)
        self.random_state = random_state
        self._coreset = StreamingCoreset(self.coreset_size, metric=self.metric)

    # -- StreamingAlgorithm protocol -----------------------------------------------------

    def process_batch(self, batch: np.ndarray) -> None:
        """Feed a chunk of stream points through the vectorized update rule."""
        self._coreset.process_batch(batch)

    @property
    def working_memory_size(self) -> int:
        """Stored points (buffered + coreset centers)."""
        return self._coreset.working_memory_size

    @property
    def peak_working_memory_size(self) -> int:
        """Exact peak tracked by the coreset, the same at every batch size."""
        return self._coreset.peak_working_memory_size

    def finalize(self) -> StreamKCenterSolution:
        """Run GMM on the coreset and return the final ``k`` centers."""
        coreset = self._coreset.coreset()
        n_available = len(coreset)
        k = min(self.k, n_available)
        solution = gmm_select(
            coreset.points, k, self.metric, random_state=self.random_state
        )
        return StreamKCenterSolution(
            centers=coreset.points[solution.centers],
            coreset_size=n_available,
            coreset_radius_bound=8.0 * self._coreset.phi,
            n_processed=self._coreset.n_processed,
        )
