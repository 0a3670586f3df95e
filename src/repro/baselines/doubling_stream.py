"""The doubling algorithm of Charikar et al. [15] as a streaming k-center baseline.

Charikar, Chekuri, Feder and Motwani's *doubling algorithm* maintains at
most ``k`` centers and a lower bound ``phi`` on the optimal radius,
guaranteeing that every processed point is within ``8 * phi`` of a center
— an 8-approximation using ``Theta(k)`` working memory. The VLDB paper
adapts a *weighted* variant of this algorithm as its streaming coreset
construction (Section 4); this module exposes the plain (unweighted,
``tau = k``) version as a stand-alone baseline, reusing the shared
:class:`~repro.core.doubling_coreset.StreamingCoreset` machinery so the
baseline and the coreset construction are exercised by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..metricspace.distance import Metric, get_metric
from ..streaming.runner import StreamingAlgorithm
from ..core.doubling_coreset import StreamingCoreset

__all__ = ["DoublingStreamSolution", "DoublingStreamKCenter"]


@dataclass(frozen=True)
class DoublingStreamSolution:
    """Final answer of :class:`DoublingStreamKCenter`.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the maintained centers.
    radius_bound:
        ``8 * phi``: the algorithm's certified upper bound on the distance
        from any stream point to its closest center.
    lower_bound:
        ``phi``: the certified lower bound on the optimal k-center radius.
    n_processed:
        Number of stream points consumed.
    """

    centers: np.ndarray
    radius_bound: float
    lower_bound: float
    n_processed: int


class DoublingStreamKCenter(StreamingAlgorithm):
    """The 8-approximation streaming k-center algorithm of [15].

    Parameters
    ----------
    k:
        Number of centers (and the working-memory budget, up to the one
        extra buffered point of the initialisation phase).
    metric:
        Metric name or instance.
    """

    def __init__(self, k: int, *, metric: str | Metric = "euclidean") -> None:
        self.k = check_positive_int(k, name="k")
        self.metric = get_metric(metric)
        self._coreset = StreamingCoreset(self.k, metric=self.metric)

    def process_batch(self, batch: np.ndarray) -> None:
        """Feed a chunk of stream points through the vectorized update rule."""
        self._coreset.process_batch(batch)

    @property
    def working_memory_size(self) -> int:
        """Stored points (at most ``k + 1``)."""
        return self._coreset.working_memory_size

    @property
    def peak_working_memory_size(self) -> int:
        """Exact peak tracked by the coreset, the same at every batch size."""
        return self._coreset.peak_working_memory_size

    def finalize(self) -> DoublingStreamSolution:
        """Return the maintained centers and the certified radius bounds."""
        coreset = self._coreset.coreset()
        centers = coreset.points
        if centers.shape[0] > self.k:
            centers = centers[: self.k]
        return DoublingStreamSolution(
            centers=np.array(centers),
            radius_bound=8.0 * self._coreset.phi,
            lower_bound=self._coreset.phi,
            n_processed=self._coreset.n_processed,
        )
