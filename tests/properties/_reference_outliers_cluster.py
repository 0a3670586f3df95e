"""Test-only reference for OUTLIERSCLUSTER and its radius search.

:func:`naive_run` is Algorithm 1 written out literally: before each
center it recomputes every ball weight with one dense
``(D <= selection_radius) @ uncovered_weight`` pass over the whole
pairwise matrix. :class:`ReferenceSolver` puts it behind the solver
interface that :func:`repro.core.search_radius` calls, with the
candidate radii taken by ``np.unique`` over the strict upper triangle.
With integer weights the solver must match it bit for bit, whichever
path its probes take and whichever probes ran before.
"""

from __future__ import annotations

import numpy as np

from repro.core import OutliersClusterSolver
from repro.core.outliers_cluster import OutliersClusterResult


def naive_run(solver: OutliersClusterSolver, radius: float) -> tuple[list[int], np.ndarray]:
    """Centers and uncovered mask of Algorithm 1 at ``radius``."""
    selection_radius = (1.0 + 2.0 * solver.eps_hat) * radius
    coverage_radius = (3.0 + 4.0 * solver.eps_hat) * radius
    pairwise = solver.pairwise_distances
    weights = solver.coreset.weights
    uncovered = np.ones(len(solver.coreset), dtype=bool)
    centers = []
    while len(centers) < solver.k and uncovered.any():
        uncovered_weight = np.where(uncovered, weights, 0.0)
        ball_weights = (pairwise <= selection_radius) @ uncovered_weight
        center = int(np.argmax(ball_weights))
        centers.append(center)
        uncovered &= ~(pairwise[center] <= coverage_radius)
    return centers, uncovered


def reference_candidates(solver: OutliersClusterSolver) -> np.ndarray:
    """Sorted distinct distances of the strict upper triangle."""
    pairwise = solver.pairwise_distances
    return np.unique(pairwise[np.triu_indices(pairwise.shape[0], k=1)])


class ReferenceSolver:
    """The solver interface of search_radius over the literal reference."""

    def __init__(self, solver: OutliersClusterSolver) -> None:
        self._solver = solver
        self.eps_hat = solver.eps_hat

    def candidate_radii(self) -> np.ndarray:
        return reference_candidates(self._solver)

    def run(self, radius: float) -> OutliersClusterResult:
        centers, uncovered = naive_run(self._solver, radius)
        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._solver.coreset.weights[uncovered].sum()),
            radius=float(radius),
        )
