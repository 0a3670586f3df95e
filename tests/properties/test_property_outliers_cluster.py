"""Property tests: OUTLIERSCLUSTER probes equal the literal Algorithm 1.

With integer weights every probe must return, bit for bit, what the
reference in ``_reference_outliers_cluster.py`` returns, whichever order
the radii come in: a probe may read the selection graph an earlier probe
built, build it at the bound ``candidate_radii`` counted, or threshold
the upper triangle of the pairwise matrix. The graph's cap is drawn too,
so these small coresets take every path.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutliersClusterSolver, search_radius
from repro.metricspace import WeightedPoints

from _reference_outliers_cluster import ReferenceSolver, naive_run, reference_candidates

solver_module = importlib.import_module("repro.core.outliers_cluster")

# Integer coordinates tie many distances; fractional ones do not.
coordinates = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def coresets_with_duplicates(draw) -> WeightedPoints:
    """Up to 16 points drawn, with repetition, from up to 8 distinct ones."""
    dimension = draw(st.integers(1, 3))
    distinct = draw(
        st.lists(
            st.lists(coordinates, min_size=dimension, max_size=dimension),
            min_size=1,
            max_size=8,
        )
    )
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=16))
    weights = draw(st.lists(st.integers(1, 60), min_size=len(picks), max_size=len(picks)))
    return WeightedPoints(
        points=np.asarray(distinct, dtype=np.float64)[picks],
        weights=np.asarray(weights, dtype=np.float64),
    )


@given(
    coreset=coresets_with_duplicates(),
    k=st.integers(1, 5),
    eps_hat=st.sampled_from((0.0, 1 / 6)),
    graph_fill=st.sampled_from((1, 4, 32)),
    z=st.integers(0, 40),
    order_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_probes_in_any_order_match_reference(coreset, k, eps_hat, graph_fill, z, order_seed):
    with mock.patch.object(solver_module, "_GRAPH_FILL", graph_fill):
        solver = OutliersClusterSolver(coreset, k, eps_hat=eps_hat)
        radii = [0.0, *(float(radius) for radius in reference_candidates(solver))]
        expected = {radius: naive_run(solver, radius) for radius in radii}
        shuffled = [radii[i] for i in np.random.default_rng(order_seed).permutation(len(radii))]
        # One solver probes every radius three times over: first before the
        # candidates exist (dense passes only), then after candidate_radii
        # has counted the graph's bound, so each probe meets whatever graph
        # the previous ones left behind.
        for radius in (*radii, None, *reversed(radii), *shuffled):
            if radius is None:
                assert solver.candidate_radii().tobytes() == reference_candidates(solver).tobytes()
                continue
            result = solver.run(radius)
            centers, uncovered = expected[radius]
            assert result.center_indices.tolist() == centers
            assert np.array_equal(result.uncovered_mask, uncovered)
            assert result.uncovered_weight == float(coreset.weights[uncovered].sum())

        found = search_radius(solver, z)
        reference = search_radius(ReferenceSolver(solver), z)
        assert found.radius == reference.radius
        assert found.probes == reference.probes
        assert np.array_equal(found.solution.center_indices, reference.solution.center_indices)
        assert np.array_equal(found.solution.uncovered_mask, reference.solution.uncovered_mask)
        assert found.solution.uncovered_weight == reference.solution.uncovered_weight
