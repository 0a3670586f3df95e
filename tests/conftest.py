"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import GaussianMixtureSpec, gaussian_mixture, inject_outliers

# The test-only references in tests/properties (``_reference_*.py``) are
# importable from every test directory.
sys.path.insert(0, str(Path(__file__).parent / "properties"))


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_blobs():
    """A small, well-clustered 2-d dataset (5 clusters, 200 points)."""
    spec = GaussianMixtureSpec(n_clusters=5, dimension=2, cluster_std=0.5, box_size=50.0)
    return gaussian_mixture(200, spec, random_state=7)


@pytest.fixture
def medium_blobs():
    """A medium, well-clustered 3-d dataset (8 clusters, 600 points)."""
    spec = GaussianMixtureSpec(n_clusters=8, dimension=3, cluster_std=0.8, box_size=80.0)
    return gaussian_mixture(600, spec, random_state=11)


@pytest.fixture
def blobs_with_outliers(small_blobs):
    """The small dataset with 15 far-away planted outliers (shuffled)."""
    return inject_outliers(small_blobs, 15, random_state=3)


@pytest.fixture
def tiny_points():
    """A hand-crafted 1-d dataset whose optima are easy to reason about."""
    return np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0], [50.0]])
