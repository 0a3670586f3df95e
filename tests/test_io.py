"""Tests for repro.io (saving and loading solutions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import load_solution, save_solution
from repro.core import (
    CoresetStreamKCenter,
    CoresetStreamOutliers,
    MapReduceKCenterOutliers,
    SequentialKCenter,
)
from repro.exceptions import InvalidParameterError
from repro.streaming import ArrayStream, StreamingRunner


class TestSaveAndLoad:
    def test_roundtrip_sequential(self, small_blobs, tmp_path):
        result = SequentialKCenter(4).fit(small_blobs)
        base = tmp_path / "solutions" / "kcenter"
        json_path, npz_path = save_solution(result, base, metadata={"dataset": "blobs", "k": 4})
        assert json_path.exists() and npz_path.exists()

        loaded = load_solution(base)
        np.testing.assert_allclose(loaded.centers, result.centers)
        assert loaded.radius == pytest.approx(result.radius)
        np.testing.assert_array_equal(loaded.center_indices, result.center_indices)
        assert loaded.metadata["dataset"] == "blobs"
        assert loaded.metadata["result_type"] == "SequentialResult"
        assert loaded.k == 4

    def test_roundtrip_mr_outliers(self, blobs_with_outliers, tmp_path):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(4, z, ell=2, coreset_multiplier=2, random_state=0).fit(data)
        base = tmp_path / "mr_outliers"
        save_solution(result, base)
        loaded = load_solution(base)
        np.testing.assert_array_equal(loaded.outlier_indices, result.outlier_indices)
        assert loaded.radius == pytest.approx(result.radius)

    def test_extension_in_base_path_is_dropped(self, small_blobs, tmp_path):
        result = SequentialKCenter(3).fit(small_blobs)
        save_solution(result, tmp_path / "with_ext.json")
        loaded = load_solution(tmp_path / "with_ext.npz")
        assert loaded.k == 3

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_solution(tmp_path / "nothing_here")

    def test_result_without_centers_rejected(self, tmp_path):
        class Bogus:
            radius = 1.0

        with pytest.raises(InvalidParameterError):
            save_solution(Bogus(), tmp_path / "bogus")

    def test_result_without_radius_rejected(self, tmp_path):
        class Bogus:
            centers = np.zeros((2, 2))

        with pytest.raises(InvalidParameterError):
            save_solution(Bogus(), tmp_path / "bogus")

    @pytest.mark.parametrize(
        "algorithm",
        [lambda: CoresetStreamKCenter(3), lambda: CoresetStreamOutliers(3, 5)],
        ids=["StreamKCenterSolution", "StreamOutliersSolution"],
    )
    def test_streaming_results_rejected(self, small_blobs, tmp_path, algorithm):
        result = StreamingRunner().run(algorithm(), ArrayStream(small_blobs)).result
        with pytest.raises(InvalidParameterError, match="carries no solution 'radius'"):
            save_solution(result, tmp_path / "streamed")
        assert not list(tmp_path.iterdir())

    def test_format_version_checked(self, small_blobs, tmp_path):
        result = SequentialKCenter(2).fit(small_blobs)
        json_path, _ = save_solution(result, tmp_path / "versioned")
        payload = json_path.read_text().replace('"format_version": 1', '"format_version": 99')
        json_path.write_text(payload)
        with pytest.raises(InvalidParameterError):
            load_solution(tmp_path / "versioned")
