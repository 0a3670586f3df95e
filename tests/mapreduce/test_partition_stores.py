"""Unit tests for the partition storage tiers behind the out-of-core shuffle.

Covers the two store classes (in-process arrays, on-disk ``.npy``
spill files), the tier-resolution logic of
:func:`~repro.mapreduce.backends.resolve_storage` and its backend rule,
and the contracts of the sealed
:class:`~repro.mapreduce.backends.PartitionArray` handles (pickled by
path or by value, copied on request, rejecting a spill file whose header
disagrees with the handle).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.mapreduce import (
    DiskPartitionStore,
    MemoryPartitionStore,
    PartitionArray,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_storage_tiers,
    resolve_storage,
)
from repro.mapreduce.backends import check_storage_tier

STORAGE_TIERS = ("memory", "disk")


def _store(storage, tmp_path, dimension=3, dtype=np.float64, initial_capacity=1024):
    if storage == "disk":
        return DiskPartitionStore(dimension, dtype, str(tmp_path))
    return MemoryPartitionStore(dimension, dtype, initial_capacity)


class TestAllTiers:
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_append_and_finalize_roundtrip(self, storage, tmp_path):
        rows = np.arange(24.0).reshape(8, 3)
        store = _store(storage, tmp_path, initial_capacity=2)
        store.append(rows[:5])
        store.append(rows[5:])
        sealed = store.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, rows)
            assert not sealed.array.flags.writeable
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_many_small_appends(self, storage, tmp_path):
        store = _store(storage, tmp_path, dimension=2, initial_capacity=1)
        expected = []
        for block in range(10):
            rows = np.full((3, 2), float(block))
            store.append(rows)
            expected.append(rows)
        sealed = store.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, np.vstack(expected))
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_one_dimensional_rows(self, storage, tmp_path):
        store = _store(storage, tmp_path, dimension=None, dtype=np.intp)
        store.append(np.arange(10))
        sealed = store.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, np.arange(10))
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_empty_partition_finalizes_to_zero_rows(self, storage, tmp_path):
        store = _store(storage, tmp_path)
        sealed = store.finalize()
        try:
            assert sealed.shape == (0, 3)
            assert len(sealed) == 0
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_close_without_finalize_is_idempotent(self, storage, tmp_path):
        store = _store(storage, tmp_path)
        store.append(np.zeros((2, 3)))
        store.close()
        store.close()
        if storage == "disk":
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_array_copy_true_returns_a_writeable_copy(self, storage, tmp_path):
        store = _store(storage, tmp_path)
        store.append(np.arange(12.0).reshape(4, 3))
        sealed = store.finalize()
        try:
            copied = np.array(sealed, copy=True)
            assert copied.flags.writeable
            assert not np.shares_memory(copied, sealed.array)
            np.testing.assert_array_equal(copied, sealed.array)
            # Without copy=True the stored read-only rows are handed out.
            assert np.shares_memory(np.asarray(sealed), sealed.array)
        finally:
            sealed.close()


    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_array_copy_false_hands_out_the_stored_rows(self, storage, tmp_path):
        store = _store(storage, tmp_path)
        store.append(np.arange(12.0).reshape(4, 3))
        sealed = store.finalize()
        try:
            view = np.array(sealed, copy=False)
            assert np.shares_memory(view, sealed.array)
            assert not view.flags.writeable
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_array_dtype_conversion_returns_a_converted_copy(self, storage, tmp_path):
        store = _store(storage, tmp_path)
        store.append(np.arange(12.0).reshape(4, 3))
        sealed = store.finalize()
        try:
            converted = np.asarray(sealed, dtype=np.float32)
            assert converted.dtype == np.float32
            assert not np.shares_memory(converted, sealed.array)
            np.testing.assert_array_equal(converted, np.arange(12.0).reshape(4, 3))
        finally:
            sealed.close()


class TestDiskTier:
    def test_spilled_bytes_counts_both_appends(self, tmp_path):
        store = _store("disk", tmp_path, dimension=4)
        store.append(np.zeros((10, 4)))
        store.append(np.zeros((6, 4)))
        assert store.spilled_bytes == 16 * 4 * 8
        store.close()

    def test_memory_tiers_report_zero_spill(self, tmp_path):
        store = _store("memory", tmp_path)
        store.append(np.zeros((4, 3)))
        assert store.spilled_bytes == 0
        store.close()

    def test_finalized_file_is_a_valid_npy(self, tmp_path):
        rows = np.arange(30.0).reshape(10, 3)
        store = _store("disk", tmp_path)
        store.append(rows)
        sealed = store.finalize()
        try:
            (path,) = tmp_path.glob("*.npy")
            np.testing.assert_array_equal(np.load(path), rows)
        finally:
            sealed.close()

    def test_sealed_handle_pickles_by_path_not_by_value(self, tmp_path):
        rows = np.arange(3000.0).reshape(1000, 3)
        store = _store("disk", tmp_path)
        store.append(rows)
        sealed = store.finalize()
        try:
            payload = pickle.dumps(sealed)
            assert len(payload) < rows.nbytes // 10
            attached = pickle.loads(payload)
            np.testing.assert_array_equal(attached.array, rows)
            # Re-pickling an attached handle keeps working (worker-to-worker).
            again = pickle.loads(pickle.dumps(attached))
            np.testing.assert_array_equal(again.array, rows)
        finally:
            sealed.close()

    def test_owner_close_deletes_the_spill_file(self, tmp_path):
        store = _store("disk", tmp_path)
        store.append(np.ones((5, 3)))
        sealed = store.finalize()
        assert len(list(tmp_path.glob("*.npy"))) == 1
        sealed.close()
        sealed.close()  # idempotent
        assert list(tmp_path.glob("*.npy")) == []

    def test_attached_handle_close_does_not_delete(self, tmp_path):
        store = _store("disk", tmp_path)
        store.append(np.ones((5, 3)))
        sealed = store.finalize()
        try:
            attached = pickle.loads(pickle.dumps(sealed))
            attached.close()
            assert len(list(tmp_path.glob("*.npy"))) == 1
        finally:
            sealed.close()

    def test_spill_file_disagreeing_with_the_handle_rejected(self, tmp_path):
        # A replaced or truncated spill file must fail loudly on attach,
        # not hand a reducer the wrong rows.
        path = tmp_path / "part-replaced.npy"
        np.save(path, np.zeros((5, 3)))
        with pytest.raises(InvalidParameterError, match="expected"):
            PartitionArray.from_spill_file(str(path), (4, 3), np.float64)
        with pytest.raises(InvalidParameterError, match="expected"):
            PartitionArray.from_spill_file(str(path), (5, 3), np.intp)

    def test_dtype_preserved(self, tmp_path):
        store = _store("disk", tmp_path, dimension=None, dtype=np.intp)
        store.append(np.arange(7))
        sealed = store.finalize()
        try:
            assert sealed.dtype == np.dtype(np.intp)
            attached = pickle.loads(pickle.dumps(sealed))
            assert attached.dtype == np.dtype(np.intp)
        finally:
            sealed.close()


class TestMemoryTierPickling:
    def test_memory_tier_pickles_by_value(self):
        store = MemoryPartitionStore(2, np.float64, 4)
        rows = np.arange(8.0).reshape(4, 2)
        store.append(rows)
        sealed = store.finalize()
        copied = pickle.loads(pickle.dumps(sealed))
        np.testing.assert_array_equal(copied.array, rows)
        assert not copied.array.flags.writeable


class TestResolveStorage:
    def test_available_tiers(self):
        assert available_storage_tiers() == ("auto", "disk", "memory")

    def test_explicit_tiers_pass_through(self):
        for tier in STORAGE_TIERS:
            assert resolve_storage(tier) == tier

    def test_auto_follows_backend(self):
        serial, processes = SerialBackend(), ProcessBackend(max_workers=1)
        try:
            assert resolve_storage("auto", backend=serial) == "memory"
            assert resolve_storage(None, backend=serial) == "memory"
            assert resolve_storage("auto", backend=ThreadBackend(2)) == "memory"
            assert resolve_storage("auto", backend=processes) == "disk"
            assert resolve_storage("auto", backend="distributed") == "disk"
        finally:
            processes.close()

    def test_distributed_takes_files_only(self):
        # The budget cannot bring the memory tier back on the wire.
        assert resolve_storage(
            "auto", backend="distributed", estimated_bytes=100, memory_budget_bytes=200
        ) == "disk"
        assert resolve_storage("disk", backend="distributed") == "disk"
        with pytest.raises(InvalidParameterError, match="distributed"):
            resolve_storage("memory", backend="distributed")
        with pytest.raises(InvalidParameterError, match="distributed"):
            check_storage_tier("memory", "distributed")
        # The process pool keeps its by-value memory tier.
        assert check_storage_tier("memory", "processes") == "memory"

    def test_auto_spills_above_budget(self):
        backend = SerialBackend()
        assert (
            resolve_storage(
                "auto", backend=backend, estimated_bytes=100, memory_budget_bytes=200
            )
            == "memory"
        )
        assert (
            resolve_storage(
                "auto", backend=backend, estimated_bytes=300, memory_budget_bytes=200
            )
            == "disk"
        )

    def test_auto_spills_when_size_unknown_under_budget(self):
        assert (
            resolve_storage(
                "auto", backend=SerialBackend(), estimated_bytes=None,
                memory_budget_bytes=200,
            )
            == "disk"
        )

    def test_unknown_tier_rejected(self):
        for storage in ("tape", "shared"):
            with pytest.raises(InvalidParameterError, match="storage tier"):
                resolve_storage(storage)
            with pytest.raises(InvalidParameterError, match="storage tier"):
                check_storage_tier(storage, "serial")
