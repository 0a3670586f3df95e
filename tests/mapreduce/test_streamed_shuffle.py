"""Unit tests for the out-of-core shuffle substrate.

Covers the partition stores (on every storage tier), the
:meth:`~repro.mapreduce.runtime.MapReduceRuntime.shuffle_stream` entry
point on all three backends x both tiers, the coordinator-side memory
accounting that the streamed path is designed to bound, and the
no-orphans guarantee on mid-stream failures (no stranded spill files,
no spill-file mappings pinned in reused pool workers).
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np
import pytest
from _splits import split_contiguous

from repro.exceptions import EmptyStreamError, InvalidParameterError
from repro.mapreduce import (
    ChunkRouter,
    DiskPartitionStore,
    MapReduceRuntime,
    MemoryPartitionStore,
    PartitionArray,
    ProcessBackend,
)

BACKENDS = ("serial", "threads", "processes")
STORAGE_TIERS = ("memory", "disk")


def _spill_mapping_probe(key, values):
    """Reducer reporting how many deleted spill files the worker still maps."""
    del values
    with open("/proc/self/maps") as maps:
        count = sum(
            1 for line in maps if "part-" in line and line.rstrip().endswith(".npy (deleted)")
        )
    yield (key, count)


def _chunks(points, size):
    for start in range(0, points.shape[0], size):
        yield points[start : start + size]


def _reconstruct(parts, like):
    """Scatter every partition's rows back to their global indices."""
    reconstructed = np.empty_like(like)
    for part in parts:
        reconstructed[part.indices.array] = part.points.array
    return reconstructed


def _tier_store(storage, tmp_path, dimension, dtype=np.float64, initial_capacity=1024):
    if storage == "disk":
        return DiskPartitionStore(dimension, dtype, str(tmp_path))
    return MemoryPartitionStore(dimension, dtype, initial_capacity)


class TestPartitionStores:
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_append_and_finalize_roundtrip(self, storage, tmp_path):
        rows = np.arange(24.0).reshape(8, 3)
        store = _tier_store(storage, tmp_path, 3, initial_capacity=2)
        store.append(rows[:5])
        store.append(rows[5:])
        sealed = store.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, rows)
            assert not sealed.array.flags.writeable
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_growth_preserves_prefix(self, storage, tmp_path):
        store = _tier_store(storage, tmp_path, 2, initial_capacity=1)
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

    def test_one_dimensional_rows(self):
        store = MemoryPartitionStore(None, np.intp, 4)
        store.append(np.arange(10))
        sealed = store.finalize()
        np.testing.assert_array_equal(sealed.array, np.arange(10))


class TestShuffleStream:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partitions_reconstruct_input(self, backend, medium_blobs):
        with MapReduceRuntime(backend=backend, max_workers=2) as runtime:
            router = ChunkRouter(5, "round_robin")
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 97), router)
            assert router.points_routed == medium_blobs.shape[0]
            assert {part.points.array.shape[1] for part in parts} == {medium_blobs.shape[1]}
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_whole_input_split(self, backend, medium_blobs):
        splits = split_contiguous(medium_blobs.shape[0], 4)
        with MapReduceRuntime(backend=backend, max_workers=2) as runtime:
            router = ChunkRouter(4, "contiguous", n_total=medium_blobs.shape[0])
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 128), router)
            assert len(parts) == len(splits)
            for part, expected in zip(parts, splits):
                np.testing.assert_array_equal(part.indices.array, expected)
                np.testing.assert_array_equal(part.points.array, medium_blobs[expected])

    def test_oversized_native_batches_resplit(self, medium_blobs):
        # A source may deliver one giant native batch; max_chunk_rows must
        # keep the coordinator's in-flight working set bounded anyway.
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(4, "round_robin")
            runtime.shuffle_stream(iter([medium_blobs]), router, max_chunk_rows=64)
            assert router.points_routed == medium_blobs.shape[0]
            assert runtime.stats.coordinator_peak_items == 64

    def test_fit_stream_bounds_native_batches(self, medium_blobs):
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream, GeneratorStream

        solver = MapReduceKCenter(5, ell=4, coreset_multiplier=2, random_state=0)
        # One giant native batch vs properly chunked delivery: identical
        # results, and the coordinator is charged chunk_size either way.
        chunked = solver.fit_stream(ArrayStream(medium_blobs), chunk_size=100)
        giant = solver.fit_stream(
            GeneratorStream(iter([medium_blobs]), length_hint=medium_blobs.shape[0]),
            chunk_size=100,
        )
        np.testing.assert_array_equal(giant.center_indices, chunked.center_indices)
        assert giant.radius == chunked.radius
        assert (
            giant.stats.coordinator_peak_items
            == chunked.stats.coordinator_peak_items
            < medium_blobs.shape[0]
        )

    def test_coordinator_charged_one_chunk(self, medium_blobs):
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(4, "round_robin")
            runtime.shuffle_stream(_chunks(medium_blobs, 50), router)
            assert runtime.stats.coordinator_peak_items == 50
            # Far below a full materialisation of the input.
            assert runtime.stats.coordinator_peak_items < medium_blobs.shape[0]

    def test_empty_stream_rejected(self):
        with MapReduceRuntime() as runtime:
            with pytest.raises(EmptyStreamError, match="no points"):
                runtime.shuffle_stream(iter(()), ChunkRouter(2, "round_robin"))

    def test_underdelivery_rejected(self):
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(2, "contiguous", n_total=100)
            with pytest.raises(InvalidParameterError, match="declared"):
                runtime.shuffle_stream(_chunks(np.zeros((60, 2)), 30), router)

    def test_dimension_mismatch_rejected(self):
        def chunks():
            yield np.zeros((5, 3))
            yield np.zeros((5, 2))

        with MapReduceRuntime() as runtime:
            with pytest.raises(InvalidParameterError, match="dimension"):
                runtime.shuffle_stream(chunks(), ChunkRouter(2, "round_robin"))

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_one_dimensional_chunk_rejected(self, storage, tmp_path):
        # Chunks are (m, d) row blocks; a flat vector is refused before any
        # store exists, so nothing is spilled.
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match=r"\(m, d\)"):
                runtime.shuffle_stream(iter([np.zeros(6)]), ChunkRouter(2, "round_robin"))
            assert list(tmp_path.glob("*.npy")) == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
    )
    def test_reused_process_pool_does_not_accumulate_spill_mappings(
        self, medium_blobs
    ):
        # A long-lived caller-owned pool reused across many disk-tier runs
        # must not keep every run's (deleted) spill files mapped: a worker
        # holds on to at most the last run or two, however many ran.
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream

        def run_and_probe(backend, runs):
            for seed in range(runs):
                MapReduceKCenter(
                    4, ell=4, coreset_multiplier=2, random_state=seed, backend=backend
                ).fit_stream(ArrayStream(medium_blobs), chunk_size=128, storage="disk")
            with MapReduceRuntime(backend=backend) as runtime:
                output = runtime.execute_round({0: [None]}, _spill_mapping_probe)
            return output[0][1]

        backend = ProcessBackend(max_workers=1)
        try:
            after_few = run_and_probe(backend, 2)
            after_many = run_and_probe(backend, 10)
        finally:
            backend.close()
        # One run seals 2 * ell = 8 spill files (points and indices).
        assert after_many <= max(after_few, 2 * 8)


class TestStorageTiers:
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_partitions_reconstruct_input_on_every_tier(
        self, storage, medium_blobs, tmp_path
    ):
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(5, "round_robin")
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 97), router)
            assert runtime.stats.storage_tier == storage
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    def test_disk_tier_spills_and_accounts_bytes(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(4, "round_robin")
            runtime.shuffle_stream(_chunks(medium_blobs, 128), router)
            expected = medium_blobs.nbytes + medium_blobs.shape[0] * np.dtype(np.intp).itemsize
            assert runtime.stats.storage_tier == "disk"
            assert runtime.stats.spilled_bytes == expected
            # One .npy spill file per partition per column family.
            assert len(list(tmp_path.glob("*.npy"))) == 2 * 4
        # Runtime close deletes the spill files (the caller's dir survives).
        assert list(tmp_path.glob("*.npy")) == []
        assert tmp_path.exists()

    def test_memory_tiers_record_zero_spill(self, medium_blobs):
        with MapReduceRuntime(storage="memory") as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 128), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "memory"
            assert runtime.stats.spilled_bytes == 0

    def test_disk_partitions_pickle_by_path(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(3, "round_robin")
            part = runtime.shuffle_stream(_chunks(medium_blobs, 100), router)[0].points
            payload = pickle.dumps(part)
            # The handle is a path, not the rows.
            assert len(payload) < part.array.nbytes
            attached = pickle.loads(payload)
            np.testing.assert_array_equal(attached.array, part.array)
            assert not attached.array.flags.writeable

    def test_auto_spills_above_memory_budget(self, medium_blobs, tmp_path):
        n = medium_blobs.shape[0]
        with MapReduceRuntime(
            spill_dir=str(tmp_path), memory_budget_bytes=medium_blobs.nbytes // 2
        ) as runtime:
            router = ChunkRouter(4, "contiguous", n_total=n)
            runtime.shuffle_stream(_chunks(medium_blobs, 100), router)
            assert runtime.stats.storage_tier == "disk"
            assert runtime.stats.spilled_bytes > 0

    def test_auto_without_budget_keeps_backend_pairing(self, medium_blobs):
        with MapReduceRuntime(backend="serial") as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "memory"
        with MapReduceRuntime(backend="processes", max_workers=1) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "disk"

    def test_auto_spills_for_unsized_stream_under_budget(self, medium_blobs, tmp_path):
        # No length declared -> the footprint cannot be estimated -> spill.
        with MapReduceRuntime(
            spill_dir=str(tmp_path), memory_budget_bytes=10**9
        ) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "disk"

    def test_runtime_spill_dir_created_if_missing(self, medium_blobs, tmp_path):
        target = tmp_path / "nested" / "spills"
        with MapReduceRuntime(storage="disk", spill_dir=str(target)) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(3, "round_robin"))
            assert runtime.stats.storage_tier == "disk"
            assert len(list(target.glob("*.npy"))) == 2 * 3
        assert list(target.glob("*.npy")) == []

    def test_unknown_tier_rejected(self):
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream

        solver = MapReduceKCenter(2, ell=2, coreset_multiplier=2, random_state=0)
        for storage in ("tape", "shared"):
            with pytest.raises(InvalidParameterError, match="storage tier"):
                MapReduceRuntime(storage=storage)
            with pytest.raises(InvalidParameterError, match="storage tier"):
                solver.fit_stream(ArrayStream(np.zeros((8, 2))), storage=storage)

    def test_unknown_tier_rejected_before_consuming_the_stream(self):
        # A typo'd (or retired) tier must not cost a single-pass source its
        # first chunk: the runtime rejects it when constructed, before any
        # shuffle can start.
        for storage in ("dsik", "shared"):
            chunks = iter([np.ones((4, 2))])
            with pytest.raises(InvalidParameterError, match="storage tier"):
                with MapReduceRuntime(storage=storage) as runtime:
                    runtime.shuffle_stream(chunks, ChunkRouter(2, "round_robin"))
            assert next(chunks).shape == (4, 2)


class TestShuffleEdgeCases:
    """Routing edge cases must behave identically on every storage tier."""

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_final_chunk_smaller_than_batch(self, storage, medium_blobs, tmp_path):
        # 600 points in chunks of 97: the last chunk has 18 rows.
        assert medium_blobs.shape[0] % 97 != 0
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(4, "contiguous", n_total=medium_blobs.shape[0])
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 97), router)
            assert router.points_routed == medium_blobs.shape[0]
            np.testing.assert_array_equal(
                np.concatenate([p.points.array for p in parts]), medium_blobs
            )

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_chunk_larger_than_initial_capacity_grows(
        self, storage, medium_blobs, tmp_path
    ):
        # An unsized router sizes the buffers by the first chunk: a 4-row
        # first chunk then a 500-row one forces every tier through its
        # growth path.
        chunks = [medium_blobs[:4], medium_blobs[4:504], medium_blobs[504:]]
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            parts = runtime.shuffle_stream(iter(chunks), ChunkRouter(2, "round_robin"))
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_single_partition_ell_1(self, storage, medium_blobs, tmp_path):
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            (part,) = runtime.shuffle_stream(
                _chunks(medium_blobs, 128), ChunkRouter(1, "round_robin")
            )
            np.testing.assert_array_equal(part.points.array, medium_blobs)
            np.testing.assert_array_equal(
                part.indices.array, np.arange(medium_blobs.shape[0])
            )

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_dimension_mismatch_clear_error(self, storage, tmp_path):
        def chunks():
            yield np.zeros((5, 3))
            yield np.zeros((5, 2))

        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="dimension 2, expected 3"):
                runtime.shuffle_stream(chunks(), ChunkRouter(2, "round_robin"))
        # The failure released every partial buffer: no spill files remain.
        assert list(tmp_path.glob("*.npy")) == []


class TestNoOrphansOnFailure:
    """Mid-stream failures must not strand segments or spill files."""

    @staticmethod
    def _failing_chunks(points, fail_after=2):
        def chunks():
            for index, start in enumerate(range(0, points.shape[0], 100)):
                if index == fail_after:
                    yield np.zeros((5, points.shape[1] + 1))  # dimension mismatch
                yield points[start : start + 100]

        return chunks()

    def test_disk_tier_failure_leaves_no_spill_files(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError):
                runtime.shuffle_stream(
                    self._failing_chunks(medium_blobs), ChunkRouter(3, "round_robin")
                )
            # Released immediately on failure, before the runtime closes.
            assert list(tmp_path.glob("*.npy")) == []

    def test_overdelivery_failure_leaves_no_orphans(self, medium_blobs, tmp_path):
        router = ChunkRouter(2, "contiguous", n_total=medium_blobs.shape[0] - 50)
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="more than the declared"):
                runtime.shuffle_stream(_chunks(medium_blobs, 100), router)
            # Released immediately on failure, before the runtime closes.
            assert list(tmp_path.glob("*.npy")) == []

    def test_underdelivery_failure_leaves_no_spill_files(self, tmp_path):
        router = ChunkRouter(2, "contiguous", n_total=100)
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="declared"):
                runtime.shuffle_stream(_chunks(np.zeros((60, 2)), 30), router)
            assert list(tmp_path.glob("*.npy")) == []

    def test_failed_store_construction_leaves_no_spill_files(
        self, medium_blobs, tmp_path, monkeypatch
    ):
        # Building the 2 * ell disk stores can fail part way (e.g. EMFILE
        # under a low open-file limit); the stores built before the failure
        # must be closed and their files unlinked.
        built = 0
        original_init = DiskPartitionStore.__init__

        def init_failing_on_the_seventh(self, *args, **kwargs):
            nonlocal built
            built += 1
            if built == 7:
                raise OSError(24, "Too many open files")
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(DiskPartitionStore, "__init__", init_failing_on_the_seventh)
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(OSError, match="Too many open files"):
                runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(5, "round_robin"))
            assert built == 7
            assert list(tmp_path.iterdir()) == []

    def test_failed_seal_leaves_no_spill_files(self, medium_blobs, tmp_path, monkeypatch):
        # Sealing maps each finished file; when that fails part way (the
        # memmap's duplicated descriptor can hit EMFILE), the file being
        # sealed is unlinked with the rest.
        sealed = 0
        original = PartitionArray.from_spill_file.__func__

        def from_spill_file_failing_on_the_third(cls, *args, **kwargs):
            nonlocal sealed
            sealed += 1
            if sealed == 3:
                raise OSError(24, "Too many open files")
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            PartitionArray, "from_spill_file", classmethod(from_spill_file_failing_on_the_third)
        )
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(OSError, match="Too many open files"):
                runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(5, "round_robin"))
            assert sealed == 3
            assert list(tmp_path.iterdir()) == []

    def test_driver_fit_stream_failure_leaves_no_orphans(self, medium_blobs, tmp_path):
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        # The disk tier is both the explicit spill tier and the process
        # pool's "auto" tier: neither path may strand a spill file.
        for backend in ("serial", "processes"):
            solver = MapReduceKCenter(
                4, ell=4, coreset_multiplier=2, partitioning="round_robin",
                random_state=0, backend=backend, max_workers=2,
            )
            with pytest.raises(InvalidParameterError):
                solver.fit_stream(
                    GeneratorStream(self._failing_chunks(medium_blobs)),
                    chunk_size=100,
                    storage="disk",
                    spill_dir=str(tmp_path),
                )
        assert list(tmp_path.glob("*.npy")) == []


class TestRunOwnedSpillDir:
    """Without a ``spill_dir`` a run spills into a temporary directory it owns.

    That directory is the process pool's default spill location (its
    ``"auto"`` tier is the disk tier), so it must be gone once the run
    ends, whether the run succeeds or fails.
    """

    @staticmethod
    def _record_spill_dirs(monkeypatch):
        created = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            if os.path.basename(path).startswith("repro-spill-"):
                created.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        return created

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_removed_after_fit_stream(self, backend, medium_blobs, monkeypatch):
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream

        created = self._record_spill_dirs(monkeypatch)
        result = MapReduceKCenter(
            4, ell=4, coreset_multiplier=2, random_state=0, backend=backend,
            max_workers=2,
        ).fit_stream(ArrayStream(medium_blobs), chunk_size=128, storage="disk")
        assert result.stats.spilled_bytes > 0
        assert len(created) == 1
        assert not os.path.exists(created[0])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_removed_after_failed_fit_stream(self, backend, medium_blobs, monkeypatch):
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        created = self._record_spill_dirs(monkeypatch)
        solver = MapReduceKCenter(
            4, ell=4, coreset_multiplier=2, partitioning="round_robin",
            random_state=0, backend=backend, max_workers=2,
        )
        with pytest.raises(InvalidParameterError):
            solver.fit_stream(
                GeneratorStream(TestNoOrphansOnFailure._failing_chunks(medium_blobs)),
                chunk_size=100,
                storage="disk",
            )
        assert len(created) == 1
        assert not os.path.exists(created[0])


class TestEmptyStreams:
    def test_zero_length_hint_fit_stream_raises_empty(self):
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        solver = MapReduceKCenter(3, ell=2, coreset_multiplier=2, random_state=0)
        with pytest.raises(EmptyStreamError):
            solver.fit_stream(GeneratorStream(iter(()), length_hint=0))

    def test_unsized_empty_stream_fit_stream_raises_empty(self):
        from repro.core import MapReduceKCenterOutliers
        from repro.streaming import GeneratorStream

        solver = MapReduceKCenterOutliers(
            3, 2, ell=2, coreset_multiplier=2, partitioning="round_robin",
            random_state=0,
        )
        with pytest.raises(EmptyStreamError):
            solver.fit_stream(GeneratorStream(iter(())))
