"""Tests for spill files and the spill manager (both backends)."""

import importlib
import os
import threading

import pytest

from repro.errors import SpillError
from repro.storage.pages import Page
from repro.storage.stats import IOStats
from repro.storage.spill import (
    DiskSpillBackend,
    MemorySpillBackend,
    SpillManager,
)


@pytest.fixture(params=["memory", "disk"])
def manager(request, tmp_path):
    if request.param == "memory":
        manager = SpillManager(backend=MemorySpillBackend())
    else:
        manager = SpillManager(backend=DiskSpillBackend(str(tmp_path)))
    yield manager
    manager.close()


def _page(rows):
    return Page(rows=list(rows), byte_size=16 * len(rows))


class TestSpillFile:
    def test_write_seal_read_round_trip(self, manager):
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,), (2,)]))
        spill_file.append_page(_page([(3,)]))
        spill_file.seal()
        assert list(spill_file.rows()) == [(1,), (2,), (3,)]

    def test_read_before_seal_rejected(self, manager):
        spill_file = manager.create_file()
        with pytest.raises(SpillError, match="sealed"):
            list(spill_file.pages())

    def test_append_after_seal_rejected(self, manager):
        spill_file = manager.create_file()
        spill_file.seal()
        with pytest.raises(SpillError):
            spill_file.append_page(_page([(1,)]))

    def test_rereadable(self, manager):
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,)]))
        spill_file.seal()
        assert list(spill_file.rows()) == list(spill_file.rows())

    def test_metadata_counters(self, manager):
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,), (2,), (3,)]))
        spill_file.seal()
        assert spill_file.page_count == 1
        assert spill_file.row_count == 3
        assert spill_file.byte_size == 48


class TestAccounting:
    def test_write_stats(self, manager):
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,), (2,)]))
        spill_file.seal()
        assert manager.stats.rows_spilled == 2
        assert manager.stats.write_requests == 1
        assert manager.stats.bytes_written == 32

    def test_read_stats(self, manager):
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,), (2,)]))
        spill_file.seal()
        list(spill_file.rows())
        assert manager.stats.rows_read == 2
        assert manager.stats.read_requests == 1

    def test_delete_counts_run_deletion(self, manager):
        spill_file = manager.create_file()
        spill_file.seal()
        manager.delete_file(spill_file)
        assert manager.stats.runs_deleted == 1


class TestManager:
    def test_file_ids_increase(self, manager):
        first = manager.create_file()
        second = manager.create_file()
        assert second.file_id == first.file_id + 1

    def test_context_manager_closes(self, tmp_path):
        with SpillManager(backend=DiskSpillBackend(str(tmp_path))) as manager:
            spill_file = manager.create_file()
            spill_file.append_page(_page([(1,)]))
            spill_file.seal()
        assert os.listdir(tmp_path) == []

    def test_page_builder_uses_manager_geometry(self):
        manager = SpillManager(page_bytes=128,
                               row_size=lambda _row: 64)
        builder = manager.new_page_builder()
        assert builder.add((1,)) is None
        assert builder.add((2,)) is not None


class TestDiskBackendIntegrity:
    def test_truncated_file_detected(self, tmp_path):
        manager = SpillManager(backend=DiskSpillBackend(str(tmp_path)))
        spill_file = manager.create_file()
        spill_file.append_page(_page([(1,), (2,)]))
        spill_file.seal()
        # Corrupt: chop off the tail of the file.
        path = spill_file._path
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        with pytest.raises(SpillError, match="truncated"):
            list(spill_file.rows())
        manager.close()

    def test_own_directory_cleanup(self):
        backend = DiskSpillBackend()
        directory = backend._directory
        manager = SpillManager(backend=backend)
        spill_file = manager.create_file()
        spill_file.seal()
        manager.close()
        assert not os.path.isdir(directory)


class TestDiskBackendThreads:
    """The disk backend does its I/O on the calling thread."""

    def test_large_file_starts_no_thread(self, tmp_path, monkeypatch):
        """256 pages of ~1 KiB rows are written, sealed and read back
        with read-ahead, and no thread is ever started."""
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        pad = "x" * 1024
        manager = SpillManager(backend=DiskSpillBackend(str(tmp_path)))
        spill_file = manager.create_file()
        for i in range(256):
            spill_file.append_page(_page([(i, pad)]))
        spill_file.seal()
        read_back = [row for page in spill_file.pages(prefetch=True)
                     for row in page.rows]
        assert read_back == [(i, pad) for i in range(256)]
        assert started == []
        manager.close()
        assert list(tmp_path.iterdir()) == []

    def test_sealed_files_hold_no_writer_state(self, tmp_path):
        """A sealed file keeps its page index and path, not an I/O
        buffer or writer: 250 one-page files hold under 2 KiB each."""
        import tracemalloc

        files = 250
        manager = SpillManager(backend=DiskSpillBackend(str(tmp_path)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(files):
                spill_file = manager.create_file()
                spill_file.append_page(_page([(i,)]))
                spill_file.seal()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        manager.close()
        assert held / files < 2048


class TestDiskBackendCleanup:
    def test_close_removes_unsealed_and_undeleted_files(self, tmp_path):
        """Error-path hygiene: files abandoned mid-write (never sealed) or
        never consumed (sealed but not deleted) all go on close."""
        backend = DiskSpillBackend(str(tmp_path))
        manager = SpillManager(backend=backend)
        unsealed = manager.create_file()
        unsealed.append_page(_page([(1,)]))
        sealed = manager.create_file()
        sealed.append_page(_page([(2,)]))
        sealed.seal()
        assert [p for p in tmp_path.rglob("*") if p.is_file()]
        manager.close()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_close_is_idempotent(self, tmp_path):
        backend = DiskSpillBackend(str(tmp_path))
        manager = SpillManager(backend=backend)
        manager.create_file().seal()
        manager.close()
        manager.close()

    def test_create_after_close_rejected(self, tmp_path):
        backend = DiskSpillBackend(str(tmp_path))
        backend.close()
        with pytest.raises(SpillError):
            backend.create_file(0, IOStats())

    def test_backend_context_manager(self, tmp_path):
        with DiskSpillBackend(str(tmp_path)) as backend:
            backend.create_file(0, IOStats())
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_spill_layer_has_no_ablation_switches(tmp_path):
    """Writes are always on the calling thread, run files always typed,
    the merge read-ahead depth is one constant, vector runs stay in
    memory and no memory-reservation API is left: the old switches are
    gone."""
    from repro.core.topk import HistogramTopK
    from repro.engine.operators import Table, TableScan, VectorizedTopK
    from repro.rows.schema import Column, ColumnType, Schema
    from repro.rows.sortspec import SortSpec
    from repro.sorting.merge import Merger
    from repro.vectorized.runs import VectorRunStore

    with pytest.raises(TypeError):
        HistogramTopK(lambda row: row, 5, 10, merge_read_ahead=2)
    with pytest.raises(TypeError):
        Merger(lambda row: row, read_ahead=2)
    with pytest.raises(TypeError):
        DiskSpillBackend(str(tmp_path), background_writes=False)
    with pytest.raises(TypeError):
        VectorRunStore(storage=None)
    schema = Schema([Column("K", ColumnType.FLOAT64)])
    scan = TableScan(Table("T", schema, [(1.0,)]))
    spec = SortSpec(schema, ["K"])
    with pytest.raises(TypeError):
        VectorizedTopK(scan, spec, k=5, store=None)
    with pytest.raises(TypeError):
        VectorizedTopK(scan, spec, k=5, buckets_per_run=50)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".memory", package="repro")
