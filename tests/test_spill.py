"""Tests for spill files and the spill manager (both backends)."""

import importlib
import os
import threading

import pytest

from repro.errors import SpillError
from repro.rows.lineitem import LINEITEM_SCHEMA, generate_lineitem
from repro.rows.sortspec import SortSpec
from repro.sorting.keycodec import compile_keycodec
from repro.storage.codec import TypedPageCodec
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

    @pytest.mark.parametrize("scan", ["plain", "zone_map_read",
                                      "zone_map_skip"])
    def test_every_flipped_bit_raises_or_reads_back_correctly(
            self, tmp_path, scan):
        """A one-bit flip anywhere in a disk page's frame or payload ends
        in ``SpillError`` or in the scan's uncorrupted result, never in
        wrong rows — also for a scan that decides from the zone map
        alone to skip the page."""
        encode = compile_keycodec(SortSpec(
            LINEITEM_SCHEMA, ["L_ORDERKEY", "L_LINENUMBER"])).encode
        rows = sorted(generate_lineitem(6, seed=5), key=encode)
        keys = [encode(row) for row in rows]
        cutoff = {"plain": None, "zone_map_read": keys[-1],
                  "zone_map_skip": b"\x00"}[scan]
        # The frame is a u64 length, the payload's CRC and the zone-map
        # window's CRC; a scan reads only the checksums it needs.
        unread = {"plain": range(12, 16), "zone_map_read": range(0),
                  "zone_map_skip": range(8, 12)}[scan]
        codec = TypedPageCodec(LINEITEM_SCHEMA, zone_maps=cutoff is not None)
        with DiskSpillBackend(str(tmp_path), codec=codec) as backend:
            spill_file = SpillManager(backend=backend).create_file()
            spill_file.append_page(Page(rows=rows, byte_size=96, keys=keys))
            spill_file.seal()

            def read() -> list:
                return [page.rows for page in spill_file.pages(cutoff=cutoff)]

            expected = read()
            assert expected == ([] if scan == "zone_map_skip" else [rows])
            with open(spill_file._path, "rb") as handle:
                original = handle.read()
            for position in range(len(original)):
                for bit in range(8):
                    corrupted = bytearray(original)
                    corrupted[position] ^= 1 << bit
                    with open(spill_file._path, "wb") as handle:
                        handle.write(corrupted)
                    try:
                        result = read()
                    except SpillError:
                        continue
                    # A CRC-32 catches every one-bit error in what it
                    # covers, so only an unread checksum may change.
                    assert position in unread, (position, bit)
                    assert result == expected

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


class TestRunsShareOneFile:
    """A disk backend keeps every run in one append-only file; each run
    is a page table of byte ranges in it."""

    SPEC = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY", "L_LINENUMBER"])

    def _pages(self, rows, per_page):
        encode = compile_keycodec(self.SPEC).encode
        rows = sorted(rows, key=encode)
        return [Page(rows=rows[i:i + per_page], byte_size=96,
                     keys=[encode(row) for row in rows[i:i + per_page]])
                for i in range(0, len(rows), per_page)]

    def test_alternating_runs_read_back_identical(self, tmp_path):
        codec = TypedPageCodec(LINEITEM_SCHEMA, zone_maps=True)
        rows = list(generate_lineitem(80, seed=11))
        first = self._pages(rows[:40], 4)
        second = self._pages(rows[40:], 4)
        with DiskSpillBackend(str(tmp_path), codec=codec) as backend:
            manager = SpillManager(backend=backend)
            runs = manager.create_file(), manager.create_file()
            for pair in zip(first, second):
                for spill_file, page in zip(runs, pair):
                    spill_file.append_page(page)
            for spill_file in runs:
                spill_file.seal()
            assert runs[0]._run_file is runs[1]._run_file
            assert len(os.listdir(tmp_path)) == 1
            # The runs' pages alternate in the file.
            offsets = sorted((offset, run) for run, spill_file
                             in enumerate(runs)
                             for offset in spill_file._page_offsets)
            assert [run for _offset, run in offsets] == [0, 1] * 10
            for spill_file, pages in zip(runs, (first, second)):
                assert [page.rows for page in spill_file.pages()] == \
                    [page.rows for page in pages]
                assert [spill_file.read_page(i).rows
                        for i in (9, 0, 4)] == \
                    [pages[i].rows for i in (9, 0, 4)]
            # A zone-map skip charges the skipped pages' own payloads,
            # not the other run's pages between them.
            stats = manager.stats
            kept = [page.rows
                    for page in runs[0].pages(cutoff=first[6].keys[0])]
            assert kept == [page.rows for page in first[:7]]
            assert stats.pages_skipped_zone_map == 3
            assert stats.bytes_skipped_decode == sum(
                len(codec.encode(page)) for page in first[7:])
        assert list(tmp_path.iterdir()) == []

    def test_last_live_run_closes_the_file(self, tmp_path):
        """Deleting the backend's last live run closes and unlinks its
        file; the next run opens a fresh one."""
        backend = DiskSpillBackend(str(tmp_path))
        manager = SpillManager(backend=backend)
        first, second = manager.create_file(), manager.create_file()
        for spill_file in (first, second):
            spill_file.append_page(_page([(1,)]))
            spill_file.seal()
        run_file = first._run_file
        manager.delete_file(first)
        assert not run_file.closed and len(os.listdir(tmp_path)) == 1
        assert list(second.rows()) == [(1,)]
        manager.delete_file(second)
        assert run_file.closed and os.listdir(tmp_path) == []
        third = manager.create_file()
        assert third._run_file is not run_file
        third.append_page(_page([(2,)]))
        third.seal()
        assert list(third.rows()) == [(2,)]
        with pytest.raises(SpillError, match="released"):
            list(second.rows())
        manager.close()
        assert os.listdir(tmp_path) == []

    def test_an_unreleased_backend_warns(self, tmp_path):
        """A backend dropped with a live run and never closed is a leak:
        collecting its file handle raises a ``ResourceWarning``."""
        import gc
        import warnings

        backend = DiskSpillBackend(str(tmp_path))
        spill_file = backend.create_file(0, IOStats())
        spill_file.append_page(_page([(1,)]))
        path, fd = spill_file._path, spill_file._run_file.fd
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del backend, spill_file
            gc.collect()
        assert [warning.category for warning in caught
                if f"name={fd} " in str(warning.message)] == \
            [ResourceWarning]
        os.unlink(path)

    def test_fan_in_2_external_sort_matches_the_memory_backend(
            self, tmp_path, monkeypatch):
        """Every merge step writes its output run into the file its
        input runs are read from."""
        from repro.sorting.external_sort import ExternalSort

        rows = list(generate_lineitem(3_000, seed=4))
        created = []
        create_file = DiskSpillBackend.create_file

        def recording(backend, file_id, stats):
            spill_file = create_file(backend, file_id, stats)
            created.append(spill_file)
            return spill_file

        monkeypatch.setattr(DiskSpillBackend, "create_file", recording)

        def run(backend):
            with SpillManager(backend=backend,
                              page_bytes=4_096) as manager:
                sort = ExternalSort(self.SPEC, 200, manager,
                                    run_generation="quicksort", fan_in=2)
                output = list(sort.sort(iter(rows)))
                stats, io = sort.stats, manager.stats
                counters = (stats.full_key_comparisons,
                            stats.code_comparisons, stats.rows_consumed,
                            io.rows_spilled, io.runs_written,
                            io.runs_deleted, io.rows_read,
                            io.read_requests, io.write_requests,
                            io.bytes_written, io.bytes_read)
            return output, counters

        expected = run(MemorySpillBackend())
        disk = run(DiskSpillBackend(
            str(tmp_path), codec=TypedPageCodec(LINEITEM_SCHEMA)))
        assert disk == expected
        assert [self.SPEC.key(row) for row in disk[0]] == \
            sorted(map(self.SPEC.key, rows))
        # 15 loads and 13 merge steps (15 -> 8 -> 4 -> 2 runs), all in
        # one file.
        assert len(created) == disk[1][4] == 28
        assert len({spill_file._run_file for spill_file in created}) == 1
        assert list(tmp_path.iterdir()) == []


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
