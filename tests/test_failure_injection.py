"""Failure-injection tests: storage faults must surface cleanly.

A production operator's failure mode matters as much as its happy path:
a spill fault mid-run must raise a :class:`SpillError` (not corrupt
results), resources must stay reclaimable, and a fresh operator must
succeed afterwards.
"""

import itertools
import os
import random
import threading

import pytest

from repro.core.topk import HistogramTopK
from repro.errors import ReproError, SpillError
from repro.storage.pages import Page
from repro.storage.spill import (
    DiskSpillBackend,
    MemorySpillBackend,
    SpillFile,
    SpillManager,
)

KEY = lambda row: row[0]  # noqa: E731


class _FlakyFile(SpillFile):
    """In-memory spill file that fails after a set number of writes."""

    def __init__(self, file_id, stats, fail_after_pages, mode):
        super().__init__(file_id, stats)
        self._pages: list[Page] = []
        self._fail_after = fail_after_pages
        self._mode = mode

    def _store_page(self, page: Page) -> None:
        if self._mode == "write" and self._fail_after() :
            raise SpillError("injected write fault")
        self._pages.append(page)

    def _load_pages(self, start_page: int = 0, cutoff=None):
        for page in self._pages[start_page:]:
            if self._mode == "read" and self._fail_after():
                raise SpillError("injected read fault")
            yield page

    def _discard(self) -> None:
        self._pages = []


class FlakyBackend(MemorySpillBackend):
    """Backend injecting a fault on the N-th page operation."""

    def __init__(self, fail_on_operation: int, mode: str = "write"):
        self._countdown = itertools.count(1)
        self._fail_on = fail_on_operation
        self._mode = mode

    def _should_fail(self) -> bool:
        return next(self._countdown) == self._fail_on

    def create_file(self, file_id, stats):
        return _FlakyFile(file_id, stats, self._should_fail, self._mode)


def rows(count, seed=0):
    rng = random.Random(seed)
    return [(rng.random(),) for _ in range(count)]


class TestWriteFaults:
    def test_fault_surfaces_as_spill_error(self):
        manager = SpillManager(backend=FlakyBackend(fail_on_operation=3),
                               page_bytes=256)
        operator = HistogramTopK(KEY, 2_000, 200, spill_manager=manager)
        with pytest.raises(SpillError, match="injected write fault"):
            list(operator.execute(iter(rows(20_000))))

    def test_fault_is_a_repro_error(self):
        """Callers can catch everything from this library uniformly."""
        manager = SpillManager(backend=FlakyBackend(fail_on_operation=1),
                               page_bytes=256)
        operator = HistogramTopK(KEY, 2_000, 200, spill_manager=manager)
        with pytest.raises(ReproError):
            list(operator.execute(iter(rows(5_000))))

    def test_manager_still_closable_after_fault(self):
        manager = SpillManager(backend=FlakyBackend(fail_on_operation=2),
                               page_bytes=256)
        operator = HistogramTopK(KEY, 2_000, 200, spill_manager=manager)
        with pytest.raises(SpillError):
            list(operator.execute(iter(rows(20_000))))
        manager.close()  # must not raise

    def test_fresh_operator_recovers(self):
        data = rows(10_000, seed=1)
        manager = SpillManager(backend=FlakyBackend(fail_on_operation=2),
                               page_bytes=256)
        operator = HistogramTopK(KEY, 1_000, 200, spill_manager=manager)
        with pytest.raises(SpillError):
            list(operator.execute(iter(data)))
        retry = HistogramTopK(KEY, 1_000, 200)
        assert list(retry.execute(iter(data))) == sorted(data)[:1_000]


class TestReadFaults:
    def test_merge_phase_fault_surfaces(self):
        manager = SpillManager(
            backend=FlakyBackend(fail_on_operation=2, mode="read"),
            page_bytes=256)
        operator = HistogramTopK(KEY, 2_000, 200, spill_manager=manager)
        with pytest.raises(SpillError, match="injected read fault"):
            list(operator.execute(iter(rows(20_000))))

    def test_no_partial_output_before_fault_reaches_k(self):
        """If the merge dies, the consumer sees the exception rather
        than a silently truncated result set."""
        manager = SpillManager(
            backend=FlakyBackend(fail_on_operation=5, mode="read"),
            page_bytes=256)
        operator = HistogramTopK(KEY, 2_000, 200, spill_manager=manager)
        produced = []
        with pytest.raises(SpillError):
            for row in operator.execute(iter(rows(20_000))):
                produced.append(row)
        assert len(produced) < 2_000


class TestDiskSpillLifecycle:
    """The disk backend's temp files must never leak — not after clean
    use, not after faults, not after double delete — and it starts no
    thread."""

    def test_writer_fault_surfaces_as_spill_error(self, tmp_path):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        # Injected fault: the handle dies before the first write.
        spill_file._handle.close()
        with pytest.raises(SpillError, match="spill write failed"):
            spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
            spill_file.seal()
        manager.close()
        assert list(tmp_path.iterdir()) == []

    def test_seal_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        for i in range(10):
            spill_file.append_page(Page(rows=[(float(i),)], byte_size=32))
        spill_file.seal()
        assert set(threading.enumerate()) - before == set()
        read_back = [row for page in spill_file.pages()
                     for row in page.rows]
        assert read_back == [(float(i),) for i in range(10)]
        manager.close()

    def test_delete_and_close_are_idempotent(self, tmp_path):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
        spill_file.seal()
        spill_file.delete()
        spill_file.delete()  # second delete is a no-op
        manager.close()
        manager.close()  # and so is a second close
        backend.close()  # already closed through the manager
        assert list(tmp_path.iterdir()) == []

    def test_no_thread_or_file_leak_after_mid_spill_exception(
            self, tmp_path):
        before = set(threading.enumerate())

        def poisoned():
            yield from rows(5_000)
            raise ValueError("upstream failure")

        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=256)
        operator = HistogramTopK(KEY, 500, 100, spill_manager=manager)
        with pytest.raises(ValueError, match="upstream failure"):
            list(operator.execute(poisoned()))
        manager.close()
        assert set(threading.enumerate()) - before == set()
        assert list(tmp_path.iterdir()) == []

    def test_early_merge_abandon_releases_read_ahead(self, tmp_path,
                                                     monkeypatch):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        for i in range(50):
            spill_file.append_page(Page(rows=[(float(i),)], byte_size=32))
        spill_file.seal()
        opened = []
        real_open = open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", tracking_open)
        scan = spill_file.pages(prefetch=2)
        next(scan)
        assert [handle.closed for handle in opened] == [False]
        scan.close()  # abandon mid-scan: the generator's finally runs
        assert [handle.closed for handle in opened] == [True]
        manager.close()

    def test_unsealed_file_cleaned_up_by_backend_close(self, tmp_path):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
        # Never sealed — a query died mid-spill.
        manager.close()
        assert list(tmp_path.iterdir()) == []

    def test_failed_flush_raises_at_seal_and_never_at_close(self, tmp_path):
        """The buffered handle flushes when it closes.  A failed flush
        surfaces from ``seal()`` as a typed error; from ``delete()`` and
        ``close()``, which tear down unsealed files, it never does."""
        import errno

        class FullOnFlush:
            """Spill file handle whose close-time flush hits ENOSPC."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, blob):
                return self._handle.write(blob)

            def close(self):
                self._handle.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        sealed, unsealed = manager.create_file(), manager.create_file()
        for spill_file in (sealed, unsealed):
            spill_file._handle = FullOnFlush(spill_file._handle)
            spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
        with pytest.raises(SpillError, match="spill write failed") \
                as raised:
            sealed.seal()
        assert raised.value.__cause__.errno == errno.ENOSPC
        manager.close()  # deletes both files without raising
        assert list(tmp_path.iterdir()) == []

    def test_planning_leaves_no_spill_directory(self, tmp_path,
                                                monkeypatch):
        """Every spill manager the planner creates belongs to a plan, so
        releasing the plans removes every temp directory it made."""
        import tempfile

        from repro.engine.session import Database, release_plan_storage
        from repro.rows.schema import Column, ColumnType, Schema

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        schema = Schema([Column("S", ColumnType.STRING),
                         Column("K", ColumnType.FLOAT64)])
        rng = random.Random(4)
        table = [(f"s{rng.randrange(500):03d}", rng.random())
                 for _ in range(2_000)]
        for _ in range(2):
            db = Database(memory_rows=100)
            db.planner.spill_manager_factory = \
                lambda: SpillManager(backend=DiskSpillBackend())
            db.register_table("T", schema, table)
            for limit in (50, 300, 500):
                result = db.sql("SELECT * FROM T ORDER BY S, K "
                                f"LIMIT {limit}")
                assert result.rows == sorted(table)[:limit]
                release_plan_storage(result.plan)
        assert [entry.name for entry in tmp_path.iterdir()
                if entry.name.startswith("repro_spill_")] == []

    def test_disk_full_mid_query_surfaces_and_leaves_nothing(
            self, tmp_path, monkeypatch):
        """ENOSPC from a spill file's writes, mid-query: the query fails
        with a typed error and leaves no thread and no file."""
        import errno

        import repro.storage.spill as spill_module
        from repro.engine.session import Database
        from repro.rows.schema import Column, ColumnType, Schema

        writes = itertools.count()

        class FullDisk:
            """Spill file handle whose writes fail once two have landed."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, blob):
                if next(writes) >= 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self._handle.write(blob)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        init = spill_module._DiskSpillFile.__init__

        def filling(spill_file, *args):
            init(spill_file, *args)
            spill_file._handle = FullDisk(spill_file._handle)

        monkeypatch.setattr(spill_module._DiskSpillFile, "__init__",
                            filling)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        schema = Schema([Column("S", ColumnType.STRING),
                         Column("K", ColumnType.FLOAT64)])
        rng = random.Random(9)
        table = [(f"s{rng.randrange(500):03d}", rng.random())
                 for _ in range(20_000)]
        before = set(threading.enumerate())
        db = Database(memory_rows=200)
        db.planner.spill_manager_factory = lambda: SpillManager(
            backend=DiskSpillBackend(directory=str(spill_dir)))
        db.register_table("T", schema, table)
        with pytest.raises(SpillError, match="spill write failed") \
                as raised:
            db.sql("SELECT * FROM T ORDER BY S DESC, K LIMIT 1000")
        assert raised.value.__cause__.errno == errno.ENOSPC
        assert set(threading.enumerate()) - before == set()
        assert list(spill_dir.iterdir()) == []


def _spilling_database(spill_dir):
    """A table whose ``ORDER BY K, S LIMIT 300`` spills to ``spill_dir``."""
    from repro.engine.session import Database
    from repro.rows.schema import Column, ColumnType, Schema
    from repro.storage.codec import TypedPageCodec

    schema = Schema([Column("K", ColumnType.FLOAT64),
                     Column("S", ColumnType.STRING)])
    rng = random.Random(12)
    table = [(rng.random(), f"s{rng.randrange(500):03d}")
             for _ in range(5_000)]
    db = Database(memory_rows=100)
    db.planner.spill_manager_factory = lambda: SpillManager(
        backend=DiskSpillBackend(directory=str(spill_dir),
                                 codec=TypedPageCodec(schema)))
    db.register_table("T", schema, table)
    return db, table


class TestSpillFileCreation:
    """A spill file that cannot be created ends the query in a typed
    error naming the spill directory, with no file left behind."""

    SQL = "SELECT * FROM T ORDER BY K, S LIMIT 300"

    def test_spills_when_the_directory_exists(self, tmp_path):
        from repro.engine.session import release_plan_storage

        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        db, table = _spilling_database(spill_dir)
        result = db.sql(self.SQL)
        assert result.rows == sorted(table)[:300]
        assert result.stats.io.rows_spilled > 0
        release_plan_storage(result.plan)
        assert list(spill_dir.iterdir()) == []

    def test_missing_directory(self, tmp_path):
        import errno

        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        db, _table = _spilling_database(spill_dir)
        spill_dir.rmdir()
        with pytest.raises(SpillError, match=str(spill_dir)) as raised:
            db.sql(self.SQL)
        assert isinstance(raised.value.__cause__, FileNotFoundError)
        assert raised.value.__cause__.errno == errno.ENOENT
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("code", ["ENOSPC", "EMFILE"])
    def test_mkstemp_fails(self, tmp_path, monkeypatch, code):
        import errno
        import tempfile

        number = getattr(errno, code)
        created = itertools.count()
        mkstemp = tempfile.mkstemp

        def failing(*args, **kwargs):
            # The first files land; a later one finds the disk full or
            # the descriptors spent.
            if next(created) >= 3:
                raise OSError(number, os.strerror(number))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", failing)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        db, _table = _spilling_database(spill_dir)
        before = set(threading.enumerate())
        with pytest.raises(SpillError, match=str(spill_dir)) as raised:
            db.sql(self.SQL)
        assert raised.value.__cause__.errno == number
        assert set(threading.enumerate()) - before == set()
        assert list(spill_dir.iterdir()) == []

    def test_fdopen_failure_closes_the_descriptor(self, tmp_path,
                                                  monkeypatch):
        import errno
        import tempfile

        from repro.storage.stats import IOStats

        descriptors = []
        mkstemp = tempfile.mkstemp

        def recording(*args, **kwargs):
            fd, path = mkstemp(*args, **kwargs)
            descriptors.append(fd)
            return fd, path

        def failing(fd, *args, **kwargs):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(tempfile, "mkstemp", recording)
        monkeypatch.setattr(os, "fdopen", failing)
        backend = DiskSpillBackend(directory=str(tmp_path))
        with pytest.raises(SpillError, match="cannot open spill file"):
            backend.create_file(0, IOStats())
        monkeypatch.undo()
        with pytest.raises(OSError) as closed:
            os.fstat(descriptors[0])
        assert closed.value.errno == errno.EBADF
        backend.close()
        assert list(tmp_path.iterdir()) == []


class TestInputFaults:
    def test_exception_from_input_iterator_propagates(self):
        def poisoned():
            yield from rows(5_000)
            raise ValueError("upstream failure")

        operator = HistogramTopK(KEY, 1_000, 200)
        with pytest.raises(ValueError, match="upstream failure"):
            list(operator.execute(poisoned()))

    def test_operator_not_reusable_mid_stream_but_state_inspectable(self):
        def poisoned():
            yield from rows(5_000, seed=3)
            raise ValueError("upstream failure")

        operator = HistogramTopK(KEY, 1_000, 200)
        with pytest.raises(ValueError):
            list(operator.execute(poisoned()))
        # Diagnostics survive the failure.
        assert operator.stats.rows_consumed == 5_000
        assert operator.stats.io.rows_spilled > 0
