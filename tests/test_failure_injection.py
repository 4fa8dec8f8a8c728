"""Failure-injection tests: storage faults must surface cleanly.

A production operator's failure mode matters as much as its happy path:
a spill fault mid-run must raise a :class:`SpillError` (not corrupt
results), resources must stay reclaimable, and a fresh operator must
succeed afterwards.
"""

import collections
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
        # Injected fault: the backend's run-file handle dies before the
        # first write.
        spill_file._run_file.handle.close()
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
        """A scan opens nothing: it reads its pages by offset from the
        backend's one descriptor, keeps only its read-ahead window, and
        an abandoned scan reads no further."""
        from repro.storage.spill import READ_AHEAD_PAGES

        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        for i in range(50):
            spill_file.append_page(Page(rows=[(float(i),)], byte_size=32))
        spill_file.seal()
        reads, opened = [], []
        pread = os.pread

        def tracking_pread(fd, length, offset):
            reads.append((fd, offset))
            return pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", tracking_pread)
        monkeypatch.setattr("builtins.open",
                            lambda *args, **kwargs: opened.append(args))
        scan = spill_file.pages(prefetch=True)
        assert next(scan).rows == [(0.0,)]
        assert [offset for _fd, offset in reads] == \
            spill_file._page_offsets[:1 + READ_AHEAD_PAGES]
        assert {fd for fd, _offset in reads} == {spill_file._run_file.fd}
        scan.close()  # abandon mid-scan: the generator's finally runs
        assert scan.gi_frame is None
        assert len(reads) == 1 + READ_AHEAD_PAGES
        assert opened == []
        monkeypatch.undo()
        # The run itself is intact for a later scan.
        assert [row for page in spill_file.pages() for row in page.rows] \
            == [(float(i),) for i in range(50)]
        manager.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("join_method", ["merge", "hash"])
    def test_closing_a_join_early_leaves_nothing(self, tmp_path,
                                                 join_method):
        """A consumer that stops reading a join after a few rows and
        closes its iterator leaves no spill file and no open handle: the
        sort-merge join's side sorts have spilled to disk by then, and
        the hash join holds its build side in memory."""
        import gc
        import warnings

        from repro.engine.session import Database
        from repro.rows.schema import Column, ColumnType, Schema

        def schema(prefix, key):
            return Schema([Column(f"{prefix}ID", ColumnType.INT64),
                           Column(key, ColumnType.INT64),
                           Column(f"{prefix}V", ColumnType.INT64)])

        rng = random.Random(3)
        db = Database(memory_rows=100, join_method=join_method)
        db.planner.spill_manager_factory = lambda: SpillManager(
            backend=DiskSpillBackend(directory=str(tmp_path)))
        db.register_table("L", schema("L", "JK"),
                          [(i, rng.randrange(50), rng.randrange(10_000))
                           for i in range(5_000)])
        db.register_table("R", schema("R", "RK"),
                          [(j, rng.randrange(50), rng.randrange(100))
                           for j in range(400)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = db.plan("SELECT * FROM L JOIN R ON L.JK = R.RK").rows()
            assert len(list(itertools.islice(rows, 5))) == 5
            spilled = len(list(tmp_path.iterdir()))
            rows.close()
            assert list(tmp_path.iterdir()) == []
            del rows
            gc.collect()
        assert (spilled > 0) == (join_method == "merge")
        assert [warning for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []

    def test_unsealed_file_cleaned_up_by_backend_close(self, tmp_path):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        spill_file = manager.create_file()
        spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
        # Never sealed — a query died mid-spill.
        manager.close()
        assert list(tmp_path.iterdir()) == []

    def test_failed_flush_raises_at_seal_and_never_at_close(self, tmp_path):
        """``seal()`` flushes the backend's run-file handle.  A failed
        flush surfaces from ``seal()`` as a typed error; from
        ``delete()`` and ``close()``, which tear down unsealed runs and
        close the handle, it never does."""
        import errno

        class FullOnFlush:
            """Run-file handle whose flush, and close, hit ENOSPC."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, blob):
                return self._handle.write(blob)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def close(self):
                self._handle.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend, page_bytes=64)
        sealed, unsealed = manager.create_file(), manager.create_file()
        run_file = sealed._run_file
        assert unsealed._run_file is run_file
        run_file.handle = FullOnFlush(run_file.handle)
        for spill_file in (sealed, unsealed):
            spill_file.append_page(Page(rows=[(1.0,)], byte_size=32))
        with pytest.raises(SpillError, match="spill write failed") \
                as raised:
            sealed.seal()
        assert raised.value.__cause__.errno == errno.ENOSPC
        manager.close()  # deletes both runs and the file without raising
        assert run_file.handle._handle.closed
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
            """Run-file handle whose writes fail once two have landed."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, blob):
                if next(writes) >= 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self._handle.write(blob)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        init = spill_module._RunFile.__init__

        def filling(run_file, *args):
            init(run_file, *args)
            run_file.handle = FullDisk(run_file.handle)

        monkeypatch.setattr(spill_module._RunFile, "__init__", filling)
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


def _join_database(spill_dir, join_method):
    """``L`` (5,000 rows) and ``R`` (400 rows) sharing 50 join keys; every
    spill manager writes to ``spill_dir``."""
    from repro.engine.session import Database
    from repro.rows.schema import Column, ColumnType, Schema

    def schema(prefix, key):
        return Schema([Column(f"{prefix}ID", ColumnType.INT64),
                       Column(key, ColumnType.INT64),
                       Column(f"{prefix}V", ColumnType.INT64)])

    rng = random.Random(3)
    left = [(i, rng.randrange(50), rng.randrange(10_000))
            for i in range(5_000)]
    right = [(j, rng.randrange(50), rng.randrange(100)) for j in range(400)]
    db = Database(memory_rows=100, join_method=join_method)
    db.planner.spill_manager_factory = lambda: SpillManager(
        backend=DiskSpillBackend(directory=str(spill_dir)))
    db.register_table("L", schema("L", "JK"), left)
    db.register_table("R", schema("R", "RK"), right)
    return db, left, right


class TestSpillFileCreation:
    """A spill file that cannot be created ends the query in a typed
    error naming the spill directory, with no file left behind."""

    SQL = "SELECT * FROM T ORDER BY K, S LIMIT 300"
    JOIN_SQL = ("SELECT * FROM L JOIN R ON L.JK = R.RK "
                "ORDER BY LV, LID LIMIT {limit}")

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
        """Each spill backend creates one file.  A merge join's side
        sorts each have a backend: the first side's file lands and
        spills, the second side's finds the disk full or the
        descriptors spent."""
        import errno
        import tempfile

        number = getattr(errno, code)
        created = itertools.count()
        mkstemp = tempfile.mkstemp

        def failing(*args, **kwargs):
            if next(created) >= 1:
                raise OSError(number, os.strerror(number))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", failing)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        db, _left, _right = _join_database(spill_dir, "merge")
        before = set(threading.enumerate())
        with pytest.raises(SpillError, match=str(spill_dir)) as raised:
            db.sql(self.JOIN_SQL.format(limit=300))
        assert raised.value.__cause__.errno == number
        assert next(created) == 2  # one file landed before the failure
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


class TestQueriesReleaseSpillStorage:
    """``Database.sql`` releases a query's spill storage before it
    returns: a disk backend's directory is empty after every query, no
    file handle is left for the collector to find, and a held result
    pins no run pages."""

    @staticmethod
    def _join_oracle(left, right, limit):
        """The ``(LV, LID)`` keys of the join's first ``limit`` rows."""
        matches = collections.Counter(row[1] for row in right)
        keys = sorted((lrow[2], lrow[0]) for lrow in left
                      for _match in range(matches[lrow[1]]))
        return keys[:limit]

    @pytest.mark.parametrize("query", [
        "topk", "group_by",
        *(f"join-{method}-{limit}" for method in ("hash", "merge")
          for limit in (300, 2_000))])
    def test_spill_directory_is_empty_after_each_query(self, tmp_path,
                                                        query):
        import gc
        import warnings

        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _repeat in range(2):
                if query == "topk":
                    db, table = _spilling_database(spill_dir)
                    result = db.sql(TestSpillFileCreation.SQL)
                    assert result.rows == sorted(table)[:300]
                elif query == "group_by":
                    db, table = _spilling_database(spill_dir)
                    result = db.sql(
                        "SELECT S, COUNT(*) FROM T GROUP BY S")
                    counts = collections.Counter(row[1] for row in table)
                    assert sorted(result.rows) == sorted(counts.items())
                else:
                    _join, method, limit = query.split("-")
                    db, left, right = _join_database(spill_dir, method)
                    result = db.sql(TestSpillFileCreation.JOIN_SQL.format(
                        limit=limit))
                    assert [(row[2], row[0]) for row in result.rows] == \
                        self._join_oracle(left, right, int(limit))
                assert result.stats.io.rows_spilled > 0
                assert list(spill_dir.iterdir()) == []
                del result
                gc.collect()
        assert [warning for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []

    def test_a_held_result_keeps_no_run_pages(self):
        """On the in-memory backend a run's pages are process memory:
        once ``db.sql`` returns, releasing the plan's storage again
        frees nothing more."""
        import tracemalloc

        from repro.engine.session import Database, release_plan_storage
        from repro.rows.schema import Column, ColumnType, Schema

        schema = Schema([Column("A", ColumnType.INT64),
                         Column("B", ColumnType.STRING),
                         Column("C", ColumnType.FLOAT64)])
        rng = random.Random(5)
        table = [(rng.randrange(8), f"customer-{rng.randrange(64):02d}",
                  rng.random()) for _ in range(20_000)]
        db = Database(memory_rows=500)
        db.register_table("C3", schema, table)
        sql = "SELECT * FROM C3 ORDER BY B DESC, A, C DESC LIMIT 2000"
        db.sql(sql)  # compiles the key codec outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = db.sql(sql)
            held = tracemalloc.get_traced_memory()[0] - before
            release_plan_storage(result.plan)
            released = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.stats.io.rows_spilled > 5_000
        assert held - released < 0.05 * held


class TestShortWrites:
    """The backend appends pages with raw writes to its one file: a
    short write is continued, and a write that makes no progress or
    fails ends in a typed error."""

    class Trickle:
        """Run-file handle whose writes land at most ``step`` bytes,
        then ``fail`` (an exception, or 0 for a write landing nothing)
        once ``budget`` bytes have landed."""

        def __init__(self, handle, step=7, budget=None, fail=None):
            self._handle = handle
            self._step = step
            self._budget = budget
            self._fail = fail
            self.landed = 0

        def write(self, view):
            if self._budget is not None and self.landed >= self._budget:
                if isinstance(self._fail, BaseException):
                    raise self._fail
                return self._fail
            written = self._handle.write(view[:self._step])
            self.landed += written
            return written

        def __getattr__(self, name):
            return getattr(self._handle, name)

    @staticmethod
    def _pages(count, first=0):
        return [Page(rows=[(float(i), "x" * i) for i in range(first + j,
                                                              first + j + 3)],
                     byte_size=96) for j in range(count)]

    def test_short_writes_read_back_identical(self, tmp_path):
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend)
        first = manager.create_file()
        run_file = first._run_file
        run_file.handle = self.Trickle(run_file.handle)
        second = manager.create_file()
        pages = self._pages(6), self._pages(5, first=40)
        for spill_file, written in zip((first, second), pages):
            for page in written:
                spill_file.append_page(page)
            spill_file.seal()
        assert run_file.handle.landed == run_file.end > 6 * 11 * 7
        for spill_file, written in zip((first, second), pages):
            assert [page.rows for page in spill_file.pages()] == \
                [page.rows for page in written]
            assert spill_file.read_page(2).rows == written[2].rows
        manager.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", ["zero", "ENOSPC"])
    def test_a_failed_write_is_a_spill_error(self, tmp_path, fault):
        """The failing write lands 7 bytes, then none; the run file's
        end counts them, so a run appended after the fault still reads
        back."""
        import errno

        failure = (0 if fault == "zero"
                   else OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        backend = DiskSpillBackend(directory=str(tmp_path))
        manager = SpillManager(backend=backend)
        broken = manager.create_file()
        run_file = broken._run_file
        handle = run_file.handle
        run_file.handle = self.Trickle(handle, step=7, budget=7,
                                       fail=failure)
        with pytest.raises(SpillError, match="spill write failed") \
                as raised:
            broken.append_page(self._pages(1)[0])
        cause = raised.value.__cause__
        assert isinstance(cause, OSError)
        assert cause.errno == (errno.EIO if fault == "zero"
                               else errno.ENOSPC)
        assert run_file.end == 7
        run_file.handle = handle
        after = manager.create_file()
        written = self._pages(2, first=10)
        for page in written:
            after.append_page(page)
        after.seal()
        assert [page.rows for page in after.pages()] == \
            [page.rows for page in written]
        manager.close()
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
