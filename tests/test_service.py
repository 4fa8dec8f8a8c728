"""End-to-end tests of the concurrent query service."""

import random
import sys
import threading
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine.session import Database
from repro.errors import (
    ConfigurationError,
    KeyEncodingError,
    QueryTimeoutError,
    ServiceOverloadedError,
)
from repro.rows.schema import Column, ColumnType, Schema
from repro.service import QueryService, ResultCache
from repro.storage.spill import DiskSpillBackend, SpillManager

SCHEMA = Schema([Column("id", ColumnType.INT64),
                 Column("score", ColumnType.FLOAT64),
                 Column("seg", ColumnType.STRING)])


def make_rows(count, seed=7):
    rng = random.Random(seed)
    return [(i, rng.random(), rng.choice("abcde")) for i in range(count)]


def make_database(rows=None, memory_rows=256):
    db = Database(memory_rows=memory_rows)
    db.register_table("events", SCHEMA, rows or make_rows(20_000))
    return db


def gated_database(release, rows=1000):
    """A database whose every scan blocks until ``release`` is set."""
    data = make_rows(rows)

    def gated_source():
        release.wait(timeout=10)
        return iter(data)

    db = Database(memory_rows=256)
    db.register_table("events", SCHEMA, gated_source, row_count=rows)
    return db


OUTCOMES = ("submitted", "ok", "rejected", "timeout", "error")


def outcome_counts(service):
    """The service's ``service.queries.*`` counters by outcome."""
    snap = service.metrics_snapshot()
    return {name: snap[f"service.queries.{name}"]["value"]
            for name in OUTCOMES}


def counts(**nonzero):
    """An :func:`outcome_counts` value: ``nonzero``, every other 0."""
    return {name: nonzero.get(name, 0) for name in OUTCOMES}


class TestConfiguration:
    def test_invalid_parameters(self):
        db = make_database(rows=[(0, 0.0, "a")])
        with pytest.raises(ConfigurationError):
            QueryService(db, workers=0)
        with pytest.raises(ConfigurationError):
            QueryService(db, queue_depth=-1)

    def test_context_manager_shuts_down(self):
        db = make_database(rows=[(0, 0.5, "a")])
        with QueryService(db, workers=1) as service:
            service.execute("SELECT id FROM events ORDER BY score LIMIT 1")
        with pytest.raises(ServiceOverloadedError):
            service.submit("SELECT id FROM events ORDER BY score LIMIT 1")


class TestConcurrency:
    def test_concurrent_stress_identical_to_serial(self):
        """8 worker threads x 5 queries each, byte-identical to serial."""
        db = make_database()
        limits = (5, 17, 33, 64, 100, 250, 500, 1000)
        queries = [
            f"SELECT id, score FROM events ORDER BY score LIMIT {k}"
            for k in limits
        ]
        serial = {q: list(db.sql(q).rows) for q in queries}

        # No caching: every execution must do (and agree on) the work.
        service = QueryService(db, workers=8, queue_depth=64,
                               cache=ResultCache(max_results=0,
                                                 max_scopes=0))
        failures = []

        def client(query):
            try:
                for _ in range(5):
                    result = service.execute(query)
                    if result.rows != serial[query]:
                        failures.append(query)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(f"{query}: {exc!r}")

        threads = [threading.Thread(target=client, args=(q,))
                   for q in queries]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.shutdown()

        assert failures == []
        assert outcome_counts(service) == counts(submitted=40, ok=40)

    def test_governor_shrinks_under_concurrent_pressure(self):
        rows = make_rows(20_000)
        barrier = threading.Barrier(4)

        def gated_source():
            barrier.wait(timeout=10)  # hold queries concurrent
            return iter(rows)

        db = Database(memory_rows=256)
        db.register_table("events", SCHEMA, gated_source,
                          row_count=len(rows))
        # Budget covers only one full request; concurrent peers shrink.
        service = QueryService(db, workers=4, total_memory_rows=256,
                               cache=ResultCache(max_results=0,
                                                 max_scopes=0))
        queries = ["SELECT id, score FROM events ORDER BY score LIMIT 100"
                   ] * 4
        tickets = [service.submit(q) for q in queries]
        results = [t.result(timeout=30) for t in tickets]
        service.shutdown()

        assert all(r.rows == results[0].rows for r in results)
        shrunk = [r for r in results if r.stats.lease_shrunk]
        assert shrunk, "expected at least one shrunk lease"
        assert all(r.stats.granted_rows >= service.governor.min_lease_rows
                   for r in results)


class TestAdmissionControl:
    def test_rejects_when_saturated(self):
        release = threading.Event()
        service = QueryService(gated_database(release), workers=1,
                               queue_depth=1)
        sql = "SELECT id FROM events ORDER BY score LIMIT 5"
        try:
            running = service.submit(sql)   # occupies the worker
            queued = service.submit(sql)    # occupies the queue slot
            with pytest.raises(ServiceOverloadedError):
                service.submit(sql)         # nothing left: rejected
            assert outcome_counts(service) == counts(submitted=3,
                                                     rejected=1)
        finally:
            release.set()
            service.shutdown()
        assert len(running.result(timeout=10).rows) == 5
        assert len(queued.result(timeout=10).rows) == 5
        # Slots were released: admission works again post-drain... except
        # the service is shut down, which is its own rejection.
        with pytest.raises(ServiceOverloadedError):
            service.submit(sql)


class TestDeadlines:
    def test_deadline_timeout_surfaces_to_caller(self):
        release = threading.Event()
        service = QueryService(gated_database(release), workers=1)
        ticket = service.submit("SELECT id FROM events ORDER BY score "
                                "LIMIT 5", deadline=0.05)
        with pytest.raises(QueryTimeoutError):
            ticket.result()
        release.set()
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=1, timeout=1)

    def test_queued_past_deadline_is_abandoned(self):
        release = threading.Event()
        service = QueryService(gated_database(release), workers=1,
                               queue_depth=2, default_deadline=0.05)
        first = service.submit("SELECT id FROM events ORDER BY score "
                               "LIMIT 5", deadline=30)
        # Queued behind the blocked worker; its (default) deadline expires
        # while waiting, so the worker refuses to execute it at queue exit.
        stale = service.submit("SELECT id FROM events ORDER BY score "
                               "LIMIT 7")
        time.sleep(0.1)
        release.set()
        assert len(first.result(timeout=10).rows) == 5
        with pytest.raises(QueryTimeoutError):
            stale.result(timeout=10)
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=2, ok=1,
                                                 timeout=1)

    def test_overrun_counts_one_timeout(self):
        """Every wait on an overrun ticket raises, but the query counts
        one timeout, and its late completion counts nothing."""
        release = threading.Event()
        service = QueryService(gated_database(release), workers=1)
        ticket = service.submit("SELECT id FROM events ORDER BY score "
                                "LIMIT 5", deadline=0.05)
        for _ in range(2):
            with pytest.raises(QueryTimeoutError, match="deadline"):
                ticket.result()
        release.set()
        service.shutdown()
        assert ticket.done()
        with pytest.raises(QueryTimeoutError, match="deadline"):
            ticket.result()
        assert outcome_counts(service) == counts(submitted=1, timeout=1)

    def test_short_wait_settles_nothing(self):
        """A caller's wait shorter than the deadline (here: no deadline)
        raises naming the wait; the query still returns and counts ok."""
        release = threading.Event()
        service = QueryService(gated_database(release), workers=1)
        ticket = service.submit("SELECT id FROM events ORDER BY score "
                                "LIMIT 5")
        with pytest.raises(QueryTimeoutError, match="0.05s wait"):
            ticket.result(timeout=0.05)
        release.set()
        assert len(ticket.result(timeout=10).rows) == 5
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=1, ok=1)

    def test_deadline_race_settles_each_query_once(self):
        """Two callers per ticket wait while deadlines expire in the
        queue, mid-run and after the run.  After the drain each ticket
        either returns its rows or raises a timeout, and the counters
        agree with what the tickets show."""
        rng = random.Random(3)
        service = QueryService(make_database(), workers=4, queue_depth=64,
                               cache=ResultCache(max_results=0,
                                                 max_scopes=0))

        def wait(ticket):
            try:
                ticket.result()
            except QueryTimeoutError:
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tickets, callers = [], []
            for _ in range(24):
                tickets.append(service.submit(
                    "SELECT id FROM events ORDER BY score LIMIT 1000",
                    deadline=rng.uniform(0.01, 0.4)))
                for _ in range(2):
                    callers.append(threading.Thread(target=wait,
                                                    args=(tickets[-1],)))
                    callers[-1].start()
            for caller in callers:
                caller.join(timeout=30)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        service.shutdown()
        returned = 0
        for ticket in tickets:
            try:
                returned += len(ticket.result().rows) == 1000
            except QueryTimeoutError:
                pass
        assert outcome_counts(service) == counts(
            submitted=24, ok=returned, timeout=24 - returned)


class TestCaching:
    SQL = "SELECT id, score FROM events ORDER BY score LIMIT 1000"

    def test_exact_hit_served_without_execution(self):
        db = make_database()
        service = QueryService(db, workers=2)
        first = service.execute(self.SQL)
        second = service.execute(self.SQL)
        service.shutdown()

        assert not first.from_cache
        assert second.from_cache
        assert second.stats.cache == "exact"
        assert second.rows == first.rows
        assert second.operator_stats.rows_consumed == 0  # no engine work
        snap = service.metrics_snapshot()
        assert snap["service.query.execution_seconds"]["count"] == 1

    def test_exact_hit_normalizes_whitespace_and_case(self):
        db = make_database()
        service = QueryService(db, workers=2)
        first = service.execute(self.SQL)
        second = service.execute(
            "select id,  score from EVENTS order by score asc limit 1000")
        service.shutdown()
        assert second.from_cache
        assert second.rows == first.rows

    def test_cutoff_reuse_reduces_spilling(self):
        """The acceptance criterion: a repeated identical query re-executed
        with a cached cutoff spills strictly fewer rows."""
        db = make_database()
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0))
        first = service.execute(self.SQL)
        second = service.execute(self.SQL)
        service.shutdown()

        assert second.rows == first.rows
        assert first.stats.rows_spilled > 0
        assert second.stats.cache == "cutoff"
        assert second.stats.seeded_cutoff == first.rows[-1][1]
        assert second.stats.rows_spilled < first.stats.rows_spilled
        assert second.stats.rows_filtered_by_seed > 0

    def test_cutoff_shared_across_projections(self):
        """A different SELECT list is a different result key but the same
        cutoff scope, so the proven bound still seeds it."""
        db = make_database()
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0))
        first = service.execute(self.SQL)
        other = service.execute(
            "SELECT seg FROM events ORDER BY score LIMIT 1000")
        service.shutdown()
        assert other.stats.cache == "cutoff"
        assert other.stats.rows_spilled < first.stats.rows_spilled

    def test_smaller_limit_reuses_larger_coverage(self):
        db = make_database()
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0))
        service.execute(self.SQL)
        smaller = service.execute(
            "SELECT id, score FROM events ORDER BY score LIMIT 100")
        service.shutdown()
        assert smaller.stats.cache == "cutoff"

    def test_larger_limit_does_not_reuse_smaller_coverage(self):
        """A cutoff proven for k=100 must never seed a k=1000 query (it
        would guarantee underflow and a wasted retry)."""
        db = make_database()
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0))
        service.execute(
            "SELECT id, score FROM events ORDER BY score LIMIT 100")
        larger = service.execute(self.SQL)
        service.shutdown()
        assert larger.stats.cache == "miss"
        assert larger.stats.seeded_cutoff is None

    def test_reregistration_invalidates_cache(self):
        db = make_database()
        service = QueryService(db, workers=2)
        stale_rows = service.execute(self.SQL).rows
        # Replace the table: shift every score up by 10.
        shifted = [(i, s + 10.0, g) for (i, s, g) in make_rows(20_000)]
        db.register_table("events", SCHEMA, shifted)
        fresh = service.execute(self.SQL)
        service.shutdown()
        assert not fresh.from_cache
        assert fresh.rows != stale_rows
        assert all(score > 10.0 for _, score, *_ in
                   (row for row in fresh.rows[:5]))

    def test_unlimited_query_bypasses_cache(self):
        db = make_database(rows=make_rows(500))
        service = QueryService(db, workers=1)
        result = service.execute("SELECT id FROM events ORDER BY score")
        service.shutdown()
        assert result.stats.cache == "bypass"


class TestSpillHygiene:
    def test_failed_query_leaves_no_spill_files(self, tmp_path):
        """A mid-scan failure must not leak disk spill files (the service
        runs many queries per process; leaks would accumulate)."""
        rows = make_rows(20_000)

        def exploding_source():
            def generate():
                for i, row in enumerate(rows):
                    if i == 15_000:
                        raise RuntimeError("injected scan failure")
                    yield row
            return generate()

        db = Database(memory_rows=256)
        db.register_table("events", SCHEMA, exploding_source,
                          row_count=len(rows))
        db.planner.spill_manager_factory = lambda: SpillManager(
            backend=DiskSpillBackend(str(tmp_path)))

        with pytest.raises(RuntimeError, match="injected"):
            db.sql("SELECT id, score FROM events ORDER BY score "
                   "LIMIT 1000")
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_service_releases_disk_spill_after_success(self, tmp_path):
        db = make_database()
        db.planner.spill_manager_factory = lambda: SpillManager(
            backend=DiskSpillBackend(str(tmp_path)))
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0,
                                                 max_scopes=0))
        for _ in range(3):
            result = service.execute(
                "SELECT id, score FROM events ORDER BY score LIMIT 1000")
            assert result.stats.rows_spilled > 0
        service.shutdown()
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []


class TestObservability:
    def test_snapshot_aggregates_engine_work(self):
        db = make_database()
        service = QueryService(db, workers=2,
                               cache=ResultCache(max_results=0,
                                                 max_scopes=0))
        spilled = [service.execute(
            "SELECT id, score FROM events ORDER BY score LIMIT 1000"
        ).stats.rows_spilled for _ in range(3)]
        service.shutdown()
        snap = service.metrics_snapshot()
        assert outcome_counts(service) == counts(submitted=3, ok=3)
        assert min(spilled) > 0
        assert snap["service.rows.spilled"]["value"] == sum(spilled)
        assert snap["service.query.rows_spilled"]["sum"] == sum(spilled)

    def test_join_rows_output_counts_left_join_pads(self):
        """``service.join.rows_output`` counts every row the join
        emitted: a LEFT join's pad rows count too."""
        db = Database()
        db.register_table("l", Schema([Column("lid", ColumnType.INT64),
                                       Column("jk", ColumnType.INT64)]),
                          [(i, i) for i in range(100)])
        db.register_table("r", Schema([Column("rk", ColumnType.INT64),
                                       Column("rv", ColumnType.INT64)]),
                          [(i, -i) for i in range(0, 100, 2)])
        service = QueryService(db, workers=1)
        result = service.execute("SELECT * FROM l LEFT JOIN r "
                                 "ON l.jk = r.rk ORDER BY lid LIMIT 200")
        service.shutdown()
        assert len(result.rows) == 100
        assert sum(row[2] is None for row in result.rows) == 50
        snap = service.metrics_snapshot()
        assert snap["service.join.rows_build"]["value"] == 50
        assert snap["service.join.rows_probe"]["value"] == 100
        assert snap["service.join.rows_output"]["value"] == 100

    def test_error_outcome_recorded(self):
        db = make_database(rows=make_rows(100))
        service = QueryService(db, workers=1)
        with pytest.raises(Exception):
            service.execute("SELECT nope FROM events ORDER BY score "
                            "LIMIT 5")
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=1, error=1)

    def test_non_repro_error_counts_once(self):
        """An engine failure outside the library's error hierarchy (a
        table source raising mid-scan) still counts one error."""
        def failing_source():
            yield from make_rows(300)
            raise ValueError("source failed")

        db = Database(memory_rows=256)
        db.register_table("events", SCHEMA, failing_source)
        service = QueryService(db, workers=1)
        with pytest.raises(ValueError, match="source failed"):
            service.execute("SELECT id FROM events ORDER BY score "
                            "LIMIT 200")
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=1, error=1)

    def test_unconvertible_score_is_a_typed_error_counted_once(self):
        """A string score in the FLOAT64 sort column ends the vectorized
        plan in ``KeyEncodingError``, counted as one error."""
        db = make_database(rows=make_rows(300) + [(300, "x", "a")])
        service = QueryService(db, workers=1)
        with pytest.raises(KeyEncodingError, match="score"):
            service.execute("SELECT id FROM events ORDER BY score "
                            "LIMIT 200")
        service.shutdown()
        assert outcome_counts(service) == counts(submitted=1, error=1)


MACHINE_SCHEMA = Schema([Column("id", ColumnType.INT64),
                         Column("score", ColumnType.FLOAT64)])


class ServiceMachine(RuleBasedStateMachine):
    """Dashboard traffic against one service: repeated and overlapping
    top-k panels (exact hits, seeded and nearest-neighbour cutoff
    reuse) across table version bumps and ``ANALYZE`` runs.  Every
    answer must equal a sorted-list oracle, and every query must count
    exactly once."""

    def __init__(self):
        super().__init__()
        self.db = Database(memory_rows=64)
        self.service = QueryService(self.db, workers=1)
        self.queries = 0
        self.load(0)

    def load(self, seed):
        rng = random.Random(seed)
        scores = rng.sample(range(1_000_000), 3_000)  # distinct: no ties
        self.rows = [(i, score / 1_000.0) for i, score in enumerate(scores)]
        self.db.register_table("T", MACHINE_SCHEMA, self.rows)
        self.analyzed = False

    @rule(projection=st.sampled_from(["id", "id, score"]),
          ascending=st.booleans(), k=st.sampled_from([70, 150, 400]),
          offset=st.sampled_from([0, 30]))
    def query(self, projection, ascending, k, offset):
        direction = "ASC" if ascending else "DESC"
        sql = (f"SELECT {projection} FROM T ORDER BY score {direction} "
               f"LIMIT {k}" + (f" OFFSET {offset}" if offset else ""))
        result = self.service.execute(sql)
        self.queries += 1
        ranked = sorted(self.rows, key=lambda row: row[1],
                        reverse=not ascending)[offset:offset + k]
        expected = (ranked if projection == "id, score"
                    else [(row_id,) for row_id, _ in ranked])
        assert result.rows == expected

    @rule(seed=st.integers(min_value=1, max_value=3))
    def reload(self, seed):
        self.load(seed)

    @precondition(lambda self: not self.analyzed)  # a rescan is a no-op
    @rule()
    def analyze(self):
        self.db.analyze("T")
        self.analyzed = True

    @invariant()
    def every_query_counts_once(self):
        snap = self.service.metrics_snapshot()
        assert outcome_counts(self.service) == counts(
            submitted=self.queries, ok=self.queries)
        assert sum(snap[f"service.cache.{kind}"]["value"] for kind in
                   ("miss", "exact", "cutoff", "bypass")) == self.queries

    def teardown(self):
        self.service.shutdown()


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None)
