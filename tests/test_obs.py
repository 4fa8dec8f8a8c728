"""Tests for the observability layer (``repro.obs``).

Covers the tracing core (span tree, thread safety, Chrome export, the
no-op tracer), the metrics registry (instrument semantics, mismatch
errors, concurrency exactness), the cutoff timeline (monotone sharpening
on ascending and descending specs), EXPLAIN ANALYZE rendering, and the
no-op guarantee: tracing must never change what a query returns or what
the operator counters record.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.core.topk import HistogramTopK
from repro.engine.operators import TopK, VectorizedTopK
from repro.engine.session import Database
from repro.errors import ConfigurationError, PlanError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeline import CutoffEvent, CutoffTimeline
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.rows.batch import batches_from_rows
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec

SCHEMA = Schema([
    Column("K", ColumnType.FLOAT64),
    Column("P", ColumnType.INT64),
])


def make_rows(n: int, seed: int = 17) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.uniform(-1e6, 1e6), i) for i in range(n)]


def make_database(rows, memory_rows=400, **kwargs) -> Database:
    db = Database(memory_rows=memory_rows, **kwargs)
    db.register_table("T", SCHEMA, rows)
    return db


# -- tracing core ------------------------------------------------------------


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", phase="demo") as outer:
            with tracer.span("inner") as inner:
                inner.set_attribute("rows", 7)
            with tracer.span("sibling"):
                pass
        assert tracer.roots == [outer]
        assert [child.name for child in outer.children] == \
            ["inner", "sibling"]
        assert outer.children[0].parent is outer
        assert outer.attributes == {"phase": "demo"}
        assert outer.children[0].attributes == {"rows": 7}

    def test_spans_are_timed_monotonically(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            assert span.duration_seconds is None  # still open
        assert span.duration_seconds is not None
        assert span.duration_seconds >= 0.0

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("phase") as span:
            tracer.event("cutoff.refine", rows_seen=10, cutoff_key=3.5)
        assert len(span.events) == 1
        _when, name, attributes = span.events[0]
        assert name == "cutoff.refine"
        assert attributes == {"rows_seen": 10, "cutoff_key": 3.5}

    def test_event_without_open_span_becomes_orphan_root(self):
        tracer = Tracer()
        tracer.event("spill.file_created", file_id=1)
        assert [root.name for root in tracer.roots] == \
            ["spill.file_created"]

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_find_and_span_count(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert tracer.span_count() == 3
        assert len(tracer.find("b")) == 2

    def test_threads_get_independent_stacks(self):
        """One shared tracer, many threads: every span lands exactly
        once and nesting never crosses threads."""
        tracer = Tracer()
        spans_per_thread = 50
        threads = 8

        def worker(name):
            for i in range(spans_per_thread):
                with tracer.span(f"{name}.outer"):
                    with tracer.span(f"{name}.inner"):
                        pass

        workers = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert tracer.span_count() == threads * spans_per_thread * 2
        # Each root is an outer span with exactly one same-thread child.
        for root in tracer.roots:
            assert root.name.endswith(".outer")
            assert len(root.children) == 1
            child = root.children[0]
            assert child.name == root.name.replace(".outer", ".inner")
            assert child.thread_id == root.thread_id


class TestChromeTrace:
    def test_export_shapes_and_relative_timestamps(self):
        tracer = Tracer()
        with tracer.span("query", table="T"):
            tracer.event("cutoff.refine", cutoff_key=1.0)
            with tracer.span("merge"):
                pass
        events = tracer.to_chrome_trace()
        complete = [e for e in events if e["ph"] == "X"]
        instant = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"query", "merge"}
        assert [e["name"] for e in instant] == ["cutoff.refine"]
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["dur"] >= 0 for e in complete)
        json.dumps(events)  # must be JSON-serializable

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        assert payload["traceEvents"][0]["name"] == "query"


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", rows=1) as span:
            span.set_attribute("x", 1)
            span.event("y")
        assert NULL_TRACER.span_count() == 0
        assert NULL_TRACER.to_chrome_trace() == []
        assert NULL_TRACER.find("anything") == []
        assert NULL_TRACER.current() is None

    def test_span_is_shared_singleton(self):
        """No allocation per untraced phase: span() returns one object."""
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b") is NULL_TRACER.span("c")


# -- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries")
        assert registry.counter("queries") is counter
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("inflight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        gauge.set(10)
        assert gauge.value == 10

    def test_histogram_buckets_and_rollups(self):
        histogram = Histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["bucket_counts"] == [1, 1, 1]  # <=1, <=10, overflow
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(105.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0

    def test_histogram_boundary_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram("empty", boundaries=())
        with pytest.raises(ConfigurationError):
            Histogram("unsorted", boundaries=(5.0, 1.0))

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x", boundaries=(1.0,))

    def test_histogram_boundary_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", boundaries=(1.0, 3.0))

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)
        assert snap["c"] == {"type": "counter", "value": 3}
        assert registry.names() == ["c", "g", "h"]

    def test_concurrent_updates_are_exact(self):
        """The registry-level merge contract: N threads hammering the
        same instruments lose nothing."""
        registry = MetricsRegistry()
        threads, per_thread = 8, 2_000

        def worker():
            counter = registry.counter("hits")
            histogram = registry.histogram("latency", boundaries=(0.5,))
            gauge = registry.gauge("level")
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.25)
                gauge.inc()
                gauge.dec()

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snap = registry.snapshot()
        assert snap["hits"]["value"] == threads * per_thread
        assert snap["latency"]["count"] == threads * per_thread
        assert snap["latency"]["bucket_counts"] == [threads * per_thread, 0]
        assert snap["level"]["value"] == 0

    def test_snapshot_racing_updates_is_internally_consistent(self):
        """A snapshot concurrent with observes never sees count/sum torn
        apart (every observation is the same value, so sum must equal
        count * value in every snapshot)."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=(10.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(2.0)

        torn = []

        def reader():
            for _ in range(300):
                snap = histogram.snapshot()
                if snap["sum"] != pytest.approx(snap["count"] * 2.0):
                    torn.append(snap)

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        r.join()
        stop.set()
        w.join()
        assert torn == []


# -- cutoff timeline ---------------------------------------------------------


class TestCutoffTimeline:
    def test_records_and_reports(self):
        timeline = CutoffTimeline()
        assert not timeline
        timeline.record(10, 5.0)
        timeline.record(20, 3.0)
        assert len(timeline) == 2
        assert timeline.final_cutoff == 3.0
        assert timeline.is_monotone()
        assert timeline.as_dicts() == [
            {"rows_seen": 10, "cutoff_key": 5.0,
             "elapsed_seconds": timeline.events[0].elapsed_seconds},
            {"rows_seen": 20, "cutoff_key": 3.0,
             "elapsed_seconds": timeline.events[1].elapsed_seconds},
        ]

    def test_loosening_cutoff_is_not_monotone(self):
        timeline = CutoffTimeline()
        timeline.record(10, 3.0)
        timeline.record(20, 5.0)  # cutoff got worse: invariant violated
        assert not timeline.is_monotone()

    def test_event_is_immutable(self):
        event = CutoffEvent(rows_seen=1, cutoff_key=2.0,
                            elapsed_seconds=0.0)
        with pytest.raises(AttributeError):
            event.cutoff_key = 1.0


class TestTimelineFromLiveQueries:
    """The acceptance invariant: a traced query's cutoff timeline
    reproduces the paper's monotone sharpening, ascending and
    descending, on both the vectorized and the row engine."""

    @pytest.mark.parametrize("ascending", [True, False])
    def test_vectorized_plan_timeline_monotone(self, ascending):
        rows = make_rows(20_000)
        db = make_database(rows)
        order = "" if ascending else " DESC"
        result = db.sql(f"SELECT * FROM T ORDER BY K{order} LIMIT 2000",
                        tracer=Tracer())
        assert isinstance(result.plan, VectorizedTopK)
        timeline = result.cutoff_timeline
        assert timeline is not None and len(timeline) > 0
        assert timeline.is_monotone()

    @pytest.mark.parametrize("ascending", [True, False])
    def test_row_plan_timeline_monotone(self, ascending):
        rows = make_rows(20_000)
        db = make_database(rows)
        db.planner.path = "batch"
        order = "" if ascending else " DESC"
        result = db.sql(f"SELECT * FROM T ORDER BY K{order} LIMIT 2000",
                        tracer=Tracer())
        assert isinstance(result.plan, TopK)
        timeline = result.cutoff_timeline
        assert timeline is not None and len(timeline) > 0
        assert timeline.is_monotone()

    def test_untraced_query_records_no_timeline(self):
        rows = make_rows(5_000)
        result = make_database(rows).sql(
            "SELECT * FROM T ORDER BY K LIMIT 500")
        assert result.cutoff_timeline is None
        assert result.tracer is None
        assert result.analysis is None

    def test_traced_query_produces_phase_spans(self):
        rows = make_rows(20_000)
        db = make_database(rows)
        db.planner.path = "batch"
        tracer = Tracer()
        result = db.sql("SELECT * FROM T ORDER BY K LIMIT 2000",
                        tracer=tracer)
        assert result.stats.io.rows_spilled > 0
        assert len(tracer.find("query")) == 1
        assert tracer.find("topk.run_generation")
        assert tracer.find("topk.merge")
        # Spill lifecycle arrives as events on the enclosing spans.
        names = {name for span in tracer.spans()
                 for _, name, _ in span.events}
        assert "run.closed" in names
        json.dumps(tracer.to_chrome_trace())  # exportable end to end


# -- EXPLAIN ANALYZE ---------------------------------------------------------


class TestExplainAnalyze:
    def test_rendered_tree_carries_measurements(self):
        rows = make_rows(20_000)
        db = make_database(rows)
        result = db.sql(
            "SELECT * FROM T WHERE K >= 0 ORDER BY K LIMIT 2000",
            explain_analyze=True)
        text = result.explain_analyze()
        assert "actual time=" in text
        assert "rows=" in text
        assert "rows_consumed=" in text
        assert "eliminated_on_arrival=" in text
        assert "eliminated_at_spill=" in text
        assert "rows_spilled=" in text
        assert "final_cutoff=" in text
        assert "Cutoff timeline:" in text

    def test_row_plan_renders_too(self):
        rows = make_rows(20_000)
        db = make_database(rows)
        db.planner.path = "batch"
        result = db.sql("SELECT * FROM T ORDER BY K LIMIT 2000",
                        explain_analyze=True)
        text = result.explain_analyze()
        assert "actual time=" in text
        assert "final_cutoff=" in text

    def test_analysis_tree_matches_row_flow(self):
        rows = make_rows(10_000)
        db = make_database(rows)
        result = db.sql(
            "SELECT * FROM T WHERE K >= 0 ORDER BY K LIMIT 500",
            explain_analyze=True)
        analysis = result.analysis
        assert analysis.root.rows_out == len(result.rows)
        # The root's input cardinality is its child's output.
        assert analysis.root.rows_in == \
            analysis.root.children[0].rows_out
        assert analysis.wall_seconds >= 0.0
        assert analysis.final_cutoff is not None

    def test_explain_analyze_requires_the_flag(self):
        rows = make_rows(1_000)
        result = make_database(rows).sql(
            "SELECT * FROM T ORDER BY K LIMIT 10")
        with pytest.raises(PlanError):
            result.explain_analyze()

    def test_analyzed_query_rows_identical_to_plain(self):
        rows = make_rows(10_000)
        plain = make_database(rows).sql(
            "SELECT * FROM T ORDER BY K LIMIT 800")
        analyzed = make_database(rows).sql(
            "SELECT * FROM T ORDER BY K LIMIT 800", explain_analyze=True)
        assert analyzed.rows == plain.rows
        assert analyzed.stats.io.rows_spilled == \
            plain.stats.io.rows_spilled


# -- the no-op guarantee -----------------------------------------------------


class TestNoOpGuarantee:
    """Tracing must be an observer: byte-identical results and equal
    operator counters, traced vs. untraced, on both execution surfaces."""

    def setup_method(self):
        self.rows = make_rows(15_000, seed=29)
        self.spec = SortSpec(SCHEMA, [SortColumn("K")])

    def test_default_is_the_null_tracer(self):
        operator = HistogramTopK(self.spec, 100, 50)
        assert operator.tracer is NULL_TRACER
        assert operator.timeline is None

    def test_row_surface_traced_equals_untraced(self):
        untraced = HistogramTopK(self.spec, 1_000, 400)
        plain_out = list(untraced.execute(iter(self.rows)))

        tracer = Tracer()
        traced = HistogramTopK(self.spec, 1_000, 400, tracer=tracer)
        traced_out = list(traced.execute(iter(self.rows)))

        assert traced_out == plain_out
        assert traced.stats == untraced.stats
        assert tracer.span_count() > 0  # the tracer did observe
        assert traced.timeline is not None and traced.timeline.is_monotone()

    def test_batch_surface_traced_equals_untraced(self):
        untraced = HistogramTopK(self.spec, 1_000, 400)
        plain_out = list(untraced.execute_batches(
            batches_from_rows(self.rows, SCHEMA, 512)))

        traced = HistogramTopK(self.spec, 1_000, 400, tracer=Tracer())
        traced_out = list(traced.execute_batches(
            batches_from_rows(self.rows, SCHEMA, 512)))

        assert traced_out == plain_out
        assert traced.stats == untraced.stats

    def test_traced_sql_equals_untraced_sql(self):
        sql = "SELECT * FROM T ORDER BY K LIMIT 1500"
        plain = make_database(self.rows).sql(sql)
        traced = make_database(self.rows).sql(sql, tracer=Tracer())
        assert traced.rows == plain.rows
        assert traced.stats == plain.stats

    def test_null_tracer_session_run_adds_zero_spans(self):
        """An untraced query must not create spans anywhere (the no-op
        tracer threads through every instrumented layer)."""
        before = NULL_TRACER.span_count()
        make_database(self.rows).sql("SELECT * FROM T ORDER BY K LIMIT 900")
        assert NULL_TRACER.span_count() == before == 0


# -- service metrics ---------------------------------------------------------


class TestServiceMetrics:
    def _service(self, rows=None, **kwargs):
        from repro.service.service import QueryService

        db = make_database(rows if rows is not None else make_rows(8_000),
                           memory_rows=500)
        return QueryService(db, workers=4, queue_depth=64, **kwargs)

    def test_counters_track_outcomes_and_cache(self):
        with self._service() as service:
            for _ in range(3):
                service.execute("SELECT * FROM T ORDER BY K LIMIT 200")
            snap = service.metrics_snapshot()
        assert snap["service.queries.submitted"]["value"] == 3
        assert snap["service.queries.ok"]["value"] == 3
        assert snap["service.queries.error"]["value"] == 0
        assert snap["service.cache.miss"]["value"] == 1
        assert snap["service.cache.exact"]["value"] == 2
        assert snap["service.queries.inflight"]["value"] == 0
        assert snap["service.query.queue_wait_seconds"]["count"] == 3
        # Only the one real execution observed the execution histogram.
        assert snap["service.query.execution_seconds"]["count"] == 1
        json.dumps(snap)

    def test_error_counter_increments(self):
        with self._service() as service:
            with pytest.raises(Exception):
                service.execute("SELECT * FROM MISSING ORDER BY K LIMIT 5")
            snap = service.metrics_snapshot()
        assert snap["service.queries.error"]["value"] == 1
        assert snap["service.queries.ok"]["value"] == 0

    def test_concurrent_queries_yield_exact_totals(self):
        """N threads hammering the service: every submission is counted
        exactly once across the outcome counters and histograms."""
        threads, per_thread = 6, 8
        queries = [
            "SELECT * FROM T ORDER BY K LIMIT 150",
            "SELECT * FROM T ORDER BY K DESC LIMIT 80",
            "SELECT * FROM T ORDER BY K LIMIT 301",
        ]
        with self._service() as service:
            def worker(index):
                for i in range(per_thread):
                    service.execute(queries[(index + i) % len(queries)])

            workers = [threading.Thread(target=worker, args=(i,))
                       for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            snap = service.metrics_snapshot()

        total = threads * per_thread
        assert snap["service.queries.submitted"]["value"] == total
        assert snap["service.queries.ok"]["value"] == total
        assert snap["service.queries.rejected"]["value"] == 0
        assert snap["service.queries.timeout"]["value"] == 0
        assert snap["service.queries.error"]["value"] == 0
        cache_total = sum(snap[f"service.cache.{kind}"]["value"]
                          for kind in ("miss", "exact", "cutoff", "bypass"))
        assert cache_total == total
        assert snap["service.query.queue_wait_seconds"]["count"] == total
        assert snap["service.query.rows_output"]["count"] == total
        assert snap["service.queries.inflight"]["value"] == 0

    def test_shared_registry_injection(self):
        registry = MetricsRegistry()
        with self._service(metrics=registry) as service:
            service.execute("SELECT * FROM T ORDER BY K LIMIT 10")
        assert registry.counter("service.queries.ok").value == 1
