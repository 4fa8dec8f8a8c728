"""Tests for the planner's lowering rules and its statistics wiring.

Rules pick the plan and the cost model only estimates it: a plain
top-k lowers to ``vectorized`` exactly when the kernels are eligible,
else to ``batch`` with the spec's key substrate; a join runs ``hash``
unless ``join_method="merge"`` pins it, whatever order its tables
declare; every pin still holds, and a pin the query cannot take raises;
each decision records the rule that fired, which EXPLAIN prints; the
cost model is called once for the chosen plan (twice for a join whose
pushdown it weighs); statistics persist and invalidate with table
versions; and all physical paths stay byte-identical on the same query.
"""

import random

import pytest

from repro.engine.operators import (
    HashJoin,
    SortMergeJoin,
    TopK,
    VectorizedTopK,
)
from repro.engine.planner import (
    PlanDecision,
    Planner,
    vectorized_lowering_eligible,
)
from repro.engine.session import Database
from repro.engine.sql import parse
from repro.errors import PlanError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.service import QueryService
from repro.service.cache import ResultCache
from repro.storage.codec import TypedPageCodec
from repro.storage.costmodel import CostModel
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


VECTORIZED_RULE = "vectorized: one non-nullable numeric ORDER BY column"


class TestDefaultChoices:
    def test_single_numeric_key_picks_vectorized(self, rows):
        db = make_db(rows)
        plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 500")
        decision = decision_of(plan)
        assert decision.chosen.path == "vectorized"
        assert decision.rule == VECTORIZED_RULE
        assert isinstance(plan, VectorizedTopK)

    def test_multi_column_string_key_picks_ovc(self, rows):
        db = make_db(rows)
        plan = db.plan("SELECT * FROM R ORDER BY S, T, G LIMIT 500")
        decision = decision_of(plan)
        assert decision.chosen.path == "batch"
        assert decision.chosen.keys == "ovc"
        assert decision.rule == ("batch: the key is not one non-nullable "
                                 "numeric column")

    def test_key_substrate_follows_the_spec(self, rows):
        """The batch path's key substrate is the codec's ``preferred``
        rule — no knob picks it."""
        from repro.sorting.keycodec import compile_keycodec

        schema = Schema([Column("K", ColumnType.FLOAT64),
                         Column("N", ColumnType.FLOAT64, nullable=True),
                         Column("S", ColumnType.STRING)])
        table = [(row[0], None if row[1] % 10 == 0 else row[0], row[2])
                 for row in rows]
        db = Database(memory_rows=2_000, force_path="batch")
        db.register_table("R", schema, table, row_count=len(table))
        for order_by, expected in (("K", "tuple"), ("N", "ovc"),
                                   ("S DESC", "ovc"), ("S, K", "ovc")):
            decision = decision_of(db.plan(
                f"SELECT * FROM R ORDER BY {order_by} LIMIT 100"))
            assert decision.chosen.keys == expected
            columns = [SortColumn(item.split()[0],
                                  ascending=not item.endswith("DESC"))
                       for item in order_by.split(", ")]
            preferred = compile_keycodec(SortSpec(schema, columns)).preferred
            assert (expected == "ovc") == preferred

    @pytest.mark.parametrize("order_by", ["K", "K DESC", "G", "S",
                                          "S DESC", "K, G", "S, T"])
    @pytest.mark.parametrize("options,seed", [
        (None, None), (None, 1.0), ({"fan_in": 8}, None)])
    def test_rule_is_the_eligibility_predicate(self, rows, order_by,
                                               options, seed):
        """The path is ``vectorized`` exactly when the kernels are
        eligible, and the rule names the first condition that refused
        them otherwise."""
        db = make_db(rows, algorithm_options=options)
        query = parse(f"SELECT * FROM R ORDER BY {order_by} LIMIT 100")
        decision = decision_of(db.planner.plan(query, db.table("R"),
                                               cutoff_seed=seed))
        columns = [SortColumn(item.split()[0],
                              ascending=not item.endswith("DESC"))
                   for item in order_by.split(", ")]
        eligible = vectorized_lowering_eligible(
            SortSpec(SCHEMA, columns), algorithm_options=options,
            cutoff_seed=seed)
        assert (decision.chosen.path == "vectorized") == eligible
        if eligible:
            assert decision.rule == VECTORIZED_RULE
        elif options:
            assert decision.rule == ("batch: algorithm options configure "
                                     "the row engine")
        elif seed is not None:
            assert decision.rule == ("batch: a cutoff seed needs the row "
                                     "engine's stale-seed check")
        else:
            assert decision.rule == ("batch: the key is not one "
                                     "non-nullable numeric column")

    def test_every_label_is_one_of_three(self, rows, tmp_path):
        """A spilling composite query over a spill codec that writes key
        sections still lowers to one of the three labels (no worker
        counts, fan-in rungs or lazy-materialization plans)."""
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
            assert decision.chosen.label() == "batch/ovc"
        backend.close()

    def test_pinned_fan_in_is_a_configuration(self, rows):
        """A pinned fan-in reaches the operator and the estimate, and its
        algorithm option is the rule that keeps the query on the row
        engine."""
        spilling = "SELECT * FROM R ORDER BY S, T LIMIT 5000"
        db = make_db(rows, algorithm_options={"fan_in": 8})
        result = db.sql(spilling)
        topk = result.plan
        assert isinstance(topk, TopK)
        assert topk.algorithm_options["fan_in"] == 8
        assert topk.last_impl.fan_in == 8
        assert topk.decision.chosen.cost.fan_in == 8
        assert topk.decision.rule == ("batch: algorithm options configure "
                                      "the row engine")
        assert result.stats.io.rows_spilled > 0
        assert result.rows == make_db(rows).sql(spilling).rows

    def test_the_chosen_plan_is_costed_once(self, rows, monkeypatch):
        """The cost model estimates the chosen plan only; nothing else
        is priced."""
        calls = []
        estimate = CostModel.topk_plan_cost

        def counting(model, **kwargs):
            calls.append(kwargs["path"])
            return estimate(model, **kwargs)

        monkeypatch.setattr(CostModel, "topk_plan_cost", counting)
        db = make_db(rows)
        for order_by, path in (("K", "vectorized"), ("S, T", "batch")):
            calls.clear()
            db.plan(f"SELECT * FROM R ORDER BY {order_by} LIMIT 100")
            assert calls == [path]


class TestOverrides:
    def test_forced_path(self, rows):
        for path, expected in (("batch", TopK),
                               ("vectorized", VectorizedTopK)):
            db = make_db(rows, force_path=path)
            plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 100")
            assert isinstance(plan, expected)
            decision = decision_of(plan)
            assert decision.chosen.path == path
            assert decision.rule == f"path={path} pinned"

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
        with pytest.raises(PlanError, match="not one non-nullable numeric"):
            db.plan("SELECT * FROM R ORDER BY S LIMIT 100")

    def test_unknown_forced_path_rejected(self):
        with pytest.raises(PlanError):
            Planner(path="warp")

    def test_vectorize_false_pins_row_engine(self, rows):
        """Setting ``planner.path`` after construction pins the batch
        operator and records the pin as the rule."""
        db = Database(memory_rows=2_000)
        db.register_table("R", SCHEMA, rows)
        db.planner.path = "batch"
        plan = db.plan("SELECT * FROM R ORDER BY K LIMIT 100")
        assert isinstance(plan, TopK) and not isinstance(plan,
                                                         VectorizedTopK)
        assert decision_of(plan).rule == "path=batch pinned"


FACT_SCHEMA = Schema([Column("ID", ColumnType.INT64),
                     Column("FK", ColumnType.INT64),
                     Column("SV", ColumnType.FLOAT64)])
DIM_SCHEMA = Schema([Column("DK", ColumnType.INT64),
                    Column("DV", ColumnType.INT64)])
FK_TOPK = ("SELECT * FROM FACT JOIN DIM ON FACT.FK = DIM.DK "
           "ORDER BY SV, ID LIMIT 100")
FK_GROUP_BY = ("SELECT DV, COUNT(*) FROM FACT JOIN DIM "
               "ON FACT.FK = DIM.DK GROUP BY DV")


def fk_db(fact_sorted=False, dim_sorted=False, **kwargs):
    """FACT (2,000 rows, stored in FK order) joined to DIM (100 rows,
    stored in DK order), each declaring its order only when asked."""
    rng = random.Random(9)
    fact = sorted(((i, rng.randrange(100), rng.random())
                   for i in range(2_000)), key=lambda row: row[1])
    dim = [(key, key % 7) for key in range(100)]
    db = Database(memory_rows=500, **kwargs)
    db.register_table("FACT", FACT_SCHEMA, fact, row_count=len(fact),
                      sorted_by=["FK"] if fact_sorted else None)
    db.register_table("DIM", DIM_SCHEMA, dim, row_count=len(dim),
                      sorted_by=["DK"] if dim_sorted else None)
    return db


def join_decision_of(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        decision = node.__dict__.get("decision")
        if decision is not None and hasattr(decision.chosen, "method"):
            return node, decision
        stack.extend(node.children())
    raise AssertionError("no JoinDecision on the plan")


class TestJoinRules:
    @pytest.mark.parametrize("fact_sorted,dim_sorted", [
        (False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("sql", [FK_TOPK, FK_GROUP_BY])
    def test_auto_runs_hash_whatever_the_tables_declare(
            self, sql, fact_sorted, dim_sorted):
        node, decision = join_decision_of(
            fk_db(fact_sorted, dim_sorted).plan(sql))
        assert isinstance(node, HashJoin)
        assert decision.chosen.method == "hash"
        assert decision.rule.startswith("hash: the default join; ")

    @pytest.mark.parametrize("method,operator", [
        ("hash", HashJoin), ("merge", SortMergeJoin)])
    def test_join_method_pins(self, method, operator):
        node, decision = join_decision_of(
            fk_db(join_method=method).plan(FK_TOPK))
        assert isinstance(node, operator)
        assert decision.chosen.method == method
        assert decision.rule.startswith(f"join_method={method} pinned; ")

    def test_declared_order_does_not_change_the_merge_estimate(self):
        """``SortMergeJoin`` sorts both sides whatever a table declares,
        so the estimate of a pinned merge join does not see the order."""
        costs = {
            declared: join_decision_of(
                fk_db(declared, declared,
                      join_method="merge").plan(FK_GROUP_BY))[1].chosen.cost
            for declared in (False, True)}
        assert costs[True] == costs[False]

    @pytest.mark.parametrize("pushdown,expected", [
        (True, "pushdown=on pinned"), (False, "pushdown=off pinned")])
    def test_pushdown_pins(self, pushdown, expected):
        _, decision = join_decision_of(
            fk_db(pushdown=pushdown).plan(FK_TOPK))
        assert decision.chosen.pushdown is pushdown
        assert decision.rule.endswith(f"; {expected}")

    def test_pushdown_is_costed_on_against_off(self):
        _, decision = join_decision_of(fk_db().plan(FK_TOPK))
        state = "on" if decision.chosen.pushdown else "off"
        assert f"; pushdown {state}: estimated " in decision.rule
        assert decision.rule.endswith("s off")

    @pytest.mark.parametrize("pushdown", [None, True])
    def test_pushdown_invalid_across_both_sides(self, pushdown):
        _, decision = join_decision_of(fk_db(pushdown=pushdown).plan(
            "SELECT * FROM FACT JOIN DIM ON FACT.FK = DIM.DK "
            "ORDER BY DV, ID LIMIT 100"))
        assert decision.pushdown_side is None
        assert not decision.chosen.pushdown
        assert decision.rule.endswith("; pushdown not valid for this query")

    @pytest.mark.parametrize("sql,pushdown,costings", [
        (FK_GROUP_BY, None, 1), (FK_TOPK, None, 2), (FK_TOPK, True, 2)])
    def test_join_is_costed_once_per_pushdown_setting(
            self, monkeypatch, sql, pushdown, costings):
        methods = []
        estimate = CostModel.join_plan_cost

        def counting(model, **kwargs):
            methods.append(kwargs["method"])
            return estimate(model, **kwargs)

        monkeypatch.setattr(CostModel, "join_plan_cost", counting)
        fk_db(pushdown=pushdown).plan(sql)
        assert methods == ["hash"] * costings

    def test_explain_prints_one_rule_per_decision(self):
        text = fk_db().explain(FK_TOPK)
        assert text.count("  rule: ") == 2
        assert "rule: hash: the default join; pushdown" in text
        assert "candidates:" not in text


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
        assert text.count("  rule: ") == 1
        assert f"rule: {VECTORIZED_RULE}" in text
        assert "candidates:" not in text

    def test_explain_analyze_estimate_vs_actual(self, rows):
        db = make_db(rows)
        result = db.sql("SELECT * FROM R ORDER BY K LIMIT 500",
                        explain_analyze=True)
        text = result.explain_analyze()
        assert "plan_choice=vectorized" in text
        assert f"plan_rule={VECTORIZED_RULE}" in text
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
