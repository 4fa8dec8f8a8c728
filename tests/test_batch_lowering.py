"""Planner lowering of plain top-k onto the vectorized numpy kernels.

The load-bearing claims:

* the planner lowers exactly when it is safe (single non-nullable
  numeric ORDER BY column, histogram algorithm, no ablation options, no
  cutoff seed, no forced ``batch`` path);
* the lowered operator is **exact**: byte-identical output rows *and*
  equal ``rows_spilled`` against the row engine configured as the same
  algorithm (quicksort load-sort-store, unlimited runs, the vectorized
  kernel's 50-buckets-per-run histogram sizing), ascending and
  descending;
* the lowering is reachable from ``Database.sql`` and interoperates
  with the session features built on top-k plans (``final_cutoff`` for
  cutoff reuse, stats aggregation).
"""

from __future__ import annotations

import pytest

from repro.core.policies import TargetBucketsPolicy
from repro.core.topk import HistogramTopK
from repro.engine.operators import (
    Table,
    TableScan,
    TopK,
    VectorizedTopK,
)
from repro.engine.session import Database
from repro.errors import ConfigurationError
from repro.rows.lineitem import LINEITEM_SCHEMA, generate_lineitem
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec

ROWS = list(generate_lineitem(30_000, seed=23))
K = 10_000
MEMORY_ROWS = 2_500


def make_database(**kwargs) -> Database:
    db = Database(memory_rows=MEMORY_ROWS, **kwargs)
    db.register_table("LINEITEM", LINEITEM_SCHEMA, ROWS)
    return db


def row_engine_reference(spec: SortSpec, k: int = K,
                         offset: int = 0) -> HistogramTopK:
    """The row engine configured identically to the vectorized kernel:
    load-sort-store runs of one full memory load, histograms on the 50
    ``j/(B+1)`` load quantiles."""
    return HistogramTopK(
        spec, k, MEMORY_ROWS, offset=offset,
        run_generation="quicksort", run_size_limit=None,
        sizing_policy=TargetBucketsPolicy(buckets_per_run=50, capped=True))


# -- planner decision --------------------------------------------------------


class TestLoweringDecision:
    def test_lowers_single_numeric_key(self):
        plan = make_database().plan(
            "SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 100")
        assert isinstance(plan, VectorizedTopK)

    def test_lowers_descending_numeric_key(self):
        plan = make_database().plan(
            "SELECT * FROM LINEITEM ORDER BY L_EXTENDEDPRICE DESC LIMIT 5")
        assert isinstance(plan, VectorizedTopK)

    def test_keeps_row_operator_for_multi_column_key(self):
        plan = make_database().plan(
            "SELECT * FROM LINEITEM "
            "ORDER BY L_ORDERKEY, L_LINENUMBER LIMIT 100")
        assert isinstance(plan, TopK)
        assert not isinstance(plan, VectorizedTopK)

    def test_keeps_row_operator_for_string_key(self):
        plan = make_database().plan(
            "SELECT * FROM LINEITEM ORDER BY L_SHIPMODE LIMIT 100")
        assert isinstance(plan, TopK)
        assert not isinstance(plan, VectorizedTopK)

    def test_keeps_row_operator_for_baseline_algorithms(self):
        db = make_database(algorithm="traditional")
        plan = db.plan(
            "SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 100")
        assert not isinstance(plan, VectorizedTopK)

    def test_keeps_row_operator_with_algorithm_options(self):
        db = make_database(algorithm_options={"double_filter": False})
        plan = db.plan(
            "SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 100")
        assert not isinstance(plan, VectorizedTopK)

    def test_keeps_row_operator_with_cutoff_seed(self):
        db = make_database()
        query_text = "SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 100"
        from repro.engine.sql import parse
        plan = db.planner.plan(parse(query_text), db.table("LINEITEM"),
                               cutoff_seed=123.0)
        assert not isinstance(plan, VectorizedTopK)
        assert plan.cutoff_seed == 123.0

    def test_vectorize_false_pins_row_engine(self):
        """Forcing the ``batch`` path keeps the plan off the kernel."""
        db = make_database()
        db.planner.path = "batch"
        plan = db.plan(
            "SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 100")
        assert not isinstance(plan, VectorizedTopK)

    def test_constructor_rejects_non_numeric_key(self):
        table = Table("LINEITEM", LINEITEM_SCHEMA, ROWS)
        spec = SortSpec(LINEITEM_SCHEMA, ["L_SHIPMODE"])
        with pytest.raises(ConfigurationError):
            VectorizedTopK(TableScan(table), spec, k=10)


# -- exactness against the row engine ----------------------------------------


class TestCrossEngineExactness:
    @pytest.mark.parametrize("ascending", [True, False])
    def test_results_and_spill_match_row_engine(self, ascending):
        """Byte-identical rows and equal rows_spilled, asc and desc."""
        spec = SortSpec(LINEITEM_SCHEMA,
                        [SortColumn("L_ORDERKEY", ascending=ascending)])
        table = Table("LINEITEM", LINEITEM_SCHEMA, ROWS)
        lowered = VectorizedTopK(TableScan(table), spec, k=K,
                                 memory_rows=MEMORY_ROWS)
        vec_rows = list(lowered.rows())

        reference = row_engine_reference(spec)
        ref_rows = list(reference.execute(iter(ROWS)))

        assert vec_rows == ref_rows
        assert lowered.stats.io.rows_spilled == \
            reference.stats.io.rows_spilled
        assert lowered.stats.rows_consumed == len(ROWS)
        # Both engines agree on the achieved cutoff (cutoff-reuse seed).
        assert lowered.last_impl.final_cutoff == \
            pytest.approx(reference.final_cutoff)

    def test_offset_matches_row_engine(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])
        table = Table("LINEITEM", LINEITEM_SCHEMA, ROWS)
        lowered = VectorizedTopK(TableScan(table), spec, k=2_000,
                                 offset=5_000, memory_rows=MEMORY_ROWS)
        reference = row_engine_reference(spec, k=2_000, offset=5_000)
        assert list(lowered.rows()) == list(reference.execute(iter(ROWS)))

    def test_in_memory_regime_matches_sorted_prefix(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])
        table = Table("LINEITEM", LINEITEM_SCHEMA, ROWS)
        lowered = VectorizedTopK(TableScan(table), spec, k=500,
                                 memory_rows=MEMORY_ROWS)
        got = list(lowered.rows())
        assert got == sorted(ROWS, key=spec.key)[:500]
        assert lowered.stats.io.rows_spilled == 0

    def test_empty_input(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])
        table = Table("LINEITEM", LINEITEM_SCHEMA, [])
        lowered = VectorizedTopK(TableScan(table), spec, k=10,
                                 memory_rows=100)
        assert list(lowered.rows()) == []


# -- end-to-end through the session ------------------------------------------


class TestSessionIntegration:
    def test_sql_executes_through_lowering(self):
        db = make_database()
        result = db.sql(
            f"SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT {K}")
        assert isinstance(result.plan, VectorizedTopK)
        assert len(result) == K
        assert result.stats.io.rows_spilled > 0

    def test_sql_results_equal_row_engine(self):
        sql = (f"SELECT L_ORDERKEY, L_EXTENDEDPRICE FROM LINEITEM "
               f"WHERE L_QUANTITY >= 10 "
               f"ORDER BY L_EXTENDEDPRICE DESC LIMIT {K}")
        lowered = make_database().sql(sql)
        pinned = make_database()
        pinned.planner.path = "batch"
        reference = pinned.sql(sql)
        assert lowered.rows == reference.rows

    def test_final_cutoff_flows_to_query_result(self):
        db = make_database()
        sql = f"SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT {K}"
        lowered = db.sql(sql)
        pinned = make_database()
        pinned.planner.path = "batch"
        reference = pinned.sql(sql)
        assert lowered.final_cutoff is not None
        assert lowered.final_cutoff == pytest.approx(reference.final_cutoff)

    def test_seeded_repeat_stays_correct(self):
        """A cutoff_seed pins the repeat to the row engine; same rows."""
        db = make_database()
        sql = f"SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT {K}"
        first = db.sql(sql)
        repeat = db.sql(sql, cutoff_seed=first.final_cutoff)
        assert not isinstance(repeat.plan, VectorizedTopK)
        assert repeat.rows == first.rows


# -- NULL / NaN keys ---------------------------------------------------------


class TestNullAndNanKeys:
    """The float64 cast in the vectorized kernel cannot represent SQL
    NULL and gives NaN unordered-comparison semantics.  The contract:
    nullable key columns *refuse to lower* (NULL ordering stays with the
    row engine's NULLS LAST), and NaN — which is outside the engine's
    data model, NULL being the supported missing value — never produces
    wrongly ordered output."""

    NULLABLE_SCHEMA = Schema([
        Column("V", ColumnType.FLOAT64, nullable=True),
        Column("ID", ColumnType.INT64),
    ])

    @staticmethod
    def _null_rows(n=6_000, null_every=9, seed=31):
        import random

        rng = random.Random(seed)
        return [(None if i % null_every == 0 else rng.uniform(-100, 100), i)
                for i in range(n)]

    @staticmethod
    def _null_last(rows, descending=False):
        present = [r for r in rows if r[0] is not None]
        nulls = [r for r in rows if r[0] is None]
        return sorted(present, key=lambda r: r[0],
                      reverse=descending) + nulls

    @pytest.mark.parametrize("descending", [False, True])
    def test_nullable_key_refuses_lowering_and_orders_nulls_last(
            self, descending):
        rows = self._null_rows()
        db = Database(memory_rows=400)
        db.register_table("N", self.NULLABLE_SCHEMA, rows)
        order = " DESC" if descending else ""
        plan = db.plan(f"SELECT * FROM N ORDER BY V{order} LIMIT 1500")
        assert isinstance(plan, TopK)
        assert not isinstance(plan, VectorizedTopK)
        result = db.sql(f"SELECT * FROM N ORDER BY V{order} LIMIT 1500")
        expected = self._null_last(rows, descending)[:1500]
        assert [r[1] for r in result.rows] == [r[1] for r in expected]

    def test_numeric_key_column_rejects_nullable(self):
        from repro.rows.batch import numeric_key_column

        spec = SortSpec(self.NULLABLE_SCHEMA, ["V"])
        assert numeric_key_column(spec) is None

    def test_constructor_rejects_nullable_key(self):
        rows = self._null_rows(100)
        table = Table("N", self.NULLABLE_SCHEMA, rows)
        spec = SortSpec(self.NULLABLE_SCHEMA, ["V"])
        with pytest.raises(ConfigurationError):
            VectorizedTopK(TableScan(table), spec, k=10)

    @pytest.mark.parametrize("limit", [100, 1200])
    @pytest.mark.parametrize("leg", ["default", "batch", "seeded"])
    def test_nan_keys_never_yield_misordered_output(self, leg, limit):
        """NaN contamination of a non-nullable column: the cutoff filter
        eliminates NaN rows (every NaN comparison is false), which can
        underfill the limit but must never misorder what is returned —
        the finite output is exactly a prefix of the sorted finite
        keys.  That holds on the vectorized plan, on the batch engine
        (pinned, or planned for a seeded repeat, as ``QueryService``
        issues them) and in both of its regimes."""
        import math
        import random

        rng = random.Random(37)
        rows = [(float(i), i) for i in range(4_000)]
        rows += [(float("nan"), 10_000 + i) for i in range(40)]
        rng.shuffle(rows)

        schema = Schema([Column("V", ColumnType.FLOAT64),
                         Column("ID", ColumnType.INT64)])
        db = Database(memory_rows=300)
        db.register_table("N", schema, rows)
        sql = f"SELECT * FROM N ORDER BY V LIMIT {limit}"
        if leg == "batch":
            db.planner.path = "batch"
        seed = (db.sql(sql).final_cutoff if leg == "seeded" else None)
        result = db.sql(sql, cutoff_seed=seed)
        assert isinstance(result.plan, VectorizedTopK) == (leg == "default")

        finite = [r for r in result.rows if not math.isnan(r[0])]
        expected = sorted((r for r in rows if not math.isnan(r[0])),
                          key=lambda r: r[0])
        assert finite == expected[:len(finite)]
        assert len(result.rows) <= limit


@pytest.mark.parametrize("path", ["vectorized", "batch"])
def test_nan_heavy_key_returns_the_finite_top_k(path):
    """Three keys in ten are NaN, so NaN sorts into loads before any
    cutoff exists: both engines drop it on arrival and return the top k
    of the finite keys (a NaN histogram boundary once became the
    vectorized kernel's cutoff, and the query returned no rows)."""
    import math
    import random

    rng = random.Random(5)
    schema = Schema([Column("K", ColumnType.FLOAT64),
                     Column("ID", ColumnType.INT64)])
    rows = [(math.nan if rng.random() < 0.3 else rng.random(), i)
            for i in range(20_000)]
    db = Database(memory_rows=400)
    db.register_table("T", schema, rows)
    if path == "batch":
        db.planner.path = "batch"
    result = db.sql("SELECT * FROM T ORDER BY K LIMIT 1500")
    assert isinstance(result.plan, VectorizedTopK) == (path == "vectorized")
    assert result.rows == sorted(
        (row for row in rows if not math.isnan(row[0])),
        key=lambda row: row[0])[:1_500]
