"""GROUP BY and global aggregates: the fused fold against a plain-Python
reference, its pinned spill counters, and the SUM/AVG type rule.

The differential leg reads its input three rows per batch, so memory
flushes fall mid-batch and groups straddle batch boundaries.  Float
values sit on a dyadic grid (k/4, |k| < 2**20): every partial sum is
exact whatever the addition order, so the engine's run-order combine
and the reference's input-order loop agree under ``==``.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.operators import GroupedAggregate
from repro.engine.session import Database
from repro.errors import PlanError
from repro.rows.schema import Column, ColumnType, Schema
from repro.service import QueryService
from repro.storage.spill import SpillManager

SCHEMA = Schema([
    Column("GI", ColumnType.INT64, nullable=True),
    Column("GS", ColumnType.STRING, nullable=True),
    Column("VI", ColumnType.INT64, nullable=True),
    Column("VF", ColumnType.FLOAT64, nullable=True),
    Column("VS", ColumnType.STRING, nullable=True),
])

#: Every aggregate function on every value column it accepts.
AGGREGATES = [
    ("COUNT", None),
    ("COUNT", "VI"), ("COUNT", "VF"), ("COUNT", "VS"),
    ("SUM", "VI"), ("SUM", "VF"),
    ("AVG", "VI"), ("AVG", "VF"),
    ("MIN", "VI"), ("MAX", "VI"),
    ("MIN", "VF"), ("MAX", "VF"),
    ("MIN", "VS"), ("MAX", "VS"),
]

dyadic = st.integers(-(2**20) + 1, 2**20 - 1).map(lambda k: k / 4)
table_rows = st.lists(
    st.tuples(st.none() | st.integers(0, 3),
              st.none() | st.sampled_from(["a", "b", "c"]),
              st.none() | st.integers(-1000, 1000),
              st.none() | dyadic,
              st.none() | st.text(alphabet="xyz", max_size=3)),
    max_size=80)


def reference(rows, group_by):
    """The aggregate query computed by a plain loop: groups in key order,
    NULLs last, one output row even for a global aggregate on no rows."""
    indexes = [SCHEMA.index_of(name) for name in group_by]
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in indexes), []).append(row)
    if not group_by and not groups:
        groups[()] = []
    out = []
    for key in sorted(groups,
                      key=lambda key: [(v is None, v) for v in key]):
        members = groups[key]
        values = []
        for func, column in AGGREGATES:
            if column is None:
                values.append(len(members))
                continue
            index = SCHEMA.index_of(column)
            present = [row[index] for row in members
                       if row[index] is not None]
            if func == "COUNT":
                values.append(len(present))
            elif not present:
                values.append(None)
            elif func == "SUM":
                values.append(sum(present))
            elif func == "AVG":
                values.append(sum(present) / len(present))
            else:
                values.append(min(present) if func == "MIN"
                              else max(present))
        out.append(key + tuple(values))
    return out


def aggregate_sql(group_by) -> str:
    calls = [f"{func}({column or '*'})" for func, column in AGGREGATES]
    sql = f"SELECT {', '.join(list(group_by) + calls)} FROM T"
    return sql + (f" GROUP BY {', '.join(group_by)}" if group_by else "")


@given(rows=table_rows,
       group_by=st.sampled_from([(), ("GI",), ("GS",), ("GI", "GS")]))
@example(rows=[], group_by=())
@settings(max_examples=60, deadline=None)
def test_fused_aggregation_differential(rows, group_by):
    """Every memory budget — flushing on each new group (1), hard (2),
    lightly (7) or never (``None``) — returns the reference output,
    three input rows per batch.  Partial aggregates, at most one per
    (group, run), never outnumber the input rows."""
    db = Database()
    db.register_table("T", SCHEMA, rows, row_count=len(rows))
    planned = db.plan(aggregate_sql(group_by))
    assert isinstance(planned, GroupedAggregate)
    planned.child.batch_rows = 3
    oracle = reference(rows, group_by)
    for memory in (1, 2, 7, None):
        node = GroupedAggregate(planned.child, planned.group_columns,
                                planned.aggregates, planned.select,
                                memory_rows=memory,
                                spill_manager=SpillManager())
        assert list(node.rows()) == oracle, memory
        spilled = node.stats.io.rows_spilled
        assert spilled <= len(rows)
        assert node.stats.rows_consumed == len(rows)
        if memory is None:
            assert spilled == 0


def test_reads_input_through_batches():
    """The fold consumes whole batches; it never pulls single rows."""
    rows = [(i % 5, None, i, i / 4, "x") for i in range(50)]
    db = Database(memory_rows=2)
    db.register_table("T", SCHEMA, rows)
    planned = db.plan(aggregate_sql(("GI",)))

    def no_rows():
        raise AssertionError("GROUP BY pulled rows() from its input")

    planned.child.rows = no_rows
    assert list(planned.rows()) == reference(rows, ("GI",))


def test_fold_is_generated_once_per_shape():
    db = Database()
    db.register_table("T", SCHEMA, [])
    first = db.plan(aggregate_sql(("GI",)))
    second = db.plan(aggregate_sql(("GI",)))
    assert first._fold is second._fold


# -- flush points of the benchmark's GROUP BY workload ----------------------

GROUP_SCHEMA = Schema([Column("GK", ColumnType.INT64),
                       Column("IV", ColumnType.INT64)])
GROUP_SQL = ("SELECT GK, COUNT(*), SUM(IV), MIN(IV), MAX(IV), AVG(IV) "
             "FROM G GROUP BY GK")


@pytest.mark.parametrize(
    "seed, rows_spilled, bytes_written, runs_written, collapsed, groups", [
        (1, 1_422, 102_384, 36, 4_578, 261),
        (2, 1_479, 106_488, 37, 4_521, 261),
        (3, 1_468, 105_696, 37, 4_532, 258),
    ])
def test_flush_points_pinned(seed, rows_spilled, bytes_written,
                             runs_written, collapsed, groups):
    """``groupby_zipf``'s smoke input: where the fold flushes, what it
    spills and how much collapses in memory stay fixed."""
    rng = np.random.default_rng(seed)
    keys = rng.zipf(1.5, 6000) % 300
    values = rng.integers(0, 1000, 6000)
    db = Database(memory_rows=40)
    db.register_table("G", GROUP_SCHEMA,
                      list(zip(keys.tolist(), values.tolist())))
    result = db.sql(GROUP_SQL)
    node = result.plan
    assert isinstance(node, GroupedAggregate)
    io = result.stats.io
    assert io.rows_spilled == rows_spilled
    assert io.bytes_written == bytes_written
    assert io.runs_written == runs_written
    assert node.groups_collapsed_rungen == collapsed
    assert node.groups_out == groups == len(result.rows)


def test_query_memory_budget_reaches_the_aggregate():
    """GROUP BY runs at the query's budget, not the session default: a
    ``memory_rows`` override (plain and join input) and a shrunk service
    lease both reach the operator, which spills and still returns the
    reference output."""
    rng = np.random.default_rng(5)
    keys = rng.permutation(np.arange(20_000) % 5_000)
    values = rng.integers(0, 1000, 20_000)
    rows = list(zip(keys.tolist(), values.tolist()))
    groups: dict = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    oracle = [(key, len(v), sum(v), min(v), max(v), sum(v) / len(v))
              for key, v in sorted(groups.items())]
    db = Database(memory_rows=100_000)
    db.register_table("G", GROUP_SCHEMA, rows)
    db.register_table("D", Schema([Column("DK", ColumnType.INT64)]),
                      [(key,) for key in range(5_000)])

    default = db.sql(GROUP_SQL)
    assert default.plan.memory_rows == 100_000
    assert default.stats.io.rows_spilled == 0
    assert default.rows == oracle

    joined_sql = GROUP_SQL.replace("FROM G", "FROM G JOIN D ON GK = DK")
    for sql in (GROUP_SQL, joined_sql):
        result = db.sql(sql, memory_rows=100)
        assert isinstance(result.plan, GroupedAggregate)
        assert result.plan.memory_rows == 100
        assert result.stats.io.rows_spilled > 0
        assert result.rows == oracle

    with QueryService(db, workers=1, total_memory_rows=100) as service:
        served = service.execute(GROUP_SQL)
    assert served.stats.granted_rows == 100
    assert served.stats.lease_shrunk
    assert served.operator_stats.io.rows_spilled > 0
    assert served.rows == oracle


# -- SUM and AVG take numeric columns only ----------------------------------

TYPED_SCHEMA = Schema([
    Column("G", ColumnType.INT64),
    Column("H", ColumnType.STRING, nullable=True),
    Column("D", ColumnType.DATE, nullable=True),
    Column("B", ColumnType.BOOL, nullable=True),
    Column("X", ColumnType.DECIMAL, nullable=True),
])
TYPED_ROWS = [
    (1, "a", datetime.date(2020, 1, 2), True, 1.5),
    (1, "b", datetime.date(2020, 1, 1), True, 2.25),
    (2, None, None, False, None),
]


@pytest.fixture
def typed_db():
    db = Database(memory_rows=1)
    db.register_table("T", TYPED_SCHEMA, TYPED_ROWS)
    return db


@pytest.mark.parametrize("func", ["SUM", "AVG"])
@pytest.mark.parametrize("column, type_name", [
    ("H", "STRING"), ("D", "DATE"), ("B", "BOOL")])
def test_sum_avg_reject_non_numeric_at_plan_time(typed_db, func, column,
                                                 type_name):
    sql = f"SELECT G, {func}({column}) FROM T GROUP BY G"
    with pytest.raises(PlanError, match=rf"{column}.*{type_name}"):
        typed_db.plan(sql)
    with pytest.raises(PlanError, match=type_name):
        typed_db.sql(f"SELECT {func}({column}) FROM T")


def test_sum_avg_accept_decimal(typed_db):
    result = typed_db.sql("SELECT G, SUM(X), AVG(X) FROM T GROUP BY G")
    assert result.rows == [(1, 3.75, 1.875), (2, None, None)]


def test_count_min_max_accept_every_type(typed_db):
    result = typed_db.sql(
        "SELECT G, COUNT(H), MIN(H), MAX(H), COUNT(D), MIN(D), MAX(D), "
        "MIN(B), MAX(B) FROM T GROUP BY G")
    assert result.rows == [
        (1, 2, "a", "b", 2, datetime.date(2020, 1, 1),
         datetime.date(2020, 1, 2), True, True),
        (2, 0, None, None, 0, None, None, False, False),
    ]
