"""Differential oracle suite for rank-aware joins (ISSUE 8).

A brute-force in-memory reference — nested-loop join in input order,
NULL-rejecting WHERE applied post-join, stable sort by the query's
:class:`~repro.rows.sortspec.SortSpec` key, slice — is checked
byte-identical against the engine over every axis the join planner can
vary:

* join type (INNER / LEFT) and physical method (hash / sort-merge),
* grouped (``LIMIT k PER g``) vs. ungrouped top-k,
* cutoff pushdown pinned on / off / costed,
* row / batch / vectorized physical top-k paths,
* in-memory vs. spilling regimes (tiny ``memory_rows`` budgets),

with duplicate join keys, empty sides, and NULL join/group keys arising
by construction from the strategies in :mod:`tests.test_strategies`.

The semantics the reference encodes (and therefore pins):

* NULL join keys never match — not even NULL = NULL (both joins drop
  NULL-keyed build rows and NULL-keyed probe rows match nothing).  NaN
  keys are the same: the reference compares with ``==``, under which
  NaN matches nothing, while -0.0 matches 0.0.
* A LEFT join emits unmatched left rows padded with NULLs; WHERE
  predicates naming right-side columns evaluate *after* the join under
  three-valued logic, so padding rows are rejected (NULL compares to
  nothing).
* Grouped top-k over a join emits groups in group-value order with the
  NULL group last, rows within each group in sort-key order, at most
  ``k`` per group.
"""

from __future__ import annotations

import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.session import Database
from repro.engine.operators import (
    HashJoin,
    Limit,
    Operator,
    SortMergeJoin,
    Table,
    TableScan,
    VectorizedTopK,
)
from repro.rows.batch import numeric_key_array
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from tests.test_strategies import (
    JOIN_OUT_SCHEMA,
    LEFT_SCHEMA,
    RIGHT_SCHEMA,
    joined_tables,
    unique_key_tables,
)

# Column indexes in the join-output row layout
# (LID, JK, LV, RID, RK, RV) — see tests.test_strategies.
JK, LV = 1, 2
RID, RK = 3, 4


# -- the brute-force reference -------------------------------------------


def nested_loop_join(left, right, join_type):
    """All join-output rows, in left-input x right-input order."""
    out = []
    pad = (None,) * len(RIGHT_SCHEMA.columns)
    for lrow in left:
        key = lrow[JK]
        matches = ([rrow for rrow in right
                    if rrow[1] is not None and rrow[1] == key]
                   if key is not None else [])
        if matches:
            out.extend(lrow + rrow for rrow in matches)
        elif join_type == "left":
            out.append(lrow + pad)
    return out


def apply_where(rows, predicates):
    """Post-join WHERE under three-valued logic (NULL -> rejected)."""

    def keep(row):
        for index, op, value in predicates:
            field = row[index]
            if field is None:
                return False
            if op == ">=" and not field >= value:
                return False
            if op == "<" and not field < value:
                return False
        return True

    return [row for row in rows if keep(row)]


def output_spec(order_columns):
    return SortSpec(JOIN_OUT_SCHEMA,
                    [SortColumn(name, ascending=asc)
                     for name, asc in order_columns])


def reference_topk(joined, order_columns, k):
    spec = output_spec(order_columns)
    return sorted(joined, key=spec.key)[:k]


def reference_grouped(joined, order_columns, group_index, k):
    """Groups in value order (NULL group last), sorted rows, k each."""
    spec = output_spec(order_columns)
    groups: dict = {}
    for row in joined:
        groups.setdefault(row[group_index], []).append(row)
    ordered = sorted(groups,
                     key=lambda g: (g is None, g if g is not None else 0))
    out = []
    for group in ordered:
        out.extend(sorted(groups[group], key=spec.key)[:k])
    return out


def make_db(left, right, **kwargs):
    db = Database(**kwargs)
    db.register_table("L", LEFT_SCHEMA, left, row_count=len(left))
    db.register_table("R", RIGHT_SCHEMA, right, row_count=len(right))
    return db


# -- differential legs ----------------------------------------------------


@given(tables=joined_tables(),
       k=st.integers(1, 30),
       memory=st.sampled_from([4, 32, 100_000]),
       join_method=st.sampled_from(["auto", "hash", "merge"]),
       pushdown=st.sampled_from([None, True, False]),
       path=st.sampled_from([None, "batch"]))
@settings(max_examples=60, deadline=None)
def test_inner_join_topk_differential(tables, k, memory, join_method,
                                      pushdown, path):
    """Inner top-k over a join: every physical combination, one answer."""
    left, right = tables
    joined = nested_loop_join(left, right, "inner")
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    db = make_db(left, right, memory_rows=memory,
                 join_method=join_method, pushdown=pushdown,
                 force_path=path)
    result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                    f"ORDER BY LV, LID, RID LIMIT {k}")
    assert result.rows == oracle


@given(tables=joined_tables(),
       k=st.integers(1, 30),
       memory=st.sampled_from([4, 100_000]),
       join_method=st.sampled_from(["hash", "merge"]),
       where_left=st.one_of(st.none(), st.integers(0, 45)),
       where_right=st.one_of(st.none(), st.integers(0, 10)))
@settings(max_examples=50, deadline=None)
def test_left_join_differential(tables, k, memory, join_method,
                                where_left, where_right):
    """LEFT join with NULL padding, left-pushed and residual WHERE."""
    left, right = tables
    joined = nested_loop_join(left, right, "left")
    predicates = []
    clauses = []
    if where_left is not None:
        predicates.append((LV, ">=", where_left))
        clauses.append(f"LV >= {where_left}")
    if where_right is not None:
        # Right-side predicate: must stay post-join (rejects padding).
        predicates.append((RID, "<", where_right))
        clauses.append(f"RID < {where_right}")
    joined = apply_where(joined, predicates)
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    db = make_db(left, right, memory_rows=memory,
                 join_method=join_method)
    result = db.sql(f"SELECT * FROM L LEFT JOIN R ON L.JK = R.RK{where} "
                    f"ORDER BY LV, LID, RID LIMIT {k}")
    assert result.rows == oracle


@given(tables=joined_tables(),
       k=st.integers(1, 25),
       memory=st.sampled_from([4, 24, 100_000]),
       join_method=st.sampled_from(["auto", "hash", "merge"]))
@settings(max_examples=50, deadline=None)
def test_pushdown_is_semantically_invisible(tables, k, memory,
                                            join_method):
    """The safety property: pushdown on is byte-identical to pushdown
    off, and never spills *more* (it can only drop sort-side input)."""
    left, right = tables
    # RID completes the total order: without it a left row with several
    # matches has tied (LV, LID) outputs, and the external sort is not
    # stable across spills, so the nested-loop reference could disagree.
    sql = ("SELECT * FROM L JOIN R ON L.JK = R.RK "
           f"ORDER BY LV, LID, RID LIMIT {k}")

    def run(pushdown):
        db = make_db(left, right, memory_rows=memory,
                     join_method=join_method, pushdown=pushdown)
        return db.sql(sql)

    off = run(False)
    on = run(True)
    assert on.rows == off.rows
    assert on.stats.io.rows_spilled <= off.stats.io.rows_spilled
    # The reference agrees with both.
    joined = nested_loop_join(left, right, "inner")
    assert off.rows == reference_topk(
        joined, [("LV", True), ("LID", True), ("RID", True)], k)


@given(tables=joined_tables(),
       k=st.integers(1, 8),
       memory=st.sampled_from([4, 100_000]),
       join_type=st.sampled_from(["inner", "left"]),
       descending=st.booleans())
@settings(max_examples=50, deadline=None)
def test_grouped_topk_over_join_differential(tables, k, memory,
                                             join_type, descending):
    """``LIMIT k PER JK`` over a join, including the NULL group."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    order_columns = [("LV", not descending), ("LID", True), ("RID", True)]
    oracle = reference_grouped(joined, order_columns, JK, k)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    order = "LV DESC" if descending else "LV"
    db = make_db(left, right, memory_rows=memory)
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK "
                    f"ORDER BY {order}, LID, RID LIMIT {k} PER JK")
    assert result.rows == oracle


@given(tables=unique_key_tables(),
       k=st.integers(1, 40),
       memory=st.sampled_from([8, 100_000]),
       pushdown=st.sampled_from([None, True, False]))
@settings(max_examples=40, deadline=None)
def test_vectorized_path_over_join_differential(tables, k, memory,
                                                pushdown):
    """Single numeric ORDER BY column: the vectorized top-k lowering
    over a join agrees with the reference (unique keys by construction,
    so the total order needs no tiebreak)."""
    left, right = tables
    joined = nested_loop_join(left, right, "inner")
    oracle = reference_topk(joined, [("LV", True)], k)
    db = make_db(left, right, memory_rows=memory,
                 force_path="vectorized", pushdown=pushdown)
    result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                    f"ORDER BY LV LIMIT {k}")
    assert result.rows == oracle

    def has_vectorized(node):
        return isinstance(node, VectorizedTopK) or any(
            has_vectorized(child) for child in node.children())

    assert has_vectorized(result.plan)


@given(tables=joined_tables(),
       join_method=st.sampled_from(["hash", "merge"]),
       join_type=st.sampled_from(["inner", "left"]))
@settings(max_examples=40, deadline=None)
def test_join_without_order_by_is_the_same_multiset(tables, join_method,
                                                    join_type):
    """No ORDER BY: both physical joins emit the reference *multiset*;
    the hash join additionally preserves probe (left-input) order."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    db = make_db(left, right, join_method=join_method)
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK")
    if join_method == "hash":
        assert result.rows == joined
    else:
        key = output_spec([("LID", True), ("RID", True)]).key
        assert sorted(result.rows, key=key) == sorted(joined, key=key)


# -- the batch-native hash join probe -------------------------------------


def hash_join(left, right, join_type):
    """A bare ``HashJoin`` on L.JK = R.RK over scans of ``left``/``right``."""
    return HashJoin(TableScan(Table("L", LEFT_SCHEMA, left)),
                    TableScan(Table("R", RIGHT_SCHEMA, right)),
                    JK, 1, join_type, JOIN_OUT_SCHEMA)


@given(tables=joined_tables(),
       join_type=st.sampled_from(["inner", "left"]),
       unique_build=st.booleans(),
       batch_rows=st.sampled_from([1, 7, 4096]),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_hash_join_batches_and_counters(tables, join_type, unique_build,
                                        batch_rows, rnd):
    """The hash join's batch stream and counters agree with the
    nested-loop reference at every batch size, for both probe shapes:
    an INNER join on unique build keys (the flat probe, whose batches
    defer their rows), and a LEFT join or a build side with duplicate
    keys (the bucket probe).  Before any batch's rows are read, its
    ``len()``, ``take()`` and probe-side ``key_array()`` already agree
    with the rows it then builds, and a flat probe has built only the
    rows taken."""
    left, right = tables
    if unique_build:
        right = list({row[1]: row for row in right}.values())
    build_keys = [row[1] for row in right if row[1] is not None]
    flat = join_type == "inner" and len(set(build_keys)) == len(build_keys)
    expected = nested_loop_join(left, right, join_type)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operator, "batch_rows", batch_rows)
        join = hash_join(left, right, join_type)
        assert list(join.rows()) == expected
        batches = list(join.batches())
    assert join.rows_built == (0 if flat else len(expected))
    lengths = [len(batch) for batch in batches]
    picks = [[rnd.randrange(length) for _ in range(rnd.randrange(4))]
             for length in lengths]
    taken = [batch.take(pick) for batch, pick in zip(batches, picks)]
    arrays = [[batch.key_array(i) for i in range(len(LEFT_SCHEMA))]
              for batch in batches]
    assert join.rows_built == (sum(map(len, picks)) if flat
                               else len(expected))
    assert [row for batch in batches for row in batch.rows] == expected
    for batch, length, pick, rows, probe_arrays in zip(
            batches, lengths, picks, taken, arrays):
        assert length == len(batch.rows)
        assert rows == [batch.rows[i] for i in pick]
        for i, array in enumerate(probe_arrays):
            assert same_bits(array, numeric_key_array(JOIN_OUT_SCHEMA,
                                                      batch.rows, i))
    assert all(0 < len(batch) <= batch_rows for batch in batches)
    assert join.rows_build == len(right)
    assert join.rows_probe == len(left)
    assert join.rows_matched == sum(row[RID] is not None for row in expected)
    assert join.stats.rows_output == len(expected)
    assert join.stats.rows_consumed == len(left) + len(right)


def same_bits(left, right) -> bool:
    """Both ``None``, or arrays equal bit for bit (NaN and -0.0 too)."""
    if left is None or right is None:
        return left is None and right is None
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


@pytest.mark.parametrize("matching", ["none", "some", "all"])
@pytest.mark.parametrize("key_type", [ColumnType.INT64, ColumnType.FLOAT64])
def test_flat_probe_batches_defer_their_rows(key_type, matching):
    """Probe batches where none, some or all rows match: the flat probe
    emits deferred batches that build nothing until taken from, answer
    ``len()`` and probe-side ``key_array()`` without building (a view of
    the table's column when every row matched), and build each taken row
    once; a LIMIT over the join builds its window only.  The keys hold
    ints that share a float64 (2**53 and 2**53 + 1 stay apart), -0.0
    (it matches 0.0) and NaN (it matches nothing)."""
    schema = Schema([Column("LID", ColumnType.INT64),
                     Column("JK", key_type),
                     Column("LV", ColumnType.FLOAT64)])
    right_schema = Schema([Column("RID", ColumnType.INT64),
                           Column("RK", key_type),
                           Column("RV", ColumnType.INT64)])
    out_schema = Schema(list(schema.columns) + list(right_schema.columns))
    if key_type is ColumnType.INT64:
        pool, some = [2**53, 2**53 + 1, 5, 7, 9], [2**53 + 1, 5]
    else:
        pool, some = [0.0, -0.0, 1.5, math.inf, 2.0**60], [-0.0, 1.5]
    build = {"none": [], "some": some,
             "all": list(dict.fromkeys(pool))}[matching]
    if matching == "some" and key_type is ColumnType.FLOAT64:
        pool = pool + [math.nan]
    rng = random.Random(len(pool))
    left = [(i, rng.choice(pool), rng.random()) for i in range(50)]
    right = [(j, key, 10 * j)
             for j, key in enumerate([2**53 - 1, 3.25] + build)]
    join = HashJoin(TableScan(Table("L", schema, left)),
                    TableScan(Table("R", right_schema, right)),
                    1, 1, "inner", out_schema)
    rows = {row[1]: row for row in right}
    expected = [row + rows[row[1]] for row in left if row[1] in rows]
    batches = list(join.batches())
    if matching == "none" or not expected:
        assert batches == [] and expected == []
        return
    (batch,) = batches
    assert len(batch) == len(expected)
    column = join.left.table.key_column(2)
    keys = batch.key_array(2)
    assert np.shares_memory(keys, column) == (len(expected) == 50)
    assert join.rows_built == 0
    assert batch.take([len(expected) - 1, 0]) == [expected[-1], expected[0]]
    assert batch.take(np.array([1])) == expected[1:2]
    assert batch.take(range(1, 3)) == expected[1:3]
    assert join.rows_built == 5
    assert batch.rows == expected
    assert join.rows_built == 5 + len(expected)
    assert same_bits(keys, numeric_key_array(out_schema, expected, 2))
    assert batch.key_array(4).tolist() == [float(row[4]) for row in expected]
    assert batch.take([0]) == expected[:1]
    assert join.rows_built == 5 + len(expected)  # taken from the built rows
    # A plain LIMIT/OFFSET over the join builds only its window.
    assert list(Limit(join, 3, offset=2).rows()) == expected[2:5]
    assert join.rows_built == len(expected[2:5])
    # A probe batch longer than the join's batches goes out in chunks.
    join.batch_rows = 16
    chunks = list(join.batches())
    assert [len(chunk) for chunk in chunks] == [
        len(expected[start:start + 16])
        for start in range(0, len(expected), 16)]
    assert [row for chunk in chunks
            for row in chunk.take(range(len(chunk) - 1, -1, -1))[::-1]
            ] == expected
    assert join.rows_built == len(expected)


def test_a_top_k_over_a_fk_join_builds_only_the_rows_it_keeps(monkeypatch):
    """The benchmark's skewed FK→PK shape at smoke size (6,000 fact rows
    joined to 20 dimension rows, ``ORDER BY SV, ID LIMIT 20``): the
    top-k takes its heap fill and the arrival prefilter's survivors from
    the join's deferred batches, so the join builds exactly those rows,
    about 3% of the rows it matched (as at full size), and EXPLAIN
    ANALYZE says so."""
    topk = importlib.import_module("repro.core.topk")
    survivors = []
    make = topk.leading_column_prefilter

    def counting(spec, binary):
        keep = make(spec, binary)

        def counted(batch, bound, start=0):
            flags = keep(batch, bound, start)
            survivors.append(sum(flags))
            return flags

        return counted

    monkeypatch.setattr(topk, "leading_column_prefilter", counting)
    # As many batches as the full size's 300,000 rows make at 4,096 rows
    # a batch: the prefilter's bound sharpens from batch to batch.
    monkeypatch.setattr(Operator, "batch_rows", 82)
    fact_schema = Schema([Column("ID", ColumnType.INT64),
                          Column("FK", ColumnType.INT64),
                          Column("SV", ColumnType.FLOAT64)])
    dim_schema = Schema([Column("DK", ColumnType.INT64),
                         Column("DV", ColumnType.INT64)])
    rng = np.random.default_rng(1)
    count, dims, k = 6_000, 20, 20
    fact = list(zip(range(count), rng.integers(0, dims, size=count).tolist(),
                    rng.lognormal(mean=0.0, sigma=2.0, size=count).tolist()))
    dim = [(j, j * 10) for j in range(dims)]
    db = Database(memory_rows=200)
    db.register_table("FACT", fact_schema, fact)
    db.register_table("DIM", dim_schema, dim)
    result = db.sql("SELECT * FROM FACT JOIN DIM ON FACT.FK = DIM.DK "
                    f"ORDER BY SV, ID LIMIT {k}", explain_analyze=True)
    assert result.rows == sorted((row + dim[row[1]] for row in fact),
                                 key=lambda row: (row[2], row[0]))[:k]
    (join,) = [node for node in walk(result.plan)
               if isinstance(node, HashJoin)]
    assert join.rows_matched == count
    assert survivors  # the prefilter ran on every batch after the fill
    assert join.rows_built == k + sum(survivors)
    assert join.rows_built < count // 10
    assert f"join_rows_built={join.rows_built}\n" in \
        result.explain_analyze() + "\n"


def walk(node):
    """``node`` and every operator below it."""
    yield node
    for child in node.children():
        yield from walk(child)


@pytest.mark.parametrize("join_type", ["inner", "left"])
def test_hash_join_fan_out_is_built_one_batch_at_a_time(monkeypatch,
                                                         join_type):
    """A probe batch whose matches fan out past ``batch_rows`` is emitted
    in chunks of at most ``batch_rows`` rows, each built and counted only
    when it is pulled: the probe batch's whole output never exists at
    once, and a plain LIMIT (the planner puts ``Limit`` right on the
    join) that stops after the first chunk counts that chunk only."""
    monkeypatch.setattr(Operator, "batch_rows", 7)
    built = 0

    class CountingRow(tuple):
        def __add__(self, other):
            nonlocal built
            built += 1
            return tuple(self) + other

    # One probe batch of 7 rows: 5 match 20 build rows each, 2 match none.
    left = [CountingRow((i, 1 if i < 5 else 9, i)) for i in range(7)]
    right = [(j, 1, j) for j in range(20)] + [(20, 2, 0)]
    join = hash_join(left, right, join_type)
    batches = join.batches()
    first = next(batches)
    assert len(first) == 7
    assert built == len(first)
    assert join.rows_matched == join.stats.rows_output == 7
    rest = list(batches)
    assert all(0 < len(batch) <= 7 for batch in rest)
    expected = nested_loop_join(left, right, join_type)
    assert [row for batch in (first, *rest)
            for row in batch.rows] == expected
    assert join.rows_matched == 100
    assert join.stats.rows_output == len(expected)

    db = Database(join_method="hash")
    db.register_table("L", LEFT_SCHEMA, [tuple(row) for row in left])
    db.register_table("R", RIGHT_SCHEMA, right)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    analyzed = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK LIMIT 3",
                      explain_analyze=True).explain_analyze()
    assert "join_rows_matched=7\n" in analyzed


# -- floating-point join keys ---------------------------------------------

NAN = object()  # a pool marker: becomes ``math.nan`` or a fresh NaN
FLOAT_KEY_POOL = (0.0, -0.0, 1.5, math.inf, -math.inf, NAN)


def float_key_tables(shared_nan, nullable):
    """(left, right) rows and schemas joining on FLOAT64 keys drawn from
    ±0.0, ±inf, NaN (the one ``math.nan`` object, or a distinct NaN
    object per row) and, when ``nullable``, NULL."""
    rng = random.Random(5)
    pool = FLOAT_KEY_POOL + ((None,) if nullable else ())

    def key():
        value = rng.choice(pool)
        if value is NAN:
            return math.nan if shared_nan else float("nan")
        return value

    def schema(prefix):
        return Schema([
            Column(f"{prefix}ID", ColumnType.INT64),
            Column("JK" if prefix == "L" else "RK", ColumnType.FLOAT64,
                   nullable=nullable),
            Column(f"{prefix}V", ColumnType.INT64),
        ])

    left = [(i, key(), rng.randrange(40)) for i in range(60)]
    right = [(j, key(), rng.randrange(10)) for j in range(20)]
    return left, right, schema("L"), schema("R")


def exact(rows):
    """Rows with each float as its repr: NaN equals NaN, and -0.0 is
    told apart from 0.0."""
    return [tuple(repr(value) if isinstance(value, float) else value
                  for value in row) for row in rows]


@pytest.mark.parametrize("memory", [8, 1000])
@pytest.mark.parametrize("join_type", ["inner", "left"])
@pytest.mark.parametrize("join_method", ["hash", "merge"])
@pytest.mark.parametrize("nullable", [False, True],
                         ids=["not-null", "nullable"])
@pytest.mark.parametrize("shared_nan", [True, False],
                         ids=["math.nan", "distinct-nan"])
def test_float_join_keys_match_by_equality(shared_nan, nullable,
                                           join_method, join_type, memory):
    """Both join methods match FLOAT64 keys by ``==``: NaN matches
    nothing, whether or not it is the same object (a LEFT join pads its
    row), -0.0 matches 0.0, and ±inf match themselves."""
    left, right, left_schema, right_schema = float_key_tables(shared_nan,
                                                              nullable)
    expected = reference_topk(nested_loop_join(left, right, join_type),
                              [("LV", True), ("LID", True), ("RID", True)],
                              len(left) * len(right))
    db = Database(memory_rows=memory, join_method=join_method)
    db.register_table("L", left_schema, left)
    db.register_table("R", right_schema, right)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK "
                    f"ORDER BY LV, LID, RID LIMIT {len(left) * len(right)}")
    assert exact(result.rows) == exact(expected)


# -- tables declared sorted on the join key --------------------------------

SORTED_SIDES = ["both", "left", "right"]


def in_key_order(rows):
    """Rows in ascending join-key order (column 1), NULL and NaN keys
    last: the physical order a ``sorted_by`` on the key declares."""
    def unordered(key):
        return key is None or key != key

    return sorted(rows, key=lambda row: (unordered(row[1]),
                                         0 if unordered(row[1]) else row[1]))


def declared_db(left, right, left_schema, right_schema, declared,
                **kwargs):
    """Both sides stored in join-key order; ``declared`` names the sides
    that say so (``sorted_by``)."""
    db = Database(**kwargs)
    db.register_table(
        "L", left_schema, in_key_order(left),
        sorted_by=["JK"] if declared in ("both", "left") else None)
    db.register_table(
        "R", right_schema, in_key_order(right),
        sorted_by=["RK"] if declared in ("both", "right") else None)
    return db


def join_node(node):
    """The join operator under ``node``, on a chain of one-input nodes."""
    while not isinstance(node, (HashJoin, SortMergeJoin)):
        (node,) = node.children()
    return node


@given(tables=joined_tables(),
       k=st.integers(1, 30),
       memory=st.sampled_from([4, 100_000]),
       declared=st.sampled_from(SORTED_SIDES),
       join_type=st.sampled_from(["inner", "left"]),
       join_method=st.sampled_from(["auto", "hash", "merge"]))
@settings(max_examples=60, deadline=None)
def test_declared_sorted_join_keys_differential(tables, k, memory, declared,
                                                join_type, join_method):
    """Tables declared sorted on the join key (both sides, or one) give
    the reference answer under every join method, with NULL and
    duplicate keys, and ``auto`` still plans the hash join: a declared
    order earns only Section 4.2's sorted-prefix plans."""
    left, right = (in_key_order(side) for side in tables)
    oracle = reference_topk(nested_loop_join(left, right, join_type),
                            [("LV", True), ("LID", True), ("RID", True)], k)
    db = declared_db(left, right, LEFT_SCHEMA, RIGHT_SCHEMA, declared,
                     memory_rows=memory, join_method=join_method)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK "
                    f"ORDER BY LV, LID, RID LIMIT {k}")
    assert result.rows == oracle
    expected = SortMergeJoin if join_method == "merge" else HashJoin
    assert type(join_node(result.plan)) is expected


@pytest.mark.parametrize("memory", [8, 1000])
@pytest.mark.parametrize("join_method", ["auto", "hash", "merge"])
@pytest.mark.parametrize("join_type", ["inner", "left"])
@pytest.mark.parametrize("declared", SORTED_SIDES)
def test_declared_sorted_float_join_keys(declared, join_type, join_method,
                                         memory):
    """The same over FLOAT64 keys with NULL, NaN (distinct objects),
    ±0.0, ±inf and duplicates: NaN matches nothing, and a LEFT join
    pads its row."""
    left, right, left_schema, right_schema = float_key_tables(
        shared_nan=False, nullable=True)
    limit = len(left) * len(right)
    expected = reference_topk(nested_loop_join(left, right, join_type),
                              [("LV", True), ("LID", True), ("RID", True)],
                              limit)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    sql = (f"SELECT * FROM L {op} R ON L.JK = R.RK "
           f"ORDER BY LV, LID, RID LIMIT {limit}")
    db = declared_db(left, right, left_schema, right_schema, declared,
                     memory_rows=memory, join_method=join_method)
    result = db.sql(sql)
    assert exact(result.rows) == exact(expected)
    expected_join = SortMergeJoin if join_method == "merge" else HashJoin
    assert type(join_node(result.plan)) is expected_join


# -- streaming merge + fused aggregation legs (ISSUE 10) ------------------


@given(tables=joined_tables(),
       k=st.integers(1, 25),
       memory=st.sampled_from([4, 24]),
       join_type=st.sampled_from(["inner", "left"]))
@settings(max_examples=50, deadline=None)
def test_streaming_merge_pushdown_differential(tables, k, memory,
                                               join_type):
    """The streaming merge join under spill-forcing memory budgets:
    pushdown on and off are both byte-identical to the nested-loop
    oracle, and on never spills more (the run-generation publisher can
    only remove sort-side input)."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    sql = (f"SELECT * FROM L {op} R ON L.JK = R.RK "
           f"ORDER BY LV, LID, RID LIMIT {k}")

    def run(pushdown):
        db = make_db(left, right, memory_rows=memory,
                     join_method="merge", pushdown=pushdown)
        return db.sql(sql)

    off = run(False)
    on = run(True)
    assert off.rows == oracle
    assert on.rows == oracle
    assert on.stats.io.rows_spilled <= off.stats.io.rows_spilled


def reference_aggregate(rows):
    """GROUP BY JK with every aggregate, groups in value order (NULL
    last), AVG as one exact-int division — the engine's pinned
    arithmetic."""
    groups: dict = {}
    for _lid, jk, lv in rows:
        groups.setdefault(jk, []).append(lv)
    ordered = sorted(groups,
                     key=lambda g: (g is None, g if g is not None else 0))
    out = []
    for group in ordered:
        values = groups[group]
        total = sum(values)
        out.append((group, len(values), total, min(values), max(values),
                    total / len(values)))
    return out


AGGREGATE_SQL = ("SELECT JK, COUNT(*), SUM(LV), MIN(LV), MAX(LV), "
                 "AVG(LV) FROM L GROUP BY JK")


# -- deterministic edge legs ---------------------------------------------


class TestEdges:
    def test_both_sides_empty(self):
        db = make_db([], [])
        assert db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []
        assert db.sql("SELECT * FROM L LEFT JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []

    def test_empty_right_left_join_pads_everything(self):
        left = [(0, 1, 10), (1, None, 5)]
        db = make_db(left, [])
        result = db.sql("SELECT * FROM L LEFT JOIN R ON L.JK = R.RK "
                        "ORDER BY LV LIMIT 5")
        assert result.rows == [(1, None, 5, None, None, None),
                               (0, 1, 10, None, None, None)]

    def test_null_keys_never_match_even_null_to_null(self):
        left = [(0, None, 1)]
        right = [(0, None, 7)]
        db = make_db(left, right)
        assert db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []

    def test_duplicate_keys_cross_product(self):
        left = [(0, 3, 1), (1, 3, 2)]
        right = [(0, 3, 7), (1, 3, 8)]
        for method in ("hash", "merge"):
            db = make_db(left, right, join_method=method)
            result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                            "ORDER BY LV, LID, RID LIMIT 10")
            assert result.rows == nested_loop_join(left, right, "inner")

    def test_pushdown_actually_drops_rows_at_scale(self):
        """At engine scale the pushed filter measurably prunes the
        sort-side input before the join (the tentpole's point)."""
        rng = random.Random(5)
        left = [(i, rng.randrange(20), rng.randrange(100_000))
                for i in range(60_000)]
        right = [(j, j, j) for j in range(20)]
        db = make_db(left, right, memory_rows=2_000, pushdown=True)
        result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                        "ORDER BY LV LIMIT 100", explain_analyze=True)
        joined = nested_loop_join(left, right, "inner")
        assert result.rows == reference_topk(joined, [("LV", True)], 100)
        rendered = result.explain_analyze()
        assert "pushdown_rows_dropped" in rendered
        filters = [node for node in result.analysis.nodes()
                   if "pushdown_rows_dropped" in node.details]
        assert filters, rendered
        assert filters[0].details["pushdown_rows_dropped"] > 0

    def test_merge_pushdown_prunes_sort_side_spill_at_scale(self):
        """The tentpole: with the run-generation publisher wired, the
        pushed filter halves (at least) the sort side's spill volume
        under the streaming merge join, byte-identically."""
        rng = random.Random(5)
        left = [(i, rng.randrange(20), rng.randrange(100_000))
                for i in range(30_000)]
        right = [(j, j, j) for j in range(20)]
        joined = nested_loop_join(left, right, "inner")
        oracle = reference_topk(joined, [("LV", True), ("LID", True)],
                                100)
        sql = ("SELECT * FROM L JOIN R ON L.JK = R.RK "
               "ORDER BY LV, LID LIMIT 100")

        def run(pushdown):
            db = make_db(left, right, memory_rows=1_000,
                         join_method="merge", pushdown=pushdown)
            return db.sql(sql, explain_analyze=True)

        off = run(False)
        on = run(True)
        assert off.rows == oracle
        assert on.rows == oracle
        assert on.stats.io.rows_spilled * 2 <= off.stats.io.rows_spilled
        rendered = on.explain_analyze()
        assert "join_sort_spilled" in rendered
        assert "pushdown_rungen_publications" in rendered
        assert "pushdown_dropped_est_vs_actual" in rendered

    def test_fused_aggregation_spills_strictly_less_at_scale(self):
        """Fusion's point: spilled partial aggregates (≤ one row per
        group per run) undercut the raw rows an unfused post-sort pass
        would spill, with the reference output."""
        rng = random.Random(7)
        # More distinct groups than the memory budget, so aggregation
        # must spill partials.
        rows = [(i, rng.randrange(5_000), rng.randrange(1_000))
                for i in range(20_000)]
        db = make_db(rows, [], memory_rows=500)
        fused = db.sql(AGGREGATE_SQL, explain_analyze=True)
        assert fused.rows == reference_aggregate(rows)
        assert 0 < fused.stats.io.rows_spilled < len(rows)
        rendered = fused.explain_analyze()
        assert "groups_collapsed_rungen" in rendered
        # GROUP BY always fuses; there is no mode to pick.
        with pytest.raises(TypeError):
            Database(aggregate_fusion="postsort")

    @pytest.mark.slow_join
    def test_disk_scale_differential(self):
        """A spilling-scale randomized leg: 30,000 probe rows over 50
        duplicated join keys, the suite's only leg with duplicate keys
        at scale.  The default run includes it; ``-m "not slow_join"``
        deselects it."""
        rng = random.Random(11)
        left = [(i, rng.choice([None] + list(range(50))),
                 rng.randrange(500)) for i in range(30_000)]
        right = [(j, rng.choice([None] + list(range(50))),
                  rng.randrange(10)) for j in range(200)]
        joined = nested_loop_join(left, right, "inner")
        oracle = reference_topk(
            joined, [("LV", True), ("LID", True), ("RID", True)], 500)
        for method in ("hash", "merge"):
            for pushdown in (False, True):
                db = make_db(left, right, memory_rows=300,
                             join_method=method, pushdown=pushdown)
                result = db.sql(
                    "SELECT * FROM L JOIN R ON L.JK = R.RK "
                    "ORDER BY LV, LID, RID LIMIT 500")
                assert result.rows == oracle
