"""The RowBatch substrate and the ``batches()`` / ``rows()`` equivalence.

Two families of guarantees:

* :class:`~repro.rows.batch.RowBatch` mechanics — key-column extraction
  and caching, masked/filtered/mapped derivations, chunking and
  flattening round trips;
* the pipeline contract: for **every** physical operator, flattening
  ``batches()`` yields exactly the rows of ``rows()`` (the two surfaces
  are interchangeable), and batch execution of the top-k algorithms
  equals row execution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import HistogramTopK
from repro.engine.operators import (
    Filter,
    GroupedTopKOperator,
    InMemorySort,
    Limit,
    Project,
    SegmentedTopKOperator,
    Table,
    TableScan,
    TopK,
    TOPK_ALGORITHMS,
)
from repro.rows.batch import (
    DEFAULT_BATCH_ROWS,
    RowBatch,
    batches_from_rows,
    flatten,
    numeric_key_column,
)
from repro.rows.lineitem import LINEITEM_SCHEMA, generate_lineitem
from repro.rows.schema import Column, ColumnType, Schema, single_key_schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.spill import SpillManager

KEY_SCHEMA = single_key_schema()


def key_rows(values) -> list[tuple]:
    return [(float(value),) for value in values]


# -- RowBatch mechanics ------------------------------------------------------


class TestRowBatch:
    def test_len_iter_repr(self):
        batch = RowBatch(KEY_SCHEMA, key_rows([3, 1, 2]))
        assert len(batch) == 3
        assert list(batch) == key_rows([3, 1, 2])
        assert "3 rows" in repr(batch)

    def test_key_array_extracts_and_caches(self):
        batch = RowBatch(KEY_SCHEMA, key_rows([3, 1, 2]))
        array = batch.key_array(0)
        assert array.dtype == np.float64
        assert list(array) == [3.0, 1.0, 2.0]
        assert batch.key_array(0) is array  # cached

    def test_key_array_refuses_non_numeric(self):
        schema = Schema([Column("s", ColumnType.STRING)])
        batch = RowBatch(schema, [("a",), ("b",)])
        assert batch.key_array(0) is None

    def test_key_array_refuses_nullable(self):
        schema = Schema([Column("k", ColumnType.FLOAT64, nullable=True)])
        batch = RowBatch(schema, [(1.0,), (None,)])
        assert batch.key_array(0) is None

    def test_filter_and_map(self):
        batch = RowBatch(KEY_SCHEMA, key_rows([5, 1, 4, 2]))
        kept = batch.filter(lambda row: row[0] > 2)
        assert kept.rows == key_rows([5, 4])
        doubled = batch.map(lambda row: (row[0] * 2,), KEY_SCHEMA)
        assert doubled.rows == key_rows([10, 2, 8, 4])

    def test_take_mask_numpy_and_sequence(self):
        batch = RowBatch(KEY_SCHEMA, key_rows([5, 1, 4]))
        masked = batch.take_mask(np.array([True, False, True]))
        assert masked.rows == key_rows([5, 4])
        masked = batch.take_mask([False, True, True])
        assert masked.rows == key_rows([1, 4])


class TestNumericKeyColumn:
    def test_ascending_numeric(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])
        index, negate = numeric_key_column(spec)
        assert index == LINEITEM_SCHEMA.index_of("L_ORDERKEY")
        assert negate is False

    def test_descending_numeric_negates(self):
        spec = SortSpec(LINEITEM_SCHEMA,
                        [SortColumn("L_EXTENDEDPRICE", ascending=False)])
        _index, negate = numeric_key_column(spec)
        assert negate is True

    def test_multi_column_rejected(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY", "L_LINENUMBER"])
        assert numeric_key_column(spec) is None

    def test_string_column_rejected(self):
        spec = SortSpec(LINEITEM_SCHEMA, ["L_SHIPMODE"])
        assert numeric_key_column(spec) is None


class TestChunking:
    @given(count=st.integers(0, 300), batch_rows=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_flatten_round_trip(self, count, batch_rows):
        rows = key_rows(range(count))
        batches = list(batches_from_rows(rows, KEY_SCHEMA, batch_rows))
        assert list(flatten(batches)) == rows
        assert all(len(batch) <= batch_rows for batch in batches)
        # every batch except the last is full
        assert all(len(batch) == batch_rows for batch in batches[:-1])

    def test_iterator_source_matches_sequence_source(self):
        rows = key_rows(range(100))
        from_list = [b.rows for b in batches_from_rows(rows, KEY_SCHEMA, 7)]
        from_iter = [b.rows
                     for b in batches_from_rows(iter(rows), KEY_SCHEMA, 7)]
        assert from_list == from_iter

    def test_failing_source_delivers_its_rows_then_the_error(self):
        def source():
            yield from key_rows(range(10))
            raise RuntimeError("source failed")

        batches = batches_from_rows(source(), KEY_SCHEMA, 64)
        assert next(batches).rows == key_rows(range(10))
        with pytest.raises(RuntimeError, match="source failed"):
            next(batches)


# -- Table row-count learning (streaming sources) ----------------------------


class TestTableRowCount:
    def test_sequence_source_counts_immediately(self):
        table = Table("T", KEY_SCHEMA, key_rows([1, 2, 3]))
        assert table.row_count == 3

    def test_callable_sized_source_learns_on_first_scan(self):
        table = Table("T", KEY_SCHEMA, lambda: key_rows([1, 2, 3]))
        assert table.row_count is None
        list(table.rows())
        assert table.row_count == 3

    def test_callable_generator_source_learns_on_exhaustion(self):
        def source():
            yield from key_rows([1, 2, 3, 4])

        table = Table("T", KEY_SCHEMA, source)
        assert table.row_count is None
        iterator = table.rows()
        next(iterator)
        assert table.row_count is None  # not yet exhausted
        list(iterator)
        assert table.row_count == 4

    def test_explicit_row_count_wins(self):
        table = Table("T", KEY_SCHEMA, lambda: key_rows([1, 2]),
                      row_count=2_000_000)
        assert table.row_count == 2_000_000

    def test_batches_learn_too(self):
        def source():
            yield from key_rows(range(10))

        table = Table("T", KEY_SCHEMA, source)
        list(table.batches(batch_rows=3))
        assert table.row_count == 10


# -- key columns served from the table ---------------------------------------

PAIR_SCHEMA = Schema([Column("K", ColumnType.FLOAT64),
                      Column("ID", ColumnType.INT64)])


def own_array(batch: RowBatch, column_index: int):
    """The array the batch's rows give when converted on their own."""
    return RowBatch(batch.schema, batch.rows).key_array(column_index)


def same_bits(left, right) -> bool:
    """Both ``None``, or arrays equal bit for bit (NaN and -0.0 too)."""
    if left is None or right is None:
        return left is None and right is None
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


class TestTableKeyColumns:
    """A list or tuple source's scan batches slice one cached float64
    column per key column instead of converting their own rows."""

    def test_scan_batches_slice_the_table_column(self):
        rows = [(float(i) * 0.5, i) for i in range(1_000)]
        table = Table("T", PAIR_SCHEMA, rows)
        batches = list(table.batches(batch_rows=96))
        assert len(batches[-1]) == 1_000 % 96  # the last batch is short
        for column_index in (0, 1):
            column = table.key_column(column_index)
            for batch in batches:
                array = batch.key_array(column_index)
                assert np.shares_memory(array, column)
                assert same_bits(array, np.fromiter(
                    (row[column_index] for row in batch.rows),
                    dtype=np.float64, count=len(batch)))

    def test_tuple_source_is_served_too(self):
        rows = tuple((float(i), i) for i in range(50))
        table = Table("T", PAIR_SCHEMA, rows)
        batch = next(iter(table.batches(batch_rows=20)))
        assert isinstance(batch.rows, list)
        assert np.shares_memory(batch.key_array(0), table.key_column(0))

    def test_an_unconvertible_value_leaves_other_batches_served(self):
        rows = [(float(i), i) for i in range(100)]
        rows[45] = ("abc", 45)
        table = Table("T", PAIR_SCHEMA, rows)
        assert table.key_column(0) is None
        arrays = [batch.key_array(0) for batch in table.batches(batch_rows=20)]
        assert arrays[2] is None  # rows 40..59 hold the bad value
        for index, array in enumerate(arrays):
            if index != 2:
                assert array.tolist() == [float(i) for i in
                                          range(20 * index, 20 * index + 20)]

    def test_nullable_column_gives_none(self):
        schema = Schema([Column("K", ColumnType.FLOAT64, nullable=True)])
        table = Table("T", schema, [(1.0,), (2.0,), (3.0,)])
        assert table.key_column(0) is None
        assert all(batch.key_array(0) is None
                   for batch in table.batches(batch_rows=2))

    def test_a_changed_length_rebuilds_the_column(self):
        rows = [(float(i), i) for i in range(10)]
        table = Table("T", PAIR_SCHEMA, rows)
        first = table.key_column(0)
        rows.extend([(float(i), i) for i in range(10, 15)])
        batches = list(table.batches(batch_rows=4))
        assert [batch.key_array(0).tolist() for batch in batches] == [
            [float(i) for i in range(start, min(start + 4, 15))]
            for start in range(0, 15, 4)]
        assert table.key_column(0) is not first
        del rows[3:]
        assert table.key_column(0).tolist() == [0.0, 1.0, 2.0]

    def test_a_batch_longer_than_the_column_converts_its_own_rows(self):
        rows = [(float(i), i) for i in range(10)]
        table = Table("T", PAIR_SCHEMA, rows)
        batch = next(iter(table.batches(batch_rows=8)))
        del rows[5:]
        assert batch.key_array(0).tolist() == [float(i) for i in range(8)]

    def test_callable_source_and_derived_batches_carry_no_table(self):
        rows = [(float(i), i) for i in range(30)]
        table = Table("T", PAIR_SCHEMA, lambda: rows)
        assert table.key_column(0) is None
        streamed = list(table.batches(batch_rows=7))
        assert all(batch.table is None for batch in streamed)
        assert [batch.key_array(0).tolist() for batch in streamed] == [
            [float(i) for i in range(start, min(start + 7, 30))]
            for start in range(0, 30, 7)]
        sliced = next(iter(Table("T", PAIR_SCHEMA, rows).batches(7)))
        assert sliced.table is not None
        for derived in (sliced.filter(lambda row: row[1] % 2),
                        sliced.take_mask(np.arange(7) % 2 == 1),
                        sliced.map(lambda row: row, PAIR_SCHEMA)):
            assert derived.table is None
            assert derived.key_array(0).tolist() == [
                row[0] for row in derived.rows]


def test_concurrent_first_reads_build_the_column_once(monkeypatch):
    """Eight threads asking for an unbuilt column at once, switching
    every microsecond, get one array object from one build."""
    import sys
    import threading
    import time

    import repro.engine.operators as operators

    builds = []
    convert = operators.numeric_key_array

    def counting(schema, rows, column_index):
        builds.append(column_index)
        time.sleep(0.05)  # every thread arrives while the build runs
        return convert(schema, rows, column_index)

    monkeypatch.setattr(operators, "numeric_key_array", counting)
    table = Table("T", PAIR_SCHEMA, [(float(i), i) for i in range(20_000)])
    barrier = threading.Barrier(8)
    served = []

    def read():
        barrier.wait(timeout=10)
        served.append(next(iter(table.batches())).key_array(0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == [0]
    assert len(served) == 8
    column = table.key_column(0)
    assert all(array.base is column for array in served)
    assert not column.flags.writeable  # shared by every batch: read-only


@given(values=st.lists(st.one_of(
           st.floats(allow_nan=True, allow_infinity=True),
           st.sampled_from([float("nan"), float("inf"), float("-inf"),
                            -0.0, 0.0]),
           st.integers(-2**60, 2**60),
           st.sampled_from([2**53 + 1, -(2**53 + 1), 2**63 - 1]),
           st.sampled_from([2**1024, -(2**1100)])), max_size=300),
       batch_rows=st.integers(1, 64))
@settings(deadline=None)
def test_table_served_arrays_equal_per_batch_extraction(values, batch_rows):
    """Every scan batch's array equals, bit for bit, the one its own rows
    convert to, and is ``None`` exactly when theirs is: ints beyond
    2**53 round alike, and an int beyond float64 costs only its batch."""
    schema = Schema([Column("F", ColumnType.FLOAT64),
                     Column("I", ColumnType.INT64)])
    rows = [(value, value) for value in values]
    table = Table("T", schema, rows)
    for batch in table.batches(batch_rows):
        assert batch.table is table
        for column_index in (0, 1):
            assert same_bits(batch.key_array(column_index),
                             own_array(batch, column_index))


# -- deferred join batches ---------------------------------------------------

#: Join key and value pools: ints that share a float64, ±0.0, ±inf,
#: NaN, an int beyond float64 and text numpy would parse.
EDGE_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.5, -0.0, 0.0, float("inf"), float("-inf"),
                     float("nan"), 2**53, 2**53 + 1, 2**1024, "0.5"]))


@given(probe=st.lists(st.tuples(EDGE_VALUES, EDGE_VALUES), max_size=80),
       build=st.lists(EDGE_VALUES, max_size=12),
       batch_rows=st.integers(1, 32),
       data=st.data())
@settings(deadline=None)
def test_deferred_join_batches_equal_their_built_rows(probe, build,
                                                      batch_rows, data):
    """Every batch a flat hash probe emits answers ``len()``, ``take()``
    and ``key_array()`` without building its rows and equal to the rows
    it then builds, which equal a nested-loop join; the join counts each
    row it concatenates once."""
    from repro.engine.operators import HashJoin, Operator

    left_schema = Schema([Column("LID", ColumnType.INT64),
                          Column("JK", ColumnType.FLOAT64),
                          Column("LV", ColumnType.FLOAT64)])
    right_schema = Schema([Column("RK", ColumnType.FLOAT64),
                           Column("RV", ColumnType.INT64)])
    out_schema = Schema(list(left_schema.columns)
                        + list(right_schema.columns))
    left = [(i, key, value) for i, (key, value) in enumerate(probe)]
    # Unique build keys make the probe flat; NaN never matches.
    right = [(key, j) for j, key in
             enumerate(dict.fromkeys(key for key in build if key == key))]
    expected = [lrow + rrow for lrow in left for rrow in right
                if lrow[1] == lrow[1] and lrow[1] == rrow[0]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operator, "batch_rows", batch_rows)
        join = HashJoin(TableScan(Table("L", left_schema, left)),
                        TableScan(Table("R", right_schema, right)),
                        1, 0, "inner", out_schema)
        batches = list(join.batches())
    taken = 0
    checks = []
    for batch in batches:
        assert 0 < len(batch) <= batch_rows
        positions = data.draw(st.lists(st.integers(0, len(batch) - 1),
                                       max_size=5))
        rows = batch.take(positions)
        taken += len(rows)
        arrays = [batch.key_array(i) for i in range(3)]
        checks.append((batch, len(batch), positions, rows, arrays))
    assert join.rows_built == taken
    assert [row for batch in batches for row in batch.rows] == expected
    assert join.rows_built == taken + len(expected)
    for batch, length, positions, rows, arrays in checks:
        assert length == len(batch.rows)
        assert rows == [batch.rows[i] for i in positions]
        for i in range(5):
            built = RowBatch(out_schema, batch.rows).key_array(i)
            assert same_bits(arrays[i] if i < 3 else batch.key_array(i),
                             built)


# -- batches() == rows() for every operator ----------------------------------


def lineitem_table(count: int = 2_000) -> Table:
    return Table("LINEITEM", LINEITEM_SCHEMA,
                 list(generate_lineitem(count, seed=11)))


def assert_surfaces_agree(operator) -> None:
    from_batches = list(flatten(operator.batches()))
    from_rows = list(operator.rows())
    assert from_batches == from_rows


class TestOperatorSurfaceEquivalence:
    def test_table_scan(self):
        assert_surfaces_agree(TableScan(lineitem_table()))

    def test_filter(self):
        scan = TableScan(lineitem_table())
        assert_surfaces_agree(Filter(scan, lambda row: row[0] % 3 == 0))

    def test_project(self):
        scan = TableScan(lineitem_table())
        assert_surfaces_agree(
            Project(scan, ["L_ORDERKEY", "L_EXTENDEDPRICE"]))

    @pytest.mark.parametrize("limit,offset", [(10, 0), (None, 25),
                                              (0, 0), (5_000, 100)])
    def test_limit(self, limit, offset):
        scan = TableScan(lineitem_table())
        assert_surfaces_agree(Limit(scan, limit, offset))

    def test_in_memory_sort(self):
        scan = TableScan(lineitem_table())
        spec = SortSpec(LINEITEM_SCHEMA, ["L_EXTENDEDPRICE"])
        assert_surfaces_agree(InMemorySort(scan, spec))

    @pytest.mark.parametrize("algorithm", TOPK_ALGORITHMS)
    def test_topk_every_algorithm(self, algorithm):
        scan = TableScan(lineitem_table())
        spec = SortSpec(LINEITEM_SCHEMA, ["L_ORDERKEY"])
        operator = TopK(scan, spec, k=50, algorithm=algorithm,
                        memory_rows=200)
        assert_surfaces_agree(operator)

    def test_segmented(self):
        table = lineitem_table()
        rows = sorted(table._source, key=lambda row: row[0])
        sorted_table = Table("LINEITEM", LINEITEM_SCHEMA, rows,
                             sorted_by=["L_ORDERKEY"])
        operator = SegmentedTopKOperator(
            TableScan(sorted_table), ["L_ORDERKEY"],
            SortSpec(LINEITEM_SCHEMA, ["L_EXTENDEDPRICE"]),
            k=40, memory_rows=100)
        assert_surfaces_agree(operator)

    def test_grouped(self):
        scan = TableScan(lineitem_table())
        operator = GroupedTopKOperator(
            scan, SortSpec(LINEITEM_SCHEMA, ["L_EXTENDEDPRICE"]),
            group_column="L_RETURNFLAG", k=5, memory_rows=100)
        assert_surfaces_agree(operator)

    def test_pipeline_composition(self):
        scan = TableScan(lineitem_table())
        filtered = Filter(scan, lambda row: row[5] > 10_000)
        spec = SortSpec(LINEITEM_SCHEMA,
                        [SortColumn("L_EXTENDEDPRICE", ascending=False)])
        top = TopK(filtered, spec, k=30, memory_rows=64)
        plan = Limit(Project(top, ["L_ORDERKEY", "L_EXTENDEDPRICE"]), 20, 5)
        assert_surfaces_agree(plan)


# -- batch execution of the histogram operator -------------------------------


@given(keys=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                               width=32), min_size=0, max_size=500),
       k=st.integers(1, 40), memory=st.integers(2, 64),
       batch_rows=st.integers(1, 96))
@settings(max_examples=60, deadline=None)
def test_execute_batches_matches_execute(keys, k, memory, batch_rows):
    """Both regimes, arbitrary chunkings: batch output == row output."""
    rows = key_rows(keys)
    spec = SortSpec(KEY_SCHEMA, ["key"])
    with SpillManager() as spill_a, SpillManager() as spill_b:
        row_op = HistogramTopK(spec, k, memory, spill_manager=spill_a)
        expected = list(row_op.execute(iter(rows)))
        batch_op = HistogramTopK(spec, k, memory, spill_manager=spill_b)
        got = list(batch_op.execute_batches(
            batches_from_rows(rows, KEY_SCHEMA, batch_rows)))
    assert got == expected
    assert got == sorted(rows)[:k]


def test_execute_batches_counts_consumed_rows():
    rows = key_rows(range(1_000))
    spec = SortSpec(KEY_SCHEMA, ["key"])
    operator = HistogramTopK(spec, 10, 100)
    list(operator.execute_batches(batches_from_rows(rows, KEY_SCHEMA, 128)))
    assert operator.stats.rows_consumed == 1_000
    assert operator.stats.rows_output == 10


def test_execute_batches_in_memory_stats_match_row_path():
    """The priority-queue regime's counters are identical batch vs row."""
    rows = key_rows([float(hash(str(i)) % 10_000) for i in range(2_000)])
    spec = SortSpec(KEY_SCHEMA, ["key"])
    row_op = HistogramTopK(spec, 25, 1_000)
    list(row_op.execute(iter(rows)))
    batch_op = HistogramTopK(spec, 25, 1_000)
    list(batch_op.execute_batches(batches_from_rows(rows, KEY_SCHEMA, 64)))
    assert batch_op.stats.rows_consumed == row_op.stats.rows_consumed
    assert batch_op.stats.cutoff_comparisons == \
        row_op.stats.cutoff_comparisons
    assert batch_op.stats.rows_eliminated_on_arrival == \
        row_op.stats.rows_eliminated_on_arrival


def test_default_batch_rows_sane():
    assert 256 <= DEFAULT_BATCH_ROWS <= 65_536
