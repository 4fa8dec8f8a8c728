"""Cross-engine differential suite: every engine, one specification.

Hypothesis drives the same ``(rows, k, sort spec, memory budget, batch
size)`` through every top-k execution surface in the repo —

* ``HistogramTopK.execute`` (Algorithm 1 over a row iterable — an
  adapter that chunks the rows for ``execute_batches``),
* ``HistogramTopK.execute_batches`` at arbitrary batch sizes,
* the planner's ``VectorizedTopK`` lowering via ``Database.sql``,
* all three baselines (optimized / traditional / priority-queue),

asserting byte-identical output rows against the oracle
``sorted(rows, key=spec.key)[:k]`` and the spill invariants that make the
paper's comparison meaningful:

* every engine consumes the full input (``rows_consumed == len(rows)``),
* nothing spills more rows than it consumed,
* the in-memory priority queue never spills,
* eager histogram filtering never spills more than the traditional
  full-input sort (the paper's headline inequality),
* the vectorized kernel's spill volume equals the row engine configured
  as the same algorithm (quicksort load-sort-store, unlimited runs,
  50-bucket histograms).

Ties are made harmless by construction: every payload column is a pure
function of the sort key, so rows with equal keys are identical tuples
and any tie order is the same row sequence.

This suite is the regression net under the observability instrumentation
(`repro.obs`): the tracer hooks sit on these exact code paths, and these
tests prove they never perturb results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.optimized_topk import OptimizedMergeSortTopK
from repro.baselines.priority_queue_topk import PriorityQueueTopK
from repro.baselines.traditional_topk import TraditionalMergeSortTopK
from repro.core.policies import TargetBucketsPolicy
from repro.core.topk import HistogramTopK
from repro.engine.operators import TopK, VectorizedTopK
from repro.engine.session import Database
from repro.rows.batch import batches_from_rows
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager
from repro.vectorized.runs import VectorRunDisk, VectorRunStore
from repro.vectorized.topk import VectorizedHistogramTopK

SCHEMA = Schema([
    Column("K", ColumnType.FLOAT64),
    Column("P", ColumnType.INT64),
])

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


def make_rows(keys: list[float]) -> list[tuple]:
    """Rows whose payload is a function of the key (tie-safe)."""
    return [(float(key), hash(key) % 1_000) for key in keys]


def make_spec(ascending: bool) -> SortSpec:
    return SortSpec(SCHEMA, [SortColumn("K", ascending=ascending)])


def vectorized_reference(spec: SortSpec, k: int,
                         memory_rows: int) -> HistogramTopK:
    """The row engine configured exactly as the vectorized kernel."""
    return HistogramTopK(
        spec, k, memory_rows,
        run_generation="quicksort", run_size_limit=None,
        sizing_policy=TargetBucketsPolicy(buckets_per_run=50, capped=True))


@given(keys=st.lists(finite_floats, min_size=0, max_size=300),
       k=st.integers(1, 50),
       memory=st.integers(2, 64),
       batch_rows=st.integers(1, 96),
       ascending=st.booleans())
@settings(max_examples=150, deadline=None)
def test_all_engines_agree(keys, k, memory, batch_rows, ascending):
    """One input, six execution surfaces, one answer."""
    rows = make_rows(keys)
    spec = make_spec(ascending)
    oracle = sorted(rows, key=spec.key)[:k]

    # Row engine (Algorithm 1).
    hist = HistogramTopK(spec, k, memory)
    assert list(hist.execute(iter(rows))) == oracle

    # Batch-at-a-time path, arbitrary chunking.
    hist_batch = HistogramTopK(spec, k, memory)
    assert list(hist_batch.execute_batches(
        batches_from_rows(rows, SCHEMA, batch_rows))) == oracle

    # Baselines.
    optimized = OptimizedMergeSortTopK(spec, k, memory)
    assert list(optimized.execute(iter(rows))) == oracle
    traditional = TraditionalMergeSortTopK(spec, k, memory)
    assert list(traditional.execute(iter(rows))) == oracle
    pq = PriorityQueueTopK(spec, k, memory_rows=None)
    assert list(pq.execute(iter(rows))) == oracle

    # Planner lowering onto the vectorized kernel, end to end.
    db = Database(memory_rows=memory)
    db.register_table("T", SCHEMA, rows)
    order = "" if ascending else " DESC"
    result = db.sql(f"SELECT * FROM T ORDER BY K{order} LIMIT {k}")
    assert isinstance(result.plan, VectorizedTopK)
    assert result.rows == oracle

    # -- spill invariants -------------------------------------------------
    consumed = len(rows)
    for engine in (hist, hist_batch, optimized, traditional):
        assert engine.stats.rows_consumed == consumed
        assert engine.stats.io.rows_spilled >= 0
    for engine in (hist, hist_batch, traditional):
        assert engine.stats.io.rows_spilled <= consumed
    # The optimized baseline's early merge step re-spills its
    # intermediate run (at most k rows per step), so its spill count may
    # exceed the input size by that much.
    assert (optimized.stats.io.rows_spilled
            <= consumed + optimized.early_merge_steps * k)
    assert result.stats.rows_consumed == consumed

    # The in-memory baseline never touches secondary storage.
    assert pq.stats.io.rows_spilled == 0

    # Eager input filtering never spills more than the vanilla full sort.
    assert hist.stats.io.rows_spilled <= traditional.stats.io.rows_spilled

    # The lowered plan spills exactly what the row engine would, when
    # configured as the same algorithm.  The one divergence is an input
    # at or under one memory load: whether that single load becomes a
    # run or an in-place sort differs between the engines (either way at
    # most one memory load moves), so exact equality is asserted only
    # once the input genuinely overflows memory.
    reference = vectorized_reference(spec, k, memory)
    assert list(reference.execute(iter(rows))) == oracle
    if consumed > memory:
        assert result.stats.io.rows_spilled == \
            reference.stats.io.rows_spilled
    else:
        assert reference.stats.io.rows_spilled <= consumed
        assert result.stats.io.rows_spilled <= consumed


@given(keys=st.lists(finite_floats, min_size=0, max_size=250),
       k=st.integers(1, 40),
       offset=st.integers(0, 30),
       memory=st.integers(2, 48))
@settings(max_examples=60, deadline=None)
def test_offset_agreement(keys, k, offset, memory):
    """OFFSET shifts every engine's window identically."""
    rows = make_rows(keys)
    spec = make_spec(True)
    oracle = sorted(rows, key=spec.key)[offset:offset + k]

    hist = HistogramTopK(spec, k, memory, offset=offset)
    assert list(hist.execute(iter(rows))) == oracle

    optimized = OptimizedMergeSortTopK(spec, k, memory, offset=offset)
    assert list(optimized.execute(iter(rows))) == oracle
    traditional = TraditionalMergeSortTopK(spec, k, memory, offset=offset)
    assert list(traditional.execute(iter(rows))) == oracle
    pq = PriorityQueueTopK(spec, k, memory_rows=None, offset=offset)
    assert list(pq.execute(iter(rows))) == oracle

    db = Database(memory_rows=memory)
    db.register_table("T", SCHEMA, rows)
    result = db.sql(f"SELECT * FROM T ORDER BY K LIMIT {k} OFFSET {offset}")
    assert result.rows == oracle


@given(n=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1),
       duplicates=st.booleans(),
       k=st.integers(1, 50),
       offset=st.integers(0, 20),
       memory=st.integers(2, 64),
       drawn_batch_rows=st.integers(2, 96),
       ascending=st.booleans(),
       run_generation=st.sampled_from(
           ["replacement_selection", "quicksort"]),
       two_columns=st.booleans(),
       memory_bytes=st.one_of(st.none(), st.integers(40, 3_000)))
@settings(max_examples=120, deadline=None)
def test_batch_size_never_changes_rows_or_counters(
        n, seed, duplicates, k, offset, memory, drawn_batch_rows,
        ascending, run_generation, two_columns, memory_bytes):
    """Chunking is invisible: ``execute`` and ``execute_batches`` at any
    batch size emit the same rows *and* the same filter counters.

    Every arrival meets the live cutoff, interleaved with run
    generation, so where a row is eliminated (on arrival or at spill)
    cannot depend on which batch carried it.  Covers both regimes, the
    vectorized prefilter (one numeric column: tuple keys) and the
    per-row test (two columns: binary keys), OFFSET, and the byte
    budget's mid-stream switch from the priority queue to run
    generation.  Input sizes are drawn directly (not as list lengths,
    which hypothesis keeps short) so most examples overflow memory and
    spill.
    """
    import random

    rng = random.Random(seed)
    rows = make_rows([float(rng.randrange(-30, 30)) if duplicates
                      else rng.uniform(-1e6, 1e6) for _ in range(n)])
    spec = (SortSpec(SCHEMA, [SortColumn("K", ascending=ascending), "P"])
            if two_columns else make_spec(ascending))
    oracle = sorted(rows, key=spec.key)[offset:offset + k]

    def make():
        return HistogramTopK(
            spec, k, memory, offset=offset, run_generation=run_generation,
            memory_bytes=memory_bytes,
            row_size=lambda row: 24 + row[1] % 40)

    def counters(engine):
        stats = engine.stats
        return (stats.io.rows_spilled, stats.rows_eliminated_on_arrival,
                stats.rows_eliminated_at_spill, stats.rows_consumed,
                engine.switched_to_external)

    reference = make()
    assert (reference.key_codec is not None) == two_columns
    assert list(reference.execute(iter(rows))) == oracle
    assert reference.stats.rows_consumed == len(rows)
    for batch_rows in (1, drawn_batch_rows, 4_096):
        engine = make()
        out = list(engine.execute_batches(
            batches_from_rows(rows, SCHEMA, batch_rows)))
        assert out == oracle
        assert counters(engine) == counters(reference)


def test_prefilter_exact_for_int_keys_beyond_float64_precision():
    """The vectorized prefilter compares float64 copies of INT64 keys.
    ``2**53 + 1`` rounds to ``2**53``, so a strict ``<`` against a heap
    maximum of ``2**53 + 1`` would drop the smaller key ``2**53``; the
    prefilter may only drop rows the exact per-row test drops."""
    schema = Schema([Column("K", ColumnType.INT64)])
    big = 2**53
    rows = [(big - 2,), (big + 1,), (big,)]
    operator = HistogramTopK(SortSpec(schema, ["K"]), 2, 8)
    assert list(operator.execute_batches(
        batches_from_rows(rows, schema))) == [(big - 2,), (big,)]


@given(keys=st.lists(st.integers(-50, 50).map(float),
                     min_size=0, max_size=300),
       k=st.integers(1, 40),
       memory=st.integers(2, 48),
       batch_rows=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_heavy_duplicates_agree(keys, k, memory, batch_rows):
    """Duplicate-saturated keys (histogram stress): all engines agree."""
    rows = make_rows(keys)
    spec = make_spec(True)
    oracle = sorted(rows, key=spec.key)[:k]

    hist = HistogramTopK(spec, k, memory)
    assert list(hist.execute(iter(rows))) == oracle
    hist_batch = HistogramTopK(spec, k, memory)
    assert list(hist_batch.execute_batches(
        batches_from_rows(rows, SCHEMA, batch_rows))) == oracle
    traditional = TraditionalMergeSortTopK(spec, k, memory)
    assert list(traditional.execute(iter(rows))) == oracle
    assert hist.stats.io.rows_spilled <= traditional.stats.io.rows_spilled


@pytest.mark.slow_io
@given(keys=st.lists(finite_floats, min_size=0, max_size=250),
       k=st.integers(1, 40),
       memory=st.integers(2, 48),
       batch_rows=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_disk_backend_typed_codec_agrees(keys, k, memory, batch_rows):
    """Real files produce byte-identical results and identical
    *accounting* traffic to the in-memory backend, on all three paths
    (row, batch, vectorized), with the typed codec and with the
    default schemaless one."""
    rows = make_rows(keys)
    spec = make_spec(True)
    oracle = sorted(rows, key=spec.key)[:k]

    baseline = HistogramTopK(spec, k, memory)
    assert list(baseline.execute(iter(rows))) == oracle
    base_io = baseline.stats.io

    def assert_same_accounting(io):
        assert io.rows_spilled == base_io.rows_spilled
        assert io.bytes_written == base_io.bytes_written
        assert io.bytes_read == base_io.bytes_read
        assert io.write_requests == base_io.write_requests
        assert io.read_requests == base_io.read_requests
        assert io.rows_read == base_io.rows_read
        if io.rows_spilled:
            # Physical codec traffic exists and is consistent: reads can
            # only decode pages that were encoded.
            assert io.bytes_encoded > 0
            assert io.bytes_decoded <= io.bytes_encoded

    # Row engine on disk with the typed columnar codec.
    with DiskSpillBackend(codec=TypedPageCodec(SCHEMA)) as backend:
        manager = SpillManager(backend=backend)
        disk = HistogramTopK(spec, k, memory, spill_manager=manager)
        assert list(disk.execute(iter(rows))) == oracle
        assert_same_accounting(disk.stats.io)
        manager.close()

    # Batch path on disk with the default (schemaless) codec.
    with DiskSpillBackend() as backend:
        manager = SpillManager(backend=backend)
        disk_batch = HistogramTopK(spec, k, memory, spill_manager=manager)
        assert list(disk_batch.execute_batches(
            batches_from_rows(rows, SCHEMA, batch_rows))) == oracle
        assert_same_accounting(disk_batch.stats.io)
        manager.close()

    # Vectorized kernel with real run files.
    key_array = np.array([row[0] for row in rows], dtype=np.float64)

    def chunks():
        for start in range(0, len(key_array), batch_rows):
            yield key_array[start:start + batch_rows], None

    mem_kernel = VectorizedHistogramTopK(k, memory)
    mem_keys, _ = mem_kernel.execute(chunks())
    with VectorRunDisk() as storage:
        disk_kernel = VectorizedHistogramTopK(
            k, memory, store=VectorRunStore(storage=storage))
        disk_keys, _ = disk_kernel.execute(chunks())
    assert disk_keys.tolist() == mem_keys.tolist()
    assert disk_kernel.stats.io.rows_spilled == \
        mem_kernel.stats.io.rows_spilled
    assert disk_kernel.stats.io.bytes_written == \
        mem_kernel.stats.io.bytes_written


@given(keys=st.lists(st.integers(-40, 40), min_size=0, max_size=300),
       k=st.integers(1, 50),
       memory=st.integers(2, 64),
       batch_rows=st.integers(1, 96),
       run_generation=st.sampled_from(
           ["replacement_selection", "quicksort"]),
       fan_in=st.sampled_from([None, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_ovc_engines_match_tuple_engines(keys, k, memory, batch_rows,
                                         run_generation, fan_in):
    """OVC on vs off: byte-identical output and spill volume.

    The spec itself runs on binary keys + the OVC loser tree; its
    ``spec.key`` callable runs the same query on tuple keys + the heap.
    A multi-column descending spec makes the tuple keys maximally
    composite (``Desc`` wrappers + nested tuples) while the ``-40..40``
    key range forces long shared prefixes in the binary encoding — the
    regime offset-value codes exist for.  The binary encoding is order-
    and equality-isomorphic to the tuple keys, so *every* decision
    (cutoff, truncation, run boundaries, merge ranking) must come out
    the same; only the comparison counters may differ.
    """
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.STRING)])
    rows = [(key, f"s{key % 7}") for key in keys]
    spec = SortSpec(schema, [SortColumn("A", ascending=False),
                             SortColumn("B", ascending=False)])
    oracle = sorted(rows, key=spec.key)[:k]

    def run(sort_key, batched):
        operator = HistogramTopK(
            sort_key, k, memory, run_generation=run_generation,
            fan_in=fan_in)
        if batched:
            out = list(operator.execute_batches(
                batches_from_rows(rows, schema, batch_rows)))
        else:
            out = list(operator.execute(iter(rows)))
        return out, operator

    out_tuple, eng_tuple = run(spec.key, batched=False)
    out_ovc, eng_ovc = run(spec, batched=False)
    assert out_tuple == oracle
    assert out_ovc == oracle
    assert eng_ovc.key_codec is not None
    assert eng_tuple.key_codec is None
    assert eng_ovc.stats.io.rows_spilled == \
        eng_tuple.stats.io.rows_spilled
    assert eng_ovc.stats.io.runs_written == \
        eng_tuple.stats.io.runs_written

    out_tuple_b, eng_tuple_b = run(spec.key, batched=True)
    out_ovc_b, eng_ovc_b = run(spec, batched=True)
    assert out_tuple_b == oracle
    assert out_ovc_b == oracle
    assert eng_ovc_b.stats.io.rows_spilled == \
        eng_tuple_b.stats.io.rows_spilled


def test_ovc_reduces_full_comparisons_on_multi_column_desc():
    """The headline counter claim, deterministically: on a merge-heavy
    multi-column descending workload the loser tree decides most
    tournaments by integer code, cutting full key comparisons by well
    over the 10x the issue demands."""
    import random

    rng = random.Random(23)
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.STRING),
                     Column("C", ColumnType.FLOAT64)])
    rows = [(rng.randrange(30), f"tag{rng.randrange(5)}", rng.random())
            for _ in range(40_000)]
    spec = SortSpec(schema, [SortColumn("A", ascending=False),
                             "B", SortColumn("C", ascending=False)])

    def run(sort_key):
        operator = HistogramTopK(
            sort_key, k=1_500, memory_rows=400, fan_in=8,
            run_generation="quicksort")
        out = list(operator.execute(iter(rows)))
        return out, operator.stats

    out_tuple, stats_tuple = run(spec.key)
    out_ovc, stats_ovc = run(spec)
    assert out_tuple == out_ovc
    assert stats_tuple.io.rows_spilled == stats_ovc.io.rows_spilled
    assert stats_ovc.io.rows_spilled > 0  # the workload genuinely merges
    assert stats_ovc.code_comparisons > 0
    assert stats_ovc.full_key_comparisons * 5 \
        < stats_tuple.full_key_comparisons


def test_multi_column_key_stays_on_row_engine_and_agrees():
    """A two-column key refuses lowering but still matches the oracle."""
    import random

    rng = random.Random(11)
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.FLOAT64)])
    rows = [(rng.randrange(20), rng.random()) for _ in range(4_000)]
    db = Database(memory_rows=300)
    db.register_table("T", schema, rows)
    result = db.sql("SELECT * FROM T ORDER BY A, B DESC LIMIT 500")
    assert isinstance(result.plan, TopK)
    assert not isinstance(result.plan, VectorizedTopK)
    expected = sorted(rows, key=lambda r: (r[0], -r[1]))[:500]
    assert result.rows == expected


@given(keys=st.lists(finite_floats, min_size=0, max_size=300),
       k=st.integers(1, 50),
       memory=st.integers(2, 64),
       ascending=st.booleans())
@settings(max_examples=60, deadline=None)
def test_planner_choice_is_semantically_invisible(keys, k, memory,
                                                  ascending):
    """The cost-based planner's pick never changes the answer: every
    forced physical path returns rows byte-identical to the no-knob
    cost-chosen plan (and to the oracle)."""
    rows = make_rows(keys)
    spec = make_spec(ascending)
    oracle = sorted(rows, key=spec.key)[:k]
    order = "" if ascending else " DESC"
    sql = f"SELECT * FROM T ORDER BY K{order} LIMIT {k}"

    def run(**db_kwargs):
        db = Database(memory_rows=memory, **db_kwargs)
        db.register_table("T", SCHEMA, rows, row_count=len(rows))
        return db.sql(sql).rows

    chosen = run()
    assert chosen == oracle
    for path in ("batch", "vectorized"):
        assert run(force_path=path) == oracle


@given(keys=st.lists(st.integers(-40, 40), min_size=0, max_size=250),
       k=st.integers(1, 40),
       memory=st.integers(2, 48),
       first_desc=st.booleans())
@settings(max_examples=40, deadline=None)
def test_planner_choice_composite_keys_agree(keys, k, memory,
                                             first_desc):
    """Composite string-led keys: the costed plan (batch/ovc) and the
    forced batch path agree byte-for-byte with the oracle."""
    schema = Schema([Column("S", ColumnType.STRING),
                     Column("K", ColumnType.INT64)])
    rows = [(f"g{key % 7}", int(key)) for key in keys]
    spec = SortSpec(schema, [SortColumn("S", ascending=not first_desc),
                             SortColumn("K")])
    oracle = sorted(rows, key=spec.key)[:k]
    order = " DESC" if first_desc else ""
    sql = f"SELECT * FROM T ORDER BY S{order}, K LIMIT {k}"

    def run(**db_kwargs):
        db = Database(memory_rows=memory, **db_kwargs)
        db.register_table("T", schema, rows, row_count=len(rows))
        return db.sql(sql).rows

    assert run() == oracle
    assert run(force_path="batch") == oracle


@pytest.mark.slow_io
@given(keys=st.lists(st.integers(-40, 40), min_size=0, max_size=300),
       k=st.integers(1, 50),
       memory=st.integers(2, 48),
       late=st.booleans())
@settings(max_examples=40, deadline=None)
def test_zone_maps_and_late_materialization_agree(keys, k, memory, late):
    """Zone maps on vs off (and eager vs lazy materialization):
    byte-identical output and spill volume.

    Page skipping is a pure read-side pruning of pages that cannot
    contribute a winner, and late materialization only changes *when*
    payload bytes are decoded — neither may change what spills or what
    comes out.  A composite spec engages the binary key codec so pages
    carry ``bytes`` keys (the zone-map precondition).
    """
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.STRING)])
    rows = [(key, f"s{key % 7}") for key in keys]
    spec = SortSpec(schema, [SortColumn("A"), SortColumn("B")])
    oracle = sorted(rows, key=spec.key)[:k]

    def run(zone_maps, late_materialization):
        codec = TypedPageCodec(schema, zone_maps=zone_maps,
                               late_materialization=late_materialization,
                               null_key_prefix=b"\x01")
        with DiskSpillBackend(codec=codec) as backend:
            manager = SpillManager(backend=backend, page_bytes=256)
            operator = HistogramTopK(
                spec, k, memory, spill_manager=manager,
                late_materialization=late_materialization)
            out = list(operator.execute(iter(rows)))
            io = operator.stats.io
            manager.close()
        return out, io

    out_plain, io_plain = run(zone_maps=False, late_materialization=False)
    out_zone, io_zone = run(zone_maps=True, late_materialization=late)
    assert out_plain == oracle
    assert out_zone == oracle
    assert io_zone.rows_spilled == io_plain.rows_spilled
    assert io_zone.runs_written == io_plain.runs_written
    assert io_plain.pages_skipped_zone_map == 0


def test_zone_maps_skip_pages_directed():
    """A merge-heavy workload must actually skip pages — the counter the
    differential leg above pins to zero without zone maps."""
    import random

    rng = random.Random(11)
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.INT64),
                     Column("P", ColumnType.STRING)])
    rows = [(rng.randrange(10_000), rng.randrange(10_000), "pay" * 12)
            for _ in range(30_000)]
    spec = SortSpec(schema, [SortColumn("A"), SortColumn("B")])
    k, memory = 1_500, 200
    oracle = sorted(rows, key=spec.key)[:k]

    def run(zone_maps, late):
        codec = TypedPageCodec(schema, zone_maps=zone_maps,
                               late_materialization=late,
                               null_key_prefix=b"\x01")
        with DiskSpillBackend(codec=codec) as backend:
            manager = SpillManager(backend=backend, page_bytes=4096)
            operator = HistogramTopK(
                spec, k, memory, spill_manager=manager,
                late_materialization=late)
            out = list(operator.execute(iter(rows)))
            io = operator.stats.io
            manager.close()
        return out, io

    out_eager, io_eager = run(zone_maps=True, late=False)
    out_lazy, io_lazy = run(zone_maps=True, late=True)
    out_off, io_off = run(zone_maps=False, late=False)
    assert out_eager == oracle
    assert out_lazy == oracle
    assert out_off == oracle
    assert io_eager.pages_skipped_zone_map > 0
    assert io_eager.bytes_skipped_decode > 0
    assert io_lazy.pages_skipped_zone_map > 0
    assert io_lazy.payload_stitch_seconds > 0
    assert io_off.pages_skipped_zone_map == 0
    # Zone maps shrink physical decode traffic on this workload.
    assert io_eager.bytes_decoded < io_off.bytes_decoded
    assert io_eager.rows_spilled == io_lazy.rows_spilled == \
        io_off.rows_spilled
