"""Load-sort-store run generation: every decision pinned, adversarial inputs.

The batch-native ``QuicksortRunGenerator`` must make exactly the
decisions of the row-at-a-time flush loop it replaced: which rows the
arrival test eliminates (Algorithm 1 line 4), where the spill-time
re-check truncates a sorted load (line 11), which buckets the histogram
emits and when the cutoff moves.  ``PINNED`` holds those counters as the
row-at-a-time loop produced them, for five inputs (one of them adversarial
in Bender et al.'s sense: alternating ascending and descending stretches)
under six configurations each, and every case must reproduce them at
batch sizes 1, 7 and 4,096.  A sixth input, random arrival led by a
numeric column with ties, was pinned before the arrival prefilter on the
leading column existed; it holds that prefilter to the same decisions.
A seventh configuration, typed pages on a disk backend, was pinned while
each histogram bucket still reached the cutoff filter in its own call;
it also holds the bytes encoded and the filter's bucket counters.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np
import pytest

from repro.core.topk import HistogramTopK
from repro.rows.batch import batches_from_rows
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager

MEMORY = 240
BATCH_SIZES = (1, 7, 4_096)


def _spec(schema: Schema, *columns: tuple[str, bool]) -> SortSpec:
    return SortSpec(schema, [SortColumn(name, ascending=ascending)
                             for name, ascending in columns])


def _composite():
    """The composite perf workload's smoke table (string-led key)."""
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.STRING),
                     Column("C", ColumnType.FLOAT64),
                     Column("ID", ColumnType.INT64)])
    rng = np.random.default_rng(3)
    n = 6_000
    names = [f"customer-{i:02d}" for i in range(64)]
    a = rng.integers(0, 8, size=n).tolist()
    b = [names[i] for i in rng.integers(0, 64, size=n).tolist()]
    c = ((rng.permutation(n) + rng.random(n)) / n).tolist()
    rows = list(zip(a, b, c, range(n)))
    return _spec(schema, ("B", False), ("A", True), ("C", False)), rows, \
        1_500


def _alternating():
    """Ascending and descending stretches of 400 rows, alternating (one
    numeric key: the leading-column arrival prefilter runs)."""
    schema = Schema([Column("K", ColumnType.FLOAT64),
                     Column("ID", ColumnType.INT64)])
    rows = []
    for i in range(6_000):
        stretch, step = divmod(i, 400)
        position = step if stretch % 2 == 0 else 399 - step
        rows.append((position + stretch / 100.0, i))
    return _spec(schema, ("K", True)), rows, 700


def _all_equal():
    schema = Schema([Column("K", ColumnType.INT64),
                     Column("ID", ColumnType.INT64)])
    rows = [(7, i) for i in range(3_000)]
    return _spec(schema, ("K", True)), rows, 500


def _null_heavy():
    """A nullable key that is NULL on about 70% of the rows."""
    schema = Schema([Column("K", ColumnType.FLOAT64, nullable=True),
                     Column("ID", ColumnType.INT64)])
    rng = np.random.default_rng(11)
    values = rng.random(5_000).tolist()
    nulls = (rng.random(5_000) < 0.7).tolist()
    rows = [(None if null else value, i)
            for i, (value, null) in enumerate(zip(values, nulls))]
    return _spec(schema, ("K", False), ("ID", True)), rows, 900


def _descending():
    """Descending arrival: the eager filter cannot eliminate on arrival."""
    schema = Schema([Column("K", ColumnType.INT64),
                     Column("L", ColumnType.INT64),
                     Column("ID", ColumnType.INT64)])
    rows = [(4_000 - i, i % 3, i) for i in range(4_000)]
    return _spec(schema, ("K", True), ("L", True)), rows, 600


def _numeric_led():
    """Random arrival led by a FLOAT64 column of integers 0..899 (ties):
    under binary keys the leading column alone decides most arrivals."""
    schema = Schema([Column("K", ColumnType.FLOAT64),
                     Column("ID", ColumnType.INT64)])
    rng = np.random.default_rng(17)
    n = 6_000
    keys = rng.integers(0, 900, size=n).astype(float).tolist()
    return _spec(schema, ("K", False), ("ID", True)), \
        list(zip(keys, range(n))), 700


INPUTS = {
    "composite": _composite,
    "alternating": _alternating,
    "all_equal": _all_equal,
    "null_heavy": _null_heavy,
    "descending": _descending,
    "numeric_led": _numeric_led,
}


def _row_size(row: tuple) -> int:
    """Variable row sizes (24..72 bytes) for the byte-budget cases."""
    return 24 + 8 * (row[-1] % 7)


CONFIGS = {
    "plain": {},
    "offset": {"offset": 150},
    "seeded": {},  # seeded with the plain run's final cutoff
    "single_filter": {"double_filter": False},
    "short_runs": {"run_size_limit": MEMORY // 3},
    "byte_budget": {"memory_bytes": 40 * MEMORY, "row_size": _row_size},
    # Typed pages on a disk backend, zone maps on; its pinned tuple also
    # carries the bytes encoded and the filter's bucket counters.
    "disk": {"disk": True},
}


def _options(input_name: str, config: str, run_generation: str) -> dict:
    spec, rows, k = INPUTS[input_name]()
    options = dict(CONFIGS[config])
    if config == "seeded":
        first = HistogramTopK(spec, k, MEMORY, run_generation=run_generation)
        list(first.execute(rows))
        options["cutoff_seed"] = first.final_cutoff
    return dict(spec=spec, rows=rows, k=k, options=options)


def _run(spec, rows, k, options, batch_rows=4_096,
         run_generation="quicksort"):
    options = dict(options)
    manager = None
    if options.pop("disk", False):
        manager = SpillManager(backend=DiskSpillBackend(
            codec=TypedPageCodec(spec.schema, zone_maps=True)))
        options["spill_manager"] = manager
    operator = HistogramTopK(spec, k, MEMORY, run_generation=run_generation,
                             trace_cutoff=True, **options)
    try:
        output = list(operator.execute_batches(
            batches_from_rows(rows, spec.schema, batch_rows)))
    finally:
        if manager is not None:
            manager.close()
    return operator, output


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _counters(operator: HistogramTopK, output: list[tuple],
              disk: bool = False) -> tuple:
    stats = operator.stats
    counters = (stats.rows_eliminated_on_arrival,
                stats.rows_eliminated_at_spill, stats.cutoff_comparisons,
                stats.sort_comparisons, stats.io.rows_spilled,
                stats.io.bytes_written, stats.io.runs_written,
                len(operator.cutoff_trace), _digest(operator.cutoff_trace),
                _digest(output))
    if disk:
        buckets = operator.cutoff_filter.stats
        counters += (stats.io.bytes_encoded, buckets.buckets_inserted,
                     buckets.buckets_popped, buckets.refinements)
    return counters


def _oracle(spec, rows, k, options) -> list:
    offset = options.get("offset", 0)
    keys = sorted(map(spec.key, rows))
    return keys[offset:offset + k]


#: ``(input, config) -> (rows_eliminated_on_arrival,
#: rows_eliminated_at_spill, cutoff_comparisons, sort_comparisons,
#: rows_spilled, bytes_written, runs_written, cutoff trace length,
#: cutoff trace digest, output digest)`` of ``run_generation="quicksort"``;
#: the ``disk`` configuration's tuples add ``(bytes_encoded,
#: buckets_inserted, buckets_popped, refinements)``.
PINNED = {
    ("composite", "plain"):
        (2286, 297, 9187, 29598, 3417, 164016, 16, 478, "4c730eadd06f45c7", "f36c9cb8cab2739d"),
    ("composite", "offset"):
        (2075, 304, 9391, 31315, 3621, 173808, 17, 491, "8541ff90960934f4", "52c68784bab58213"),
    ("composite", "seeded"):
        (4327, 173, 7261, 13384, 1500, 72000, 7, 1, "6f2e9703b5f3fb1c", "f36c9cb8cab2739d"),
    ("composite", "single_filter"):
        (2286, 0, 5760, 29598, 3714, 178272, 16, 478, "4c730eadd06f45c7", "f36c9cb8cab2739d"),
    ("composite", "short_runs"):
        (2302, 299, 9169, 29486, 3399, 163152, 47, 1900, "a3be94d3f632c4d0", "f36c9cb8cab2739d"),
    ("composite", "byte_budget"):
        (2308, 249, 9254, 29463, 3443, 165264, 19, 480, "195a76362edf1822", "f36c9cb8cab2739d"),
    ("alternating", "plain"):
        (3627, 382, 7756, 18984, 1991, 63712, 10, 323, "475e2ddccab6895a", "9a8a0cf033e6fcee"),
    ("alternating", "offset"):
        (3306, 408, 8054, 21444, 2286, 73152, 12, 357, "eda0be046b304158", "302d613d6fdbabc6"),
    ("alternating", "seeded"):
        (5107, 193, 6461, 7144, 700, 22400, 4, 1, "12ba382ee226f565", "9a8a0cf033e6fcee"),
    ("alternating", "single_filter"):
        (3627, 0, 5760, 18984, 2373, 75936, 10, 323, "475e2ddccab6895a", "9a8a0cf033e6fcee"),
    ("alternating", "short_runs"):
        (3653, 372, 7740, 18776, 1975, 63200, 27, 1276, "fd25e8b6ad14b546", "9a8a0cf033e6fcee"),
    ("alternating", "byte_budget"):
        (3660, 317, 7828, 18720, 2023, 64736, 12, 329, "3d1462690645834b", "9a8a0cf033e6fcee"),
    ("all_equal", "plain"):
        (0, 0, 5760, 23880, 3000, 96000, 13, 1, "ede12c2f29ec7ade", "d05be266fb092778"),
    ("all_equal", "offset"):
        (0, 0, 5760, 23880, 3000, 96000, 13, 1, "ede12c2f29ec7ade", "285fb22f45c2e6e9"),
    ("all_equal", "seeded"):
        (0, 0, 5760, 23880, 3000, 96000, 13, 1, "5e62036aee2f08a5", "d05be266fb092778"),
    ("all_equal", "single_filter"):
        (0, 0, 2760, 23880, 3000, 96000, 13, 1, "ede12c2f29ec7ade", "d05be266fb092778"),
    ("all_equal", "short_runs"):
        (0, 0, 5760, 23880, 3000, 96000, 38, 1, "ede12c2f29ec7ade", "d05be266fb092778"),
    ("all_equal", "byte_budget"):
        (0, 0, 5799, 24000, 3000, 96000, 15, 1, "c86457638742ae43", "d05be266fb092778"),
    ("null_heavy", "plain"):
        (2893, 150, 6721, 16856, 1957, 62624, 9, 264, "ec93b3a127e35532", "b5e75169252e808b"),
    ("null_heavy", "offset"):
        (2696, 189, 6878, 18432, 2115, 67680, 10, 266, "a9d04de74affa7da", "8730384413f02a6e"),
    ("null_heavy", "seeded"):
        (3891, 209, 5661, 8872, 900, 28800, 5, 1, "93dab6baba9994ab", "b5e75169252e808b"),
    ("null_heavy", "single_filter"):
        (2893, 0, 4760, 16856, 2107, 67424, 9, 264, "ec93b3a127e35532", "b5e75169252e808b"),
    ("null_heavy", "short_runs"):
        (2895, 151, 6718, 16840, 1954, 62528, 26, 1055, "46462a908387cca9", "b5e75169252e808b"),
    ("null_heavy", "byte_budget"):
        (2871, 170, 6762, 17032, 1959, 62688, 11, 264, "2ce8c9c43a195bbf", "b5e75169252e808b"),
    ("descending", "plain"):
        (0, 0, 7760, 32000, 4000, 160000, 17, 851, "99c22d3a46a792a5", "ecb717cf4b6ba40d"),
    ("descending", "offset"):
        (0, 0, 7760, 32000, 4000, 160000, 17, 813, "4f407aaeccce717f", "b4feb9c7c201e8ff"),
    ("descending", "seeded"):
        (3160, 240, 4361, 6600, 600, 24000, 3, 1, "b471c7c8b163a205", "ecb717cf4b6ba40d"),
    ("descending", "single_filter"):
        (0, 0, 3760, 32000, 4000, 160000, 17, 851, "99c22d3a46a792a5", "ecb717cf4b6ba40d"),
    ("descending", "short_runs"):
        (0, 0, 7760, 32000, 4000, 160000, 50, 3401, "cfd7587ea8318acc", "ecb717cf4b6ba40d"),
    ("descending", "byte_budget"):
        (0, 0, 7799, 32000, 4000, 160000, 20, 846, "a391e72529facbde", "ecb717cf4b6ba40d"),
    ("numeric_led", "plain"):
        (3490, 451, 7828, 19970, 2059, 65888, 11, 338, "b0c77ce14ff45fc1", "8130f54217b2d09b"),
    ("numeric_led", "offset"):
        (3191, 407, 8171, 22472, 2402, 76864, 12, 384, "dff3a6a8bd555359", "6931c18fd47a3690"),
    ("numeric_led", "seeded"):
        (5079, 221, 6461, 7368, 700, 22400, 4, 1, "e4e7ae86e4ba875c", "8130f54217b2d09b"),
    ("numeric_led", "single_filter"):
        (3490, 0, 5760, 19970, 2510, 80320, 11, 338, "b0c77ce14ff45fc1", "8130f54217b2d09b"),
    ("numeric_led", "short_runs"):
        (3503, 457, 7809, 19879, 2040, 65280, 32, 1341, "a311e1e77e48f5da", "8130f54217b2d09b"),
    ("numeric_led", "byte_budget"):
        (3518, 378, 7913, 19779, 2104, 67328, 13, 348, "9a93a453a7c39dcb", "8130f54217b2d09b"),
    ("composite", "disk"):
        (2286, 297, 9187, 29598, 3417, 164016, 16, 478, "4c730eadd06f45c7",
         "f36c9cb8cab2739d", 134703, 852, 477, 478),
    ("alternating", "disk"):
        (3627, 382, 7756, 18984, 1991, 63712, 10, 323, "475e2ddccab6895a",
         "9a8a0cf033e6fcee", 32016, 497, 322, 323),
    ("all_equal", "disk"):
        (0, 0, 5760, 23880, 3000, 96000, 13, 1, "ede12c2f29ec7ade",
         "d05be266fb092778", 48208, 750, 625, 1),
    ("null_heavy", "disk"):
        (2893, 150, 6721, 16856, 1957, 62624, 9, 264, "ec93b3a127e35532",
         "b5e75169252e808b", 32048, 488, 263, 264),
    ("descending", "disk"):
        (0, 0, 7760, 32000, 4000, 160000, 17, 851, "99c22d3a46a792a5",
         "ecb717cf4b6ba40d", 96986, 1000, 850, 851),
    ("numeric_led", "disk"):
        (3490, 451, 7828, 19970, 2059, 65888, 11, 338, "b0c77ce14ff45fc1",
         "8130f54217b2d09b", 33560, 512, 337, 338),
}


@pytest.mark.parametrize("batch_rows", BATCH_SIZES)
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("input_name", list(INPUTS))
def test_decisions_are_pinned(input_name, config, batch_rows):
    case = _options(input_name, config, "quicksort")
    operator, output = _run(case["spec"], case["rows"], case["k"],
                            case["options"], batch_rows)
    spec = case["spec"]
    assert [spec.key(row) for row in output] == _oracle(
        spec, case["rows"], case["k"], case["options"])
    assert _counters(operator, output, disk=config == "disk") \
        == PINNED[input_name, config]


@pytest.mark.parametrize("config", ["plain", "offset", "seeded",
                                    "short_runs", "byte_budget"])
def test_replacement_selection_alternating_matches_oracle(config):
    case = _options("alternating", config, "replacement_selection")
    operator, output = _run(case["spec"], case["rows"], case["k"],
                            case["options"], 7, "replacement_selection")
    assert output == sorted(case["rows"])[
        case["options"].get("offset", 0):][:case["k"]]
    assert operator.stats.io.rows_spilled < len(case["rows"])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_replacement_selection_numeric_led_matches_oracle(config):
    case = _options("numeric_led", config, "replacement_selection")
    operator, output = _run(case["spec"], case["rows"], case["k"],
                            case["options"], 7, "replacement_selection")
    assert output == sorted(case["rows"], key=case["spec"].key)[
        case["options"].get("offset", 0):][:case["k"]]
    assert operator.stats.rows_eliminated_on_arrival > 0


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("run_generation",
                         ["quicksort", "replacement_selection"])
def test_filter_counts_every_eliminated_row(run_generation, seeded):
    """The cutoff filter's own counters agree with the operator's, also
    when a whole truncated load goes at once."""
    rng = np.random.default_rng(5)
    rows = list(zip(rng.random(50_000).tolist(), range(50_000)))
    seed = None
    if seeded:
        first = HistogramTopK(lambda r: r[0], 2_000, 500,
                              run_generation=run_generation)
        list(first.execute(rows))
        seed = first.final_cutoff
    operator = HistogramTopK(lambda r: r[0], 2_000, 500,
                             run_generation=run_generation,
                             cutoff_seed=seed)
    output = list(operator.execute(rows))
    assert output == sorted(rows)[:2_000]
    filter_stats = operator.cutoff_filter.stats
    assert operator.stats.rows_eliminated_at_spill > 0
    assert filter_stats.rows_eliminated == operator.stats.rows_eliminated
    if seeded:
        assert filter_stats.rows_eliminated_by_seed \
            == operator.stats.rows_eliminated


def test_truncated_first_row_leaks_nothing(tmp_path):
    """A seeded query whose first load is eliminated at its first row
    leaves no thread and no stray spill file behind."""
    spec, rows, k = _descending()
    first = HistogramTopK(spec, k, MEMORY)
    list(first.execute(rows))
    before = set(threading.enumerate())
    manager = SpillManager(backend=DiskSpillBackend(
        directory=str(tmp_path), codec=TypedPageCodec(spec.schema)))
    operator = HistogramTopK(spec, k, MEMORY, spill_manager=manager,
                             cutoff_seed=first.final_cutoff)
    output = list(operator.execute(rows))
    assert output == sorted(rows, key=spec.key)[:k]
    # The first load is buffered unchecked and lies wholly above the
    # seed, so its sorted write is truncated at the first row.
    assert operator.stats.rows_eliminated_at_spill > 0
    assert operator.stats.io.rows_spilled < len(rows)
    assert set(threading.enumerate()) - before == set()
    # One file holds the sealed runs until the manager closes; the
    # truncated load's run is dead in it.
    assert len(os.listdir(tmp_path)) == 1
    run_files = {run.file._run_file for run in operator.runs}
    assert len(run_files) == 1
    assert run_files.pop().live == len(operator.runs)
    manager.close()
    assert os.listdir(tmp_path) == []
