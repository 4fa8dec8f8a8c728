"""The binary-key merge's counters, pinned.

Offset-value codes exist only inside the merge's run scans
(:meth:`repro.sorting.runs.SortedRun.coded_rows` computes each page's
codes as it delivers the page).  The codes the tree of losers sees must
stay exactly the codes of each row relative to the row before it in the
scan, with :data:`~repro.sorting.ovc.INITIAL_CODE` for a scan's first
row.  Any other code changes how many tournaments the codes decide, so
``PINNED`` records ``full_key_comparisons`` and ``code_comparisons``
beside the output and the spill count, on a composite string-led key
shaped like ``ORDER BY B DESC, A, C DESC``.

The cases cross both run generators, an unlimited and a fan-in-limited
merge (whose intermediate runs are scanned again), no offset and a deep
offset (whose rank index starts scans mid-file), and the memory and
disk backends; one more case is a binary-key ``LIMIT k PER`` query.
Small pages make every run several pages long, so page boundaries fall
inside every scan.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.topk import HistogramTopK
from repro.extensions.grouped import GroupedTopK
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.sorting.keycodec import compile_keycodec
from repro.storage.codec import TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager

ROWS = 30_000
K = 5_000
MEMORY = 600
PAGE_BYTES = 4_096

SCHEMA = Schema([Column("A", ColumnType.INT64),
                 Column("B", ColumnType.STRING),
                 Column("C", ColumnType.FLOAT64),
                 Column("ID", ColumnType.INT64)])
SPEC = SortSpec(SCHEMA, [SortColumn("B", ascending=False),
                         SortColumn("A"),
                         SortColumn("C", ascending=False)])


def _rows() -> list[tuple]:
    rng = np.random.default_rng(23)
    names = [f"customer-{i:02d}" for i in range(64)]
    a = rng.integers(0, 8, size=ROWS).tolist()
    b = [names[i] for i in rng.integers(0, 64, size=ROWS).tolist()]
    c = ((rng.permutation(ROWS) + rng.random(ROWS)) / ROWS).tolist()
    return list(zip(a, b, c, range(ROWS)))


def _manager(backend: str, directory) -> SpillManager:
    if backend == "memory":
        return SpillManager(page_bytes=PAGE_BYTES)
    return SpillManager(
        backend=DiskSpillBackend(
            directory=str(directory),
            codec=TypedPageCodec(SCHEMA, zone_maps=True)),
        page_bytes=PAGE_BYTES)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _counters(stats, output: list) -> tuple:
    return (_digest(output), stats.io.rows_spilled,
            stats.full_key_comparisons, stats.code_comparisons)


#: ``(run_generation, fan_in, offset, backend) -> (output digest,
#: rows_spilled, full_key_comparisons, code_comparisons)``; ``"per"`` is
#: the ``LIMIT k PER A`` case.
PINNED = {
    ("quicksort", None, 0, "memory"):
        ("7acdc8950f865710", 13689, 3326, 20973),
    ("quicksort", None, 0, "disk"):
        ("7acdc8950f865710", 13689, 3326, 20973),
    ("quicksort", None, 3000, "memory"):
        ("abb6df161f04fdb8", 18402, 5085, 28491),
    ("quicksort", None, 3000, "disk"):
        ("abb6df161f04fdb8", 18402, 5085, 28491),
    ("quicksort", 3, 0, "memory"):
        ("7acdc8950f865710", 23803, 3394, 21164),
    ("quicksort", 3, 0, "disk"):
        ("7acdc8950f865710", 23803, 3394, 21164),
    ("quicksort", 3, 3000, "memory"):
        ("abb6df161f04fdb8", 41708, 5990, 36656),
    ("quicksort", 3, 3000, "disk"):
        ("abb6df161f04fdb8", 41708, 5990, 36656),
    ("replacement_selection", None, 0, "memory"):
        ("7acdc8950f865710", 13981, 2552, 17130),
    ("replacement_selection", None, 0, "disk"):
        ("7acdc8950f865710", 13981, 2552, 17130),
    ("replacement_selection", None, 3000, "memory"):
        ("abb6df161f04fdb8", 18707, 3371, 22359),
    ("replacement_selection", None, 3000, "disk"):
        ("abb6df161f04fdb8", 18707, 3371, 22359),
    ("replacement_selection", 3, 0, "memory"):
        ("7acdc8950f865710", 24345, 2615, 18864),
    ("replacement_selection", 3, 0, "disk"):
        ("7acdc8950f865710", 24345, 2615, 18864),
    ("replacement_selection", 3, 3000, "memory"):
        ("abb6df161f04fdb8", 35135, 4281, 28933),
    ("replacement_selection", 3, 3000, "disk"):
        ("abb6df161f04fdb8", 35135, 4281, 28933),
    "per":
        ("aa7dbfcc46178dec", 18545, 9907, 67111),
}

CASES = list(itertools.product(
    ["quicksort", "replacement_selection"], [None, 3], [0, 3_000],
    ["memory", "disk"]))


@pytest.fixture(scope="module")
def rows() -> list[tuple]:
    return _rows()


@pytest.mark.parametrize("case", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_topk_merge_counters_are_pinned(case, rows, tmp_path):
    run_generation, fan_in, offset, backend = case
    with _manager(backend, tmp_path) as manager:
        operator = HistogramTopK(SPEC, K, MEMORY, spill_manager=manager,
                                 run_generation=run_generation,
                                 fan_in=fan_in, offset=offset)
        output = list(operator.execute(rows))
        counters = _counters(operator.stats, output)
    assert [SPEC.key(row) for row in output] == sorted(
        map(SPEC.key, rows))[offset:offset + K]
    assert operator.stats.code_comparisons > 0
    assert counters == PINNED[case]


def test_grouped_merge_counters_are_pinned(rows):
    group_spec = SortSpec(SCHEMA, ["A"])
    operator = GroupedTopK(
        lambda row: row[0], SPEC, 1_000, MEMORY,
        spill_manager=SpillManager(page_bytes=PAGE_BYTES),
        group_encoder=compile_keycodec(group_spec).encode,
        value_encoder=compile_keycodec(SPEC).encode)
    output = list(operator.execute(iter(rows)))
    expected = []
    for group in range(8):
        members = sorted((row for row in rows if row[0] == group),
                         key=SPEC.key)
        expected.extend((group, row) for row in members[:1_000])
    assert output == expected
    assert operator.stats.code_comparisons > 0
    assert _counters(operator.stats, output) == PINNED["per"]
