"""Strategy bake-off: the Section 2.1 design space, measured.

The paper surveys four ways to execute a large-output top-k and argues
for histogram filtering.  This example runs all four on the same
workload — plus the engine-integrated spill path that folds zone maps
and late materialization *into* the histogram filter (DESIGN.md §16) —
and prices them under two environments:

* **disaggregated storage** (the paper's production environment): random
  reads cost a network round trip + service call + shared-disk seek;
* **local NVMe**: random reads are cheap.

The ranking flips exactly where the paper says it does — late
materialization is hopeless on disaggregated storage and respectable on
local flash — while full materialization (zone maps on shuffled input)
never wins.

Run:
    python examples/strategy_bakeoff.py
"""

import random

from repro.core.topk import HistogramTopK
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import TypedPageCodec
from repro.storage.costmodel import CostModel
from repro.storage.spill import DiskSpillBackend, SpillManager
from repro.strategies import (
    LateMaterializationTopK,
    RangePartitionTopK,
    ZoneMapTopK,
)
from repro.strategies.range_partition import boundaries_from_sample

DISAGGREGATED = CostModel(random_read_s=0.010)   # network + shared disk
LOCAL_NVME = CostModel(random_read_s=0.00002)    # ~50k IOPS flash

INPUT_ROWS = 120_000
K = 6_000
MEMORY_ROWS = 1_500


def build_input(seed: int = 0) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.random(), identifier)
            for identifier in range(INPUT_ROWS)]


def run_all(rows: list[tuple]) -> dict[str, object]:
    key = lambda row: row[0]  # noqa: E731
    operators: dict[str, object] = {}

    histogram = HistogramTopK(
        key, K, MEMORY_ROWS,
        spill_manager=SpillManager(row_size=lambda _row: 143))
    operators["histogram filter (the paper)"] = histogram

    operators["late materialization"] = LateMaterializationTopK(
        key, K, MEMORY_ROWS)

    boundaries = boundaries_from_sample(
        [row[0] for row in rows[:5_000]], 32)
    operators["range partitioning (sampled bounds)"] = \
        RangePartitionTopK(key, K, MEMORY_ROWS, boundaries)

    operators["zone maps (materialize first)"] = ZoneMapTopK(
        key, K, MEMORY_ROWS, block_rows=2_048)

    # The engine-integrated form of the same two ideas: zone maps live
    # *inside* the spill pages of the histogram filter's sorted runs
    # (sound there because runs are key-ordered), and late
    # materialization only re-reads payloads for rows that survived
    # both the filter and the page skip.
    schema = Schema([Column("value", ColumnType.FLOAT64),
                     Column("identifier", ColumnType.INT64)])
    spec = SortSpec(schema, [SortColumn("value"),
                             SortColumn("identifier")])
    codec = TypedPageCodec(schema, zone_maps=True,
                           late_materialization=True,
                           null_key_prefix=b"\x01")
    backends = [DiskSpillBackend(codec=codec)]
    operators["engine spill path (zone maps + late mat.)"] = \
        HistogramTopK(spec, K, MEMORY_ROWS,
                      spill_manager=SpillManager(backend=backends[0]),
                      late_materialization=True)

    reference = None
    for name, operator in operators.items():
        result = list(operator.execute(iter(rows)))
        if reference is None:
            reference = result
        assert result == reference, f"{name} disagreed!"
    for backend in backends:
        backend.close()
    return operators


def main() -> None:
    rows = build_input(seed=6)
    operators = run_all(rows)
    print(f"top {K:,} of {INPUT_ROWS:,} rows, memory for "
          f"{MEMORY_ROWS:,} — all strategies returned identical "
          f"results\n")
    header = (f"{'strategy':<42} {'spilled':>9} {'rand reads':>10} "
              f"{'disagg cost':>12} {'NVMe cost':>10}")
    print(header)
    print("-" * len(header))
    for name, operator in operators.items():
        io = operator.stats.io
        print(f"{name:<42} {io.rows_spilled:>9,} {io.random_reads:>10,} "
              f"{DISAGGREGATED.total_seconds(operator.stats):>11.3f}s "
              f"{LOCAL_NVME.total_seconds(operator.stats):>9.3f}s")
    print(
        "\nreading the table: histogram filtering wins outright on\n"
        "disaggregated storage; cheap local random reads rescue late\n"
        "materialization (its spill is zero — the narrow pairs fit in\n"
        "memory); zone maps pay the full materialization the paper\n"
        "calls prohibitive; range partitioning is competitive but only\n"
        "because it was handed sampled quantiles in advance.  The\n"
        "engine row is the PR 9 integration: zone maps inside the\n"
        "histogram filter's own spill pages plus a late-materialized\n"
        "merge — the random reads are its payload stitch, but unlike\n"
        "the standalone strategy they touch only pages that survived\n"
        "the filter and the page skip."
    )


if __name__ == "__main__":
    main()
