#!/usr/bin/env python
"""Benchmark: streaming merge join with run-generation cutoff pushdown.

Measured on a 1M-row skewed workload: under the streaming sort-merge
join, cutoff pushdown engages *during run generation* (the join's
publisher sharpens the shared bound while sort-side rows arrive), so
``merge+pushdown`` spills a fraction of the sort side that pushdown-off
merge (the bound never moves before the sort finishes) writes in full —
with byte-identical output.  The headline is
``sort_side_spill_reduction`` (>= 2x wanted).

GROUP BY is measured by the ``groupby_zipf`` workload of
``benchmarks/perf/run.py``, which also checks its output against a
plain-Python oracle.

Results are written as JSON (default ``BENCH_groupjoin.json``) so CI
can smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_groupjoin.py                  # 1M rows
    python benchmarks/bench_groupjoin.py --rows 20000 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.operators import (  # noqa: E402
    CutoffPushdownFilter,
    SortMergeJoin,
)
from repro.engine.session import Database  # noqa: E402
from repro.rows.schema import Column, ColumnType, Schema  # noqa: E402

FACT_SCHEMA = Schema([
    Column("ID", ColumnType.INT64),
    Column("FK", ColumnType.INT64),
    Column("SV", ColumnType.FLOAT64),
])
DIM_SCHEMA = Schema([
    Column("DK", ColumnType.INT64),
    Column("DV", ColumnType.INT64),
])


def make_join_tables(rows: int, dims: int, seed: int = 7):
    """A skewed fact table (lognormal sort values) and a unique-key
    dimension every fact row matches exactly once."""
    rng = np.random.default_rng(seed)
    fk = rng.integers(0, dims, size=rows)
    sv = rng.lognormal(mean=0.0, sigma=2.0, size=rows)
    fact = [(i, int(fk[i]), float(sv[i])) for i in range(rows)]
    dim = [(j, j * 10) for j in range(dims)]
    return fact, dim


def join_counters(plan) -> tuple[int, int]:
    """(sort-side rows spilled by the join, pushdown rows dropped)."""
    spilled = dropped = 0
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, SortMergeJoin):
            spilled += node.join_sort_spilled
        elif isinstance(node, CutoffPushdownFilter):
            dropped += node.rows_dropped
        stack.extend(node.children())
    return spilled, dropped


def run_join_variant(fact, dim, *, k: int, memory_rows: int,
                     pushdown: bool) -> dict:
    db = Database(memory_rows=memory_rows, join_method="merge",
                  pushdown=pushdown)
    db.register_table("FACT", FACT_SCHEMA, fact, row_count=len(fact))
    db.register_table("DIM", DIM_SCHEMA, dim, row_count=len(dim))
    sql = ("SELECT * FROM FACT JOIN DIM ON FACT.FK = DIM.DK "
           f"ORDER BY SV LIMIT {k}")
    started = time.perf_counter()
    result = db.sql(sql)
    seconds = time.perf_counter() - started
    spilled, dropped = join_counters(result.plan)
    return {
        "name": f"merge{'+pushdown' if pushdown else ''}",
        "pushdown": pushdown,
        "seconds": round(seconds, 4),
        "join_sort_rows_spilled": spilled,
        "pushdown_rows_dropped": dropped,
        "rows_spilled": result.stats.io.rows_spilled,
        "bytes_written": result.stats.io.bytes_written,
        "rows": result.rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--dims", type=int, default=1_000)
    parser.add_argument("--k", type=int, default=1_000)
    parser.add_argument("--memory-rows", type=int, default=10_000)
    parser.add_argument("--out", type=str,
                        default=str(REPO_ROOT / "BENCH_groupjoin.json"))
    args = parser.parse_args(argv)

    fact, dim = make_join_tables(args.rows, args.dims)
    join_variants = []
    for pushdown in (False, True):
        variant = run_join_variant(
            fact, dim, k=args.k, memory_rows=args.memory_rows,
            pushdown=pushdown)
        print(f"{variant['name']:>16}: {variant['seconds']:8.3f}s  "
              f"sort-side spilled={variant['join_sort_rows_spilled']:>9}  "
              f"dropped={variant['pushdown_rows_dropped']:>9}")
        join_variants.append(variant)
    join_outputs = [v.pop("rows") for v in join_variants]
    join_identical = all(rows == join_outputs[0]
                         for rows in join_outputs[1:])
    off, on = join_variants
    reduction = (off["join_sort_rows_spilled"]
                 / max(on["join_sort_rows_spilled"], 1))

    report = {
        "workload": {
            "rows": args.rows,
            "dim_rows": args.dims,
            "k": args.k,
            "memory_rows": args.memory_rows,
            "sort_value_distribution": "lognormal(0, 2)",
        },
        "join_variants": join_variants,
        "join_outputs_identical": join_identical,
        "sort_side_spill_reduction": round(reduction, 2),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\njoin outputs identical: {join_identical}")
    print(f"sort-side spill reduction (merge, off/on): {reduction:.1f}x")
    print(f"wrote {args.out}")
    return 0 if join_identical else 1


if __name__ == "__main__":
    sys.exit(main())
