#!/usr/bin/env python
"""Microbenchmark: batch vs vectorized-lowered top-k.

Runs the same keys-only top-k workload through the two single-process
execution paths the engine offers and reports rows/sec for each:

* ``batch``      — ``HistogramTopK.execute_batches`` (RowBatch pipeline,
  vectorized arrival prefilter);
* ``vectorized`` — the planner's :class:`VectorizedTopK` lowering (numpy
  kernels with late-binding row ids).

The input is materialized once and every path consumes the identical
list, so the numbers isolate engine overhead, not data generation.
Results are written as JSON (default ``BENCH_batch.json``) so CI can
smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_batch_engine.py                # 1M rows
    python benchmarks/bench_batch_engine.py --rows 20000 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.topk import HistogramTopK  # noqa: E402
from repro.datagen.workloads import keys_only_workload  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    Table,
    TableScan,
    VectorizedTopK,
)
from repro.rows.batch import batches_from_rows  # noqa: E402

#: The paper's memory : k : input ratios (7M : 30M : 2B), scaled.
MEMORY_FRACTION = 7 / 2_000
K_FRACTION = 30 / 2_000


def build_workload(input_rows: int):
    memory_rows = max(64, int(input_rows * MEMORY_FRACTION))
    k = max(memory_rows + 1, int(input_rows * K_FRACTION))
    return keys_only_workload(input_rows, k, memory_rows, seed=3)


def run_batch(workload, rows):
    operator = HistogramTopK(workload.sort_spec, workload.k,
                             workload.memory_rows)
    output = list(operator.execute_batches(
        batches_from_rows(rows, workload.schema)))
    return output, operator.stats


def run_vectorized(workload, rows):
    table = Table("KEYS", workload.schema, rows)
    operator = VectorizedTopK(TableScan(table), workload.sort_spec,
                              k=workload.k,
                              memory_rows=workload.memory_rows)
    output = list(operator.rows())
    return output, operator.stats


PATHS = {
    "batch": run_batch,
    "vectorized": run_vectorized,
}


def measure(workload, rows, repeat: int) -> dict:
    results = {}
    reference = None
    for name, runner in PATHS.items():
        best = float("inf")
        output = stats = None
        for _ in range(repeat):
            started = time.perf_counter()
            output, stats = runner(workload, rows)
            best = min(best, time.perf_counter() - started)
        if reference is None:
            reference = output
        elif output != reference:
            raise AssertionError(
                f"path {name!r} produced different output rows")
        results[name] = {
            "seconds": best,
            "rows_per_sec": workload.input_rows / best,
            "output_rows": len(output),
            "rows_spilled": stats.io.rows_spilled,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="input rows (default 1M; CI uses a tiny "
                             "budget)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed repetitions per path (best is kept)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_batch.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    workload = build_workload(args.rows)
    print(f"workload: {workload.name}", flush=True)
    rows = list(workload.make_input())

    paths = measure(workload, rows, args.repeat)
    report = {
        "benchmark": "batch_engine",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {
            "input_rows": workload.input_rows,
            "k": workload.k,
            "memory_rows": workload.memory_rows,
            "distribution": workload.distribution_label,
        },
        "paths": paths,
        "speedups_vs_batch": {
            name: paths[name]["rows_per_sec"]
            / paths["batch"]["rows_per_sec"]
            for name in paths
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in paths.items():
        print(f"{name:>11}: {entry['rows_per_sec']:>12,.0f} rows/sec "
              f"({entry['seconds']:.3f}s, "
              f"spilled {entry['rows_spilled']:,})")
    for name, speedup in report["speedups_vs_batch"].items():
        if name != "batch":
            print(f"{name} speedup vs batch: {speedup:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
