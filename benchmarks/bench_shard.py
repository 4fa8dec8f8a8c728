#!/usr/bin/env python
"""Benchmark: multi-process sharded top-k with a shared global cutoff.

Runs one disk-spilling top-k workload through the sharded executor at
several worker counts and reports, per worker count:

* measured wall seconds (honest: on a machine with fewer cores than
  workers, wall time cannot show the parallel win),
* per-shard busy seconds and consumed/spilled rows,
* cutoff-exchange traffic (publications / adoptions / remote drops),
* the *modeled critical-path* seconds under the repo's disaggregated
  storage cost model (``CostModel.sharded_seconds``: max over shards,
  machine-independent) and the speedup of that path over the
  single-process baseline — the number the acceptance gate reads,
  because CI containers typically expose a single core.

Every variant's output is asserted byte-identical to the in-process
single-engine reference, and a small EXPLAIN ANALYZE run records that
cutoff publications are visible in the analyzed plan.

Results are written as JSON (default ``BENCH_shard.json``) so CI can
smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_shard.py                   # 1M rows, 1/2/4
    python benchmarks/bench_shard.py --rows 20000 --workers 1,2 \
        --out /tmp/bench_shard.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.session import Database  # noqa: E402
from repro.rows.schema import Column, ColumnType, Schema  # noqa: E402
from repro.shard import ShardedTopKExecutor, shm_residue  # noqa: E402
from repro.storage.costmodel import SCALED_COST_MODEL  # noqa: E402
from repro.vectorized.runs import (  # noqa: E402
    VectorRunDisk,
    VectorRunStore,
)
from repro.vectorized.topk import VectorizedHistogramTopK  # noqa: E402

#: Spill-heavy proportions (the same as ``bench_zonemap.py``): the
#: output is far larger than the memory budget, so every engine
#: genuinely writes sorted runs to disk.
MEMORY_FRACTION = 1 / 250
K_FRACTION = 1 / 20

CHUNK_ROWS = 32_768


def make_keys(rows: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=rows) * 1e6


def chunk_stream(keys: np.ndarray):
    ids = np.arange(keys.size, dtype=np.int64)
    for start in range(0, keys.size, CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        yield keys[start:stop], ids[start:stop]


def run_reference(keys: np.ndarray, k: int, memory_rows: int):
    """Single-process in-process kernel on a real disk store."""
    store = VectorRunStore(storage=VectorRunDisk())
    kernel = VectorizedHistogramTopK(k=k, memory_rows=memory_rows,
                                     store=store)
    started = time.perf_counter()
    try:
        out_keys, out_ids = kernel.execute(chunk_stream(keys))
    finally:
        store.close()
    seconds = time.perf_counter() - started
    return out_keys, out_ids, seconds, kernel.stats


def run_sharded(keys: np.ndarray, k: int, memory_rows: int, workers: int):
    executor = ShardedTopKExecutor(k=k, shards=workers,
                                   memory_rows=memory_rows,
                                   spill="disk", chunk_rows=CHUNK_ROWS)
    out_keys, out_ids = executor.execute(chunk_stream(keys))
    return out_keys, out_ids, executor


def explain_analyze_demo(rows: int, workers: int) -> dict:
    """A small sharded query under EXPLAIN ANALYZE: proves the cutoff
    exchange is visible in the analyzed plan."""
    schema = Schema([Column("key", ColumnType.FLOAT64),
                     Column("id", ColumnType.INT64)])
    keys = make_keys(rows, seed=11)
    table_rows = [(float(key), index)
                  for index, key in enumerate(keys)]
    db = Database(memory_rows=max(256, rows // 100), shards=workers,
                  shard_options={"min_rows_per_shard": 1,
                                 "chunk_rows": 4096})
    db.register_table("T", schema, table_rows, row_count=rows)
    limit = max(10, rows // 20)
    result = db.sql(f"SELECT * FROM T ORDER BY key LIMIT {limit}",
                    explain_analyze=True)
    nodes = result.analysis.find("ShardedVectorizedTopK")
    assert nodes, "plan did not shard"
    details = nodes[0].details
    text = result.explain_analyze()
    assert "cutoff_publications=" in text
    return {
        "rows": rows,
        "limit": limit,
        "shards": details["shards"],
        "cutoff_publications": details["cutoff_publications"],
        "cutoff_adoptions": details["cutoff_adoptions"],
        "rows_dropped_by_remote_cutoff":
            details["rows_dropped_by_remote_cutoff"],
        "visible_in_explain_analyze": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--workers", type=str, default="1,2,4")
    parser.add_argument("--out", type=str,
                        default=str(REPO_ROOT / "BENCH_shard.json"))
    args = parser.parse_args(argv)

    rows = args.rows
    worker_counts = [int(part) for part in args.workers.split(",")]
    memory_rows = max(64, int(rows * MEMORY_FRACTION))
    k = max(memory_rows + 1, int(rows * K_FRACTION))
    keys = make_keys(rows)

    print(f"workload: rows={rows} k={k} memory_rows={memory_rows} "
          f"spill=disk cpus={os.cpu_count()}")

    ref_keys, ref_ids, ref_seconds, ref_stats = run_reference(
        keys, k, memory_rows)
    baseline_model = SCALED_COST_MODEL.total_seconds(ref_stats)
    print(f"reference (in-process): {ref_seconds:.3f}s wall, "
          f"{baseline_model:.3f}s modeled, "
          f"spilled={ref_stats.io.rows_spilled}")

    results = {}
    for workers in worker_counts:
        out_keys, out_ids, executor = run_sharded(
            keys, k, memory_rows, workers)
        identical = (np.array_equal(out_keys, ref_keys)
                     and np.array_equal(out_ids, ref_ids))
        assert identical, f"sharded output diverged at {workers} workers"
        assert shm_residue() == [], "leaked shared-memory segments"
        shard_stats = [s.stats for s in executor.shard_summaries]
        modeled = SCALED_COST_MODEL.sharded_seconds(shard_stats)
        results[str(workers)] = {
            "wall_seconds": round(executor.elapsed_seconds, 6),
            "modeled_critical_path_seconds": round(modeled, 6),
            "modeled_speedup_vs_single": round(baseline_model / modeled, 3),
            "byte_identical_to_reference": identical,
            "rows_spilled": executor.stats.io.rows_spilled,
            "cutoff_publications": executor.publications,
            "cutoff_adoptions": executor.adoptions,
            "rows_dropped_by_remote_cutoff": executor.rows_dropped_remote,
            "merge_mode": executor.merge_mode_used,
            "shards": [
                {
                    "shard": s.shard,
                    "rows_consumed": s.rows_consumed,
                    "rows_spilled": s.rows_spilled,
                    "busy_seconds": round(s.busy_seconds, 6),
                }
                for s in executor.shard_summaries
            ],
        }
        entry = results[str(workers)]
        print(f"workers={workers}: wall={entry['wall_seconds']:.3f}s "
              f"modeled={modeled:.3f}s "
              f"(x{entry['modeled_speedup_vs_single']:.2f} modeled) "
              f"pub={executor.publications} adopt={executor.adoptions}")

    demo = explain_analyze_demo(min(rows, 100_000),
                                max(worker_counts[-1], 2))

    report = {
        "benchmark": "sharded_topk",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {
            "input_rows": rows,
            "k": k,
            "memory_rows": memory_rows,
            "distribution": "normal",
            "backend": "disk",
            "chunk_rows": CHUNK_ROWS,
        },
        "cpus": os.cpu_count(),
        "note": (
            "Wall-clock speedup requires as many cores as workers; the "
            "modeled critical path (max per-shard cost under the scaled "
            "disaggregated-storage model) is machine-independent and is "
            "the acceptance number on single-core CI containers."),
        "reference": {
            "wall_seconds": round(ref_seconds, 6),
            "modeled_seconds": round(baseline_model, 6),
            "rows_spilled": ref_stats.io.rows_spilled,
        },
        "workers": results,
        "explain_analyze": demo,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
