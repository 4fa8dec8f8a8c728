#!/usr/bin/env python
"""Microbenchmark: tuple-key heap merge vs OVC loser-tree merge.

A merge-heavy top-k over a three-column ``ORDER BY B DESC, A, C DESC``
key whose *leading* column is a descending string — the worst case for
tuple keys (tuple comparison scans columns with ``==`` before applying
``<``, so every comparison re-enters the interpreter through
``Desc.__eq__``/``Desc.__lt__`` on the very first column) and the home
turf of the binary key codec + offset-value coding
(``repro.sorting.keycodec`` / ``repro.sorting.ovc``), which decide most
merge tournaments with one integer comparison.

Variants per path (interleaved A/B within each repetition, best-of-N
kept):

* ``tuple`` — the operator sorts by ``SPEC.key``, a plain callable:
  the pre-codec substrate, binary heap over tuple keys;
* ``ovc`` — the operator sorts by ``SPEC`` itself, which picks binary
  keys, persisted offset-value codes and the tree-of-losers merge.

The row and batch paths run at fan-in 8 (multi-level merge: intermediate
steps rewrite coded runs) and fan-in 64 (single wide final merge).  Both
variants' output rows are asserted identical per configuration.

Alongside wall time, each variant reports the comparison counters
(``full_key_comparisons`` / ``code_comparisons``); the issue's
acceptance bar is a >= 1.3x end-to-end speedup and a >= 10x reduction in
full key comparisons for row/batch.

Results are written as JSON (default ``BENCH_merge.json``) so CI can
smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_merge.py                  # 1M rows
    python benchmarks/bench_merge.py --rows 20000 --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.topk import HistogramTopK  # noqa: E402
from repro.rows.batch import batches_from_rows  # noqa: E402
from repro.rows.schema import Column, ColumnType, Schema  # noqa: E402
from repro.rows.sortspec import SortColumn, SortSpec  # noqa: E402

#: Merge-heavy proportions: a large output relative to the memory
#: budget keeps the cutoff loose, so most input survives to the merge,
#: and memory-sized loads are deep enough that comparisons (not per-row
#: bookkeeping) dominate the run-generation sorts.
MEMORY_FRACTION = 1 / 25
K_FRACTION = 1 / 4

SCHEMA = Schema([
    Column("A", ColumnType.INT64),
    Column("B", ColumnType.STRING),
    Column("C", ColumnType.FLOAT64),
])
SPEC = SortSpec(SCHEMA, [SortColumn("B", ascending=False), "A",
                         SortColumn("C", ascending=False)])

#: Variant name -> the sort key handed to the operator.
SORT_KEYS = {"tuple": SPEC.key, "ovc": SPEC}
VARIANTS = list(SORT_KEYS)
BASELINE = "tuple"
FAN_INS = [8, 64]


def make_rows(input_rows: int, seed: int = 7) -> list[tuple]:
    """Low-cardinality leading columns force deep key comparisons: most
    pairs tie on ``B`` (and often ``A``), exactly where offset-value
    codes skip the shared prefix."""
    rng = random.Random(seed)
    names = [f"customer-{i:04d}" for i in range(64)]
    return [(rng.randrange(8), names[rng.randrange(64)],
             rng.randrange(4000) / 16)
            for _ in range(input_rows)]


def sizing(input_rows: int) -> tuple[int, int]:
    memory_rows = max(64, int(input_rows * MEMORY_FRACTION))
    k = max(memory_rows + 1, int(input_rows * K_FRACTION))
    return memory_rows, k


def run_row(rows, memory_rows, k, fan_in, variant):
    operator = HistogramTopK(SORT_KEYS[variant], k, memory_rows,
                             fan_in=fan_in, run_generation="quicksort")
    return list(operator.execute(iter(rows))), operator.stats


def run_batch(rows, memory_rows, k, fan_in, variant):
    operator = HistogramTopK(SORT_KEYS[variant], k, memory_rows,
                             fan_in=fan_in, run_generation="quicksort")
    return list(operator.execute_batches(
        batches_from_rows(rows, SCHEMA))), operator.stats


PATHS = {"row": run_row, "batch": run_batch}


def measure(rows, memory_rows, k, repeat: int) -> dict:
    results: dict = {}
    for path_name, runner in PATHS.items():
        results[path_name] = {}
        for fan_in in FAN_INS:
            per_variant = {variant: {"seconds": float("inf")}
                           for variant in VARIANTS}
            outputs = {}
            # Interleave the variants within each repetition so drift
            # (thermal, allocator state) hits both sides equally.
            for _ in range(repeat):
                for variant in VARIANTS:
                    started = time.perf_counter()
                    output, stats = runner(rows, memory_rows, k,
                                           fan_in, variant)
                    elapsed = time.perf_counter() - started
                    entry = per_variant[variant]
                    if elapsed < entry["seconds"]:
                        entry.update(
                            seconds=elapsed,
                            rows_per_sec=len(rows) / elapsed,
                            rows_spilled=stats.io.rows_spilled,
                            comparisons_full=stats.full_key_comparisons,
                            comparisons_code_only=stats.code_comparisons,
                        )
                    outputs[variant] = output
            reference = outputs[BASELINE]
            for variant, output in outputs.items():
                if output != reference:
                    raise AssertionError(
                        f"{path_name}/fan_in_{fan_in}/{variant} produced "
                        f"different output rows")
            baseline = per_variant[BASELINE]
            for entry in per_variant.values():
                entry["speedup_vs_baseline"] = \
                    baseline["seconds"] / entry["seconds"]
            full_before = baseline["comparisons_full"]
            full_after = per_variant["ovc"]["comparisons_full"]
            per_variant["ovc"]["full_comparison_reduction"] = (
                full_before / full_after if full_after else float("inf"))
            results[path_name][f"fan_in_{fan_in}"] = per_variant
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="input rows (default 1M; CI uses a tiny "
                             "budget)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved A/B repetitions (best kept)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_merge.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    memory_rows, k = sizing(args.rows)
    print(f"workload: {args.rows:,} rows, k={k:,}, "
          f"memory={memory_rows:,}, ORDER BY B DESC, A, C DESC",
          flush=True)
    rows = make_rows(args.rows)

    paths = measure(rows, memory_rows, k, args.repeat)
    report = {
        "benchmark": "merge_substrate",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {
            "input_rows": args.rows,
            "k": k,
            "memory_rows": memory_rows,
            "sort_spec": str(SPEC),
            "run_generation": "quicksort",
            "backend": "memory",
        },
        "variants": VARIANTS,
        "baseline": BASELINE,
        "paths": paths,
        "ovc_speedup": {
            f"{path}/{config}": entries["ovc"]["speedup_vs_baseline"]
            for path, configs in paths.items()
            for config, entries in configs.items()
            if "ovc" in entries
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for path, configs in paths.items():
        for config, entries in configs.items():
            print(f"-- {path} {config}")
            for variant, entry in entries.items():
                extra = ""
                if "comparisons_full" in entry:
                    extra = (f", full={entry['comparisons_full']:,} "
                             f"code={entry['comparisons_code_only']:,}")
                print(f"  {variant:>6}: {entry['seconds']:.3f}s "
                      f"({entry['rows_per_sec']:>12,.0f} rows/sec"
                      f"{extra}, {entry['speedup_vs_baseline']:.2f}x)")
    for config, speedup in report["ovc_speedup"].items():
        print(f"{config}: ovc is {speedup:.2f}x over {BASELINE}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
