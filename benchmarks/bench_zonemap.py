#!/usr/bin/env python
"""Microbenchmark: zone-map page skipping and late materialization.

Runs a disk-heavy top-k over wide TPC-H ``LINEITEM`` rows — the paper's
payload-dominated regime, where every byte of a 16-column row travels
through the external sort — and ablates the two page-skipping spill
storage components independently:

* zone maps — per-page min/max of the encoded binary sort key in the
  page header; the merge read path drops whole pages against the cutoff
  *before* decoding (and before prefetching them off disk);
* late materialization — key-split pages whose skeleton scan decodes
  only ``(sort key, row id)`` during the merge, re-reading full payloads
  for just the k winners in one stitch pass at the end.

``plain`` (both off) is the baseline; the headline number is the
end-to-end speedup of ``zonemap_late`` over it.  Every variant's output
rows are asserted identical, and per-variant ``pages_skipped_zone_map``
/ ``bytes_skipped_decode`` / ``payload_stitch_seconds`` are reported so
a regression in either component is visible in isolation.

Results are written as JSON (default ``BENCH_zonemap.json``) so CI can
smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_zonemap.py                  # 1M rows
    python benchmarks/bench_zonemap.py --rows 20000 --out /tmp/b.json
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
from repro.rows.lineitem import (  # noqa: E402
    LINEITEM_SCHEMA,
    generate_lineitem,
)
from repro.rows.sortspec import SortColumn, SortSpec  # noqa: E402
from repro.storage.codec import TypedPageCodec  # noqa: E402
from repro.storage.spill import DiskSpillBackend, SpillManager  # noqa: E402

#: Spill-heavy proportions: a large output relative to a small memory
#: budget keeps the cutoff filter loose, so a sizable fraction of the
#: wide rows genuinely reaches the disk.
MEMORY_FRACTION = 1 / 250
K_FRACTION = 1 / 20

#: The sort key is composite (orderkey, then linenumber), so the binary
#: key codec engages and spill pages carry ``bytes`` keys — the zone-map
#: precondition.  Orderkeys arrive *descending* — the adversarial order
#: for the eager filter (every row improves on everything seen, so the
#: cutoff never rejects) — which pushes the whole input through the
#: spill path: the disk-heavy regime this benchmark ablates.
SORT_COLUMNS = ("L_ORDERKEY", "L_LINENUMBER")

VARIANTS = [
    ("plain", False, False),
    ("zonemap", True, False),
    ("late", False, True),
    ("zonemap_late", True, True),
]
BASELINE = "plain"
FAST = "zonemap_late"


def build_workload(input_rows: int):
    memory_rows = max(64, int(input_rows * MEMORY_FRACTION))
    k = max(memory_rows + 1, int(input_rows * K_FRACTION))
    spec = SortSpec(LINEITEM_SCHEMA,
                    [SortColumn(name) for name in SORT_COLUMNS])
    return spec, k, memory_rows


def run_variant(spec, rows, k, memory_rows,
                zone_maps: bool, late: bool):
    codec = TypedPageCodec(LINEITEM_SCHEMA, zone_maps=zone_maps,
                           late_materialization=late,
                           null_key_prefix=b"\x01")
    backend = DiskSpillBackend(codec=codec)
    manager = SpillManager(backend=backend)
    operator = HistogramTopK(spec, k, memory_rows,
                             spill_manager=manager,
                             late_materialization=late)
    output = list(operator.execute(iter(rows)))
    manager.close()
    backend.close()
    return output, operator.stats


def measure(spec, rows, k, memory_rows, repeat: int) -> dict:
    per_variant = {}
    reference = None
    for variant, zone_maps, late in VARIANTS:
        best = float("inf")
        output = stats = None
        for _ in range(repeat):
            started = time.perf_counter()
            output, stats = run_variant(spec, rows, k, memory_rows,
                                        zone_maps, late)
            best = min(best, time.perf_counter() - started)
        if reference is None:
            reference = output
        elif output != reference:
            raise AssertionError(
                f"{variant} produced different output rows")
        io = stats.io
        per_variant[variant] = {
            "seconds": best,
            "rows_per_sec": len(rows) / best,
            "rows_spilled": io.rows_spilled,
            "pages_skipped_zone_map": io.pages_skipped_zone_map,
            "bytes_skipped_decode": io.bytes_skipped_decode,
            "payload_stitch_seconds": round(io.payload_stitch_seconds, 6),
            "bytes_encoded": io.bytes_encoded,
            "bytes_decoded": io.bytes_decoded,
            "random_reads": io.random_reads,
            "decode_seconds": round(io.decode_seconds, 6),
        }
    baseline = per_variant[BASELINE]["seconds"]
    for variant in per_variant:
        per_variant[variant]["speedup_vs_baseline"] = \
            baseline / per_variant[variant]["seconds"]
    return per_variant


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="input rows (default 1M; CI uses a tiny "
                             "budget)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed repetitions per variant (best kept)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_zonemap.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    spec, k, memory_rows = build_workload(args.rows)
    print(f"workload: lineitem_wide rows={args.rows} k={k} "
          f"memory={memory_rows} order_by={','.join(SORT_COLUMNS)} "
          f"[disk spill backend]", flush=True)
    rows = list(generate_lineitem(
        args.rows, key_values=iter(range(args.rows, 0, -1)), seed=7))

    variants = measure(spec, rows, k, memory_rows, args.repeat)
    report = {
        "benchmark": "zonemap_page_skipping",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {
            "input_rows": args.rows,
            "k": k,
            "memory_rows": memory_rows,
            "schema": "tpch_lineitem",
            "order_by": list(SORT_COLUMNS),
            "arrival": "descending_orderkey",
            "backend": "disk",
        },
        "variants": [name for name, _zone, _late in VARIANTS],
        "baseline": BASELINE,
        "results": variants,
        "speedup": variants[FAST]["speedup_vs_baseline"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for variant, entry in variants.items():
        print(f"  {variant:>12}: {entry['seconds']:.3f}s "
              f"({entry['rows_per_sec']:>12,.0f} rows/sec, "
              f"spilled {entry['rows_spilled']:,}, "
              f"skipped {entry['pages_skipped_zone_map']:,} pages / "
              f"{entry['bytes_skipped_decode']:,} B, "
              f"{entry['speedup_vs_baseline']:.2f}x)")
    print(f"{FAST} is {report['speedup']:.2f}x over {BASELINE}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
