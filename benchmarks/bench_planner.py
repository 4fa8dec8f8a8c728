#!/usr/bin/env python
"""Benchmark: cost-based planner choices vs hand-picked physical plans.

Runs three top-k workloads with distinct winning strategies:

* ``numeric`` — single FLOAT64 key: the vectorized engine should win.
* ``composite`` — three-column descending-string-led key: only the
  batch path (binary keys with offset-value coding) is eligible.
* ``filtered`` — selective predicate plus numeric key: the choice must
  survive a WHERE clause (and the second repetition plans from observed
  cardinality feedback instead of defaults).

Each workload is executed once with the no-knob cost-based planner and
once per hand-picked variant (``force_path=`` batch/vectorized). Per
workload the report
records the planner's chosen label, every variant's best-of-``--repeat``
wall seconds, and the *regret*: cost-chosen seconds over the best
hand-picked variant's seconds. The acceptance gate is regret <= 1.15
(within 15% of the best hand-picked plan); pass ``--check`` to enforce
it as an exit code, which full-size runs do and tiny CI smoke runs —
where sub-millisecond noise dominates — do not.

All variants of a workload are asserted to return identical rows, which
doubles as a differential test across every planner-forced path.

Results are written as JSON (default ``BENCH_planner.json``) so CI can
smoke-run with a tiny ``--rows`` budget and assert the file parses.

Usage::

    python benchmarks/bench_planner.py                    # 400k rows
    python benchmarks/bench_planner.py --rows 20000 --repeat 1 \
        --out /tmp/bench_planner.json
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

from repro.engine.session import Database  # noqa: E402
from repro.rows.schema import Column, ColumnType, Schema  # noqa: E402

SCHEMA = Schema([
    Column("K", ColumnType.FLOAT64),
    Column("G", ColumnType.INT64),
    Column("S", ColumnType.STRING),
    Column("T", ColumnType.STRING),
])

MEMORY_FRACTION = 1 / 100
REGRET_GATE = 1.15


def make_rows(count: int, seed: int = 17):
    rng = random.Random(seed)
    return [(rng.random() * 1e6, rng.randrange(1000),
             f"s{rng.randrange(100_000):06d}", f"t{rng.randrange(500):04d}")
            for _ in range(count)]


def workloads(rows: int) -> list[dict]:
    limit = max(10, rows // 20)
    return [
        {
            "name": "numeric",
            "sql": f"SELECT * FROM R ORDER BY K LIMIT {limit}",
            "variants": [
                {"label": "force:batch", "force_path": "batch"},
                {"label": "force:vectorized", "force_path": "vectorized"},
            ],
        },
        {
            "name": "composite",
            "sql": f"SELECT * FROM R ORDER BY S DESC, T, G LIMIT {limit}",
            "variants": [
                {"label": "force:batch", "force_path": "batch"},
            ],
        },
        {
            "name": "filtered",
            "sql": (f"SELECT * FROM R WHERE G < 500 ORDER BY K "
                    f"LIMIT {limit}"),
            "variants": [
                {"label": "force:batch", "force_path": "batch"},
                {"label": "force:vectorized", "force_path": "vectorized"},
            ],
        },
    ]


def build_db(table_rows, memory_rows, **db_kwargs) -> Database:
    db = Database(memory_rows=memory_rows, **db_kwargs)
    db.register_table("R", SCHEMA, table_rows, row_count=len(table_rows))
    return db


def timed_run(db: Database, sql: str, repeat: int):
    best, result_rows = float("inf"), None
    for _ in range(repeat):
        started = time.perf_counter()
        result_rows = db.sql(sql).rows
        best = min(best, time.perf_counter() - started)
    return best, result_rows


def planner_label(db: Database, sql: str) -> dict:
    plan = db.plan(sql)
    stack = [plan]
    while stack:
        node = stack.pop()
        decision = node.__dict__.get("decision")
        if decision is not None:
            return {
                "chosen": decision.chosen.label(),
                "cost_seconds": round(decision.chosen.cost.seconds, 6),
                "estimated_rows": round(decision.estimated_rows, 1),
                "stats_source": decision.stats_source,
                "candidates": [
                    {"label": c.label(),
                     "cost_seconds": round(c.cost.seconds, 6)}
                    for c in decision.candidates
                ],
            }
        stack.extend(node.children())
    raise AssertionError("no PlanDecision on the plan")


def run_workload(workload: dict, table_rows, memory_rows: int,
                 repeat: int) -> dict:
    sql = workload["sql"]

    costed_db = build_db(table_rows, memory_rows)
    decision = planner_label(costed_db, sql)
    costed_seconds, reference = timed_run(costed_db, sql, repeat)
    # Replan after execution so observed-cardinality feedback shows up.
    feedback = planner_label(costed_db, sql)

    variants = []
    for variant in workload["variants"]:
        kwargs = {key: value for key, value in variant.items()
                  if key != "label"}
        db = build_db(table_rows, memory_rows, **kwargs)
        seconds, rows = timed_run(db, sql, repeat)
        assert rows == reference, \
            f"{workload['name']}: {variant['label']} diverged"
        variants.append({"label": variant["label"],
                         "wall_seconds": round(seconds, 6)})

    best = min(variants, key=lambda v: v["wall_seconds"])
    regret = costed_seconds / best["wall_seconds"] \
        if best["wall_seconds"] > 0 else 1.0
    return {
        "sql": sql,
        "planner": decision,
        "replanned_after_run": {
            "stats_source": feedback["stats_source"],
            "estimated_rows": feedback["estimated_rows"],
        },
        "cost_chosen_wall_seconds": round(costed_seconds, 6),
        "hand_picked": variants,
        "best_hand_picked": best["label"],
        "regret_vs_best_hand_picked": round(regret, 3),
        "within_15pct": regret <= REGRET_GATE,
        "all_variants_byte_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=400_000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--check", action="store_true",
                        help="fail if any workload's regret exceeds "
                             f"{REGRET_GATE}")
    parser.add_argument("--out", type=str,
                        default=str(REPO_ROOT / "BENCH_planner.json"))
    args = parser.parse_args(argv)

    table_rows = make_rows(args.rows)
    memory_rows = max(256, int(args.rows * MEMORY_FRACTION))
    print(f"workload: rows={args.rows} memory_rows={memory_rows} "
          f"repeat={args.repeat}")

    results = {}
    failures = []
    for workload in workloads(args.rows):
        entry = run_workload(workload, table_rows, memory_rows,
                             args.repeat)
        results[workload["name"]] = entry
        print(f"{workload['name']}: chose {entry['planner']['chosen']} "
              f"({entry['cost_chosen_wall_seconds']:.3f}s), best "
              f"hand-picked {entry['best_hand_picked']} "
              f"({min(v['wall_seconds'] for v in entry['hand_picked']):.3f}s),"
              f" regret x{entry['regret_vs_best_hand_picked']:.2f}")
        if not entry["within_15pct"]:
            failures.append(workload["name"])

    report = {
        "benchmark": "cost_based_planner",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {"input_rows": args.rows, "memory_rows": memory_rows,
                     "repeat": args.repeat},
        "regret_gate": REGRET_GATE,
        "note": (
            "Regret compares the no-knob cost-based plan's wall seconds "
            "against the best force_path hand-picked "
            "variant. Tiny smoke runs are noise-dominated; the 15% gate "
            "is only enforced with --check on full-size runs."),
        "workloads": results,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.check and failures:
        print(f"regret gate exceeded for: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
