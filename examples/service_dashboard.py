"""A dashboard backend on the concurrent query service.

Simulates the paper's motivating workload (Section 1): a BI dashboard
whose widgets refresh the same top-k panels over and over.  Refresh
cycle 1 pays full price; every later cycle is served from the result
cache — or, after the underlying table is reloaded, re-executes with a
*seeded cutoff* so the histogram filter eliminates input from the very
first row and spills a fraction of the original volume.

Run: ``PYTHONPATH=src python examples/service_dashboard.py``
"""

from __future__ import annotations

import random

from repro.engine.session import Database
from repro.rows.schema import Column, ColumnType, Schema
from repro.service import QueryService, ResultCache

ROWS = 30_000
SCHEMA = Schema([
    Column("request_id", ColumnType.INT64),
    Column("latency_ms", ColumnType.FLOAT64),
    Column("endpoint", ColumnType.STRING),
])

PANELS = [
    # Each widget asks for a page of the same latency leaderboard.
    "SELECT request_id, latency_ms FROM requests "
    "ORDER BY latency_ms DESC LIMIT 1000",
    "SELECT request_id, latency_ms FROM requests "
    "ORDER BY latency_ms DESC LIMIT 1000 OFFSET 1000",
    "SELECT endpoint, latency_ms FROM requests "
    "ORDER BY latency_ms DESC LIMIT 500",
]


def make_rows(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    endpoints = [f"/api/v1/{name}" for name in
                 ("search", "cart", "checkout", "login", "browse")]
    return [(i, rng.expovariate(1 / 120.0), rng.choice(endpoints))
            for i in range(ROWS)]


def refresh_cycle(service: QueryService, cycle: int) -> None:
    print(f"-- refresh cycle {cycle} --")
    for sql in PANELS:
        result = service.execute(sql)
        stats = result.stats
        origin = {"miss": "executed (cold)",
                  "exact": "served from cache",
                  "cutoff": "executed with seeded cutoff"}[stats.cache]
        line = (f"   {len(result.rows):4d} rows  "
                f"spilled {stats.rows_spilled:5d}  {origin}")
        if stats.rows_filtered_by_seed:
            line += f" (seed eliminated {stats.rows_filtered_by_seed} rows)"
        print(line)


def main() -> None:
    db = Database(memory_rows=512)
    db.register_table("requests", SCHEMA, make_rows(seed=1))

    with QueryService(db, workers=4, total_memory_rows=2048) as service:
        # Cycle 1: cold — every panel runs and spills at full volume.
        refresh_cycle(service, 1)
        # Cycle 2: identical queries — pure cache hits, zero engine work.
        refresh_cycle(service, 2)

        # New data arrives: reloading bumps the table version, so cached
        # results go stale and panels must re-execute...
        db.register_table("requests", SCHEMA, make_rows(seed=2))
        print("table reloaded (new content version)")
        refresh_cycle(service, 3)
        # ...and cycle 4 demonstrates steady state on the new version:
        # cached again.
        refresh_cycle(service, 4)

        print("service:", service.snapshot().describe())
        print("cache:  ", service.cache.describe())
        print("memory: ", service.governor.describe())

    # Some deployments cannot serve materialized results (freshness
    # policies, result-size limits).  ``max_results=0`` keeps only the
    # cutoff hints: every refresh re-executes, but with a seeded filter
    # that eliminates cold input immediately — same rows, a fraction of
    # the spill.
    print()
    print("-- cutoff-reuse only (exact serving disabled) --")
    with QueryService(db, workers=2,
                      cache=ResultCache(max_results=0)) as service:
        sql = PANELS[0]
        cold = service.execute(sql)
        warm = service.execute(sql)
        assert warm.rows == cold.rows
        print(f"   cold run spilled {cold.stats.rows_spilled} rows")
        print(f"   seeded re-run spilled {warm.stats.rows_spilled} rows "
              f"(seed eliminated {warm.stats.rows_filtered_by_seed})")


if __name__ == "__main__":
    main()
