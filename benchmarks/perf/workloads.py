"""The five SQL workloads of the performance benchmark.

Each workload builds its tables from a seed, registers them with a
:class:`~repro.engine.session.Database`, and names one SQL query that
goes through ``Database.sql`` exactly as a user's would, so the plan the
planner picks is part of what is measured.  It also carries a
plain-Python oracle for the query's output and an ``engaged`` check for
the mechanism the workload exists to exercise.

Sizes keep the ratios ``k : memory_rows : input rows`` fixed; ``smoke``
shrinks the inputs for the test suite.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.engine.operators import (
    GroupedAggregate,
    HashJoin,
    SortMergeJoin,
    TopK,
    VectorizedTopK,
)
from repro.engine.session import Database, QueryResult
from repro.rows.lineitem import LINEITEM_SCHEMA, generate_lineitem
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager


@dataclass
class Prepared:
    """One workload's inputs, registered and ready to query."""

    db: Database
    sql: str
    #: Table name -> (schema, rows); kept resident for the oracle.
    tables: dict[str, tuple[Schema, list[tuple]]]
    params: dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Size name -> parameters (row counts, ``k``, ``memory_rows``).
    sizes: dict[str, dict[str, int]]
    make: Callable[[np.random.Generator, dict, str], Prepared]
    oracle: Callable[[Prepared], list[tuple]]
    #: ``(spec, rows)`` to time the binary key encoder on, outside queries.
    key_rows: Callable[[Prepared], tuple[SortSpec, list[tuple]]]
    engaged: Callable[[QueryResult, Prepared], bool]
    #: Components of the calibration its times are scaled by: those
    #: whose speed tracked this workload's best under host contention.
    calibration: tuple[str, ...]

    def prepare(self, seed: int, size: str, spill_dir: str) -> Prepared:
        return self.make(np.random.default_rng(seed), self.sizes[size],
                         spill_dir)


def plan_nodes(plan, cls) -> list:
    """Every node of ``plan`` that is an instance of ``cls``."""
    found, stack = [], [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            found.append(node)
        stack.extend(node.children())
    return found


def topk_node(plan) -> TopK | None:
    nodes = plan_nodes(plan, TopK)
    return nodes[0] if nodes else None


def distinct_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform floats in [0, 1) that are pairwise distinct, so every
    ORDER BY on them is a total order and outputs digest stably."""
    return (rng.permutation(n) + rng.random(n)) / n


# -- topk_uniform_numeric ----------------------------------------------------

NUMERIC_SCHEMA = Schema([Column("K", ColumnType.FLOAT64),
                         Column("ID", ColumnType.INT64)])


def _numeric_make(rng, p, _spill_dir) -> Prepared:
    keys = distinct_uniform(rng, p["rows"])
    rows = list(zip(keys.tolist(), range(p["rows"])))
    db = Database(memory_rows=p["memory_rows"])
    db.register_table("T", NUMERIC_SCHEMA, rows)
    return Prepared(db, f"SELECT * FROM T ORDER BY K LIMIT {p['k']}",
                    {"T": (NUMERIC_SCHEMA, rows)}, p)


def _numeric_oracle(prep: Prepared) -> list[tuple]:
    # Keys are distinct and lead the tuple, so tuple order is K order.
    return heapq.nsmallest(prep.params["k"], prep.tables["T"][1])


# -- topk_composite_merge ----------------------------------------------------

COMPOSITE_SCHEMA = Schema([Column("A", ColumnType.INT64),
                           Column("B", ColumnType.STRING),
                           Column("C", ColumnType.FLOAT64)])
NAMES = tuple(f"customer-{i:02d}" for i in range(64))


def _composite_make(rng, p, _spill_dir) -> Prepared:
    n = p["rows"]
    a = rng.integers(0, 8, size=n).tolist()
    b = [NAMES[i] for i in rng.integers(0, len(NAMES), size=n).tolist()]
    c = distinct_uniform(rng, n).tolist()
    rows = list(zip(a, b, c))
    db = Database(memory_rows=p["memory_rows"])
    db.register_table("C3", COMPOSITE_SCHEMA, rows)
    sql = f"SELECT * FROM C3 ORDER BY B DESC, A, C DESC LIMIT {p['k']}"
    return Prepared(db, sql, {"C3": (COMPOSITE_SCHEMA, rows)}, p)


def _composite_oracle(prep: Prepared) -> list[tuple]:
    # Stable sorts from the least significant ORDER BY column up.
    rows = sorted(prep.tables["C3"][1], key=lambda r: r[2], reverse=True)
    rows.sort(key=lambda r: r[0])
    rows.sort(key=lambda r: r[1], reverse=True)
    return rows[:prep.params["k"]]


# -- topk_wide_desc_disk -----------------------------------------------------

def _disk_make(rng, p, spill_dir) -> Prepared:
    n = p["rows"]
    payload_seed = int(rng.integers(0, 2**31))
    rows = list(generate_lineitem(n, key_values=iter(range(n, 0, -1)),
                                  seed=payload_seed))
    db = Database(memory_rows=p["memory_rows"])
    db.planner.spill_manager_factory = lambda: SpillManager(
        backend=DiskSpillBackend(
            directory=spill_dir,
            codec=TypedPageCodec(LINEITEM_SCHEMA, zone_maps=True,
                                 null_key_prefix=b"\x01")))
    db.register_table("LINEITEM", LINEITEM_SCHEMA, rows)
    sql = ("SELECT * FROM LINEITEM ORDER BY L_ORDERKEY, L_LINENUMBER "
           f"LIMIT {p['k']}")
    return Prepared(db, sql, {"LINEITEM": (LINEITEM_SCHEMA, rows)}, p)


def _disk_oracle(prep: Prepared) -> list[tuple]:
    rows = sorted(prep.tables["LINEITEM"][1], key=lambda r: (r[0], r[3]))
    return rows[:prep.params["k"]]


def _disk_engaged(result: QueryResult, _prep: Prepared) -> bool:
    node = topk_node(result.plan)
    if node is None:
        return False
    io = node.stats.io
    return io.bytes_encoded > 0 and io.rows_spilled >= node.stats.rows_consumed


# -- join_topk_skewed --------------------------------------------------------

FACT_SCHEMA = Schema([Column("ID", ColumnType.INT64),
                      Column("FK", ColumnType.INT64),
                      Column("SV", ColumnType.FLOAT64)])
DIM_SCHEMA = Schema([Column("DK", ColumnType.INT64),
                     Column("DV", ColumnType.INT64)])


def _join_make(rng, p, _spill_dir) -> Prepared:
    n, dims = p["rows"], p["dims"]
    fk = rng.integers(0, dims, size=n).tolist()
    sv = rng.lognormal(mean=0.0, sigma=2.0, size=n).tolist()
    fact = list(zip(range(n), fk, sv))
    dim = [(j, j * 10) for j in range(dims)]
    db = Database(memory_rows=p["memory_rows"])
    db.register_table("FACT", FACT_SCHEMA, fact)
    db.register_table("DIM", DIM_SCHEMA, dim)
    sql = ("SELECT * FROM FACT JOIN DIM ON FACT.FK = DIM.DK "
           f"ORDER BY SV, ID LIMIT {p['k']}")
    return Prepared(db, sql, {"FACT": (FACT_SCHEMA, fact),
                              "DIM": (DIM_SCHEMA, dim)}, p)


def _join_oracle(prep: Prepared) -> list[tuple]:
    dim = {row[0]: row for row in prep.tables["DIM"][1]}
    joined = [row + dim[row[1]] for row in prep.tables["FACT"][1]
              if row[1] in dim]
    joined.sort(key=lambda r: (r[2], r[0]))
    return joined[:prep.params["k"]]


def _join_engaged(result: QueryResult, prep: Prepared) -> bool:
    joins = plan_nodes(result.plan, (HashJoin, SortMergeJoin))
    return bool(joins) and joins[0].rows_probe == prep.params["rows"]


# -- groupby_zipf ------------------------------------------------------------

GROUP_SCHEMA = Schema([Column("GK", ColumnType.INT64),
                       Column("IV", ColumnType.INT64)])


def _group_make(rng, p, _spill_dir) -> Prepared:
    n = p["rows"]
    gk = (rng.zipf(1.5, size=n) % p["groups_mod"]).tolist()
    iv = rng.integers(0, 1000, size=n).tolist()
    rows = list(zip(gk, iv))
    db = Database(memory_rows=p["memory_rows"])
    db.register_table("G", GROUP_SCHEMA, rows)
    sql = ("SELECT GK, COUNT(*), SUM(IV), MIN(IV), MAX(IV), AVG(IV) "
           "FROM G GROUP BY GK")
    return Prepared(db, sql, {"G": (GROUP_SCHEMA, rows)}, p)


def _group_oracle(prep: Prepared) -> list[tuple]:
    groups: dict[int, list[int]] = {}
    for key, value in prep.tables["G"][1]:
        acc = groups.get(key)
        if acc is None:
            groups[key] = [1, value, value, value]
        else:
            acc[0] += 1
            acc[1] += value
            acc[2] = min(acc[2], value)
            acc[3] = max(acc[3], value)
    return [(key, count, total, low, high, total / count)
            for key, (count, total, low, high) in sorted(groups.items())]


def _group_engaged(result: QueryResult, _prep: Prepared) -> bool:
    aggregates = plan_nodes(result.plan, GroupedAggregate)
    return (bool(aggregates)
            and aggregates[0].groups_collapsed_rungen > 0
            and aggregates[0].stats.io.rows_spilled > 0)


def _spec(schema: Schema, *columns: tuple[str, bool]) -> SortSpec:
    return SortSpec(schema, [SortColumn(name, ascending=asc)
                             for name, asc in columns])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="topk_uniform_numeric",
        why="The most common top-k shape: one numeric key, lowered to "
            "VectorizedTopK; scan, batching and the eager filter do the "
            "work.",
        # k : memory : rows = 7M : 30M : 2B scaled (the paper's ratio).
        sizes={"full": {"rows": 1_000_000, "k": 15_000,
                        "memory_rows": 3_500},
               "smoke": {"rows": 20_000, "k": 300, "memory_rows": 70}},
        make=_numeric_make,
        oracle=_numeric_oracle,
        key_rows=lambda prep: (_spec(NUMERIC_SCHEMA, ("K", True)),
                               prep.tables["T"][1]),
        engaged=lambda result, _prep: isinstance(topk_node(result.plan),
                                                 VectorizedTopK),
        calibration=("pipeline", "bytes", "numpy"),
    ),
    Workload(
        name="topk_composite_merge",
        why="Composite string-led key: key encoding, run generation and "
            "the OVC loser-tree merge do the work; spills stay in memory.",
        sizes={"full": {"rows": 150_000, "k": 37_500, "memory_rows": 6_000},
               "smoke": {"rows": 6_000, "k": 1_500, "memory_rows": 240}},
        make=_composite_make,
        oracle=_composite_oracle,
        key_rows=lambda prep: (
            _spec(COMPOSITE_SCHEMA, ("B", False), ("A", True), ("C", False)),
            prep.tables["C3"][1]),
        engaged=lambda result, _prep: result.stats.code_comparisons > 0,
        calibration=("pipeline",),
    ),
    Workload(
        name="topk_wide_desc_disk",
        why="Descending arrival defeats the eager filter, so every wide "
            "row goes through spill encode, disk write, decode and "
            "zone-map skipping.",
        sizes={"full": {"rows": 20_000, "k": 1_000, "memory_rows": 80},
               "smoke": {"rows": 5_000, "k": 250, "memory_rows": 20}},
        make=_disk_make,
        oracle=_disk_oracle,
        key_rows=lambda prep: (
            _spec(LINEITEM_SCHEMA, ("L_ORDERKEY", True),
                  ("L_LINENUMBER", True)),
            prep.tables["LINEITEM"][1]),
        engaged=_disk_engaged,
        calibration=("tuples", "numpy", "chase"),
    ),
    Workload(
        name="join_topk_skewed",
        why="The only join: output fits in memory, and the planner "
            "underestimates join rows, so it picks hash join with "
            "pushdown off.",
        sizes={"full": {"rows": 300_000, "dims": 1_000, "k": 1_000,
                        "memory_rows": 10_000},
               "smoke": {"rows": 6_000, "dims": 20, "k": 20,
                         "memory_rows": 200}},
        make=_join_make,
        oracle=_join_oracle,
        key_rows=lambda prep: (
            _spec(FACT_SCHEMA, ("SV", True), ("ID", True)),
            prep.tables["FACT"][1]),
        engaged=_join_engaged,
        calibration=("pipeline",),
    ),
    Workload(
        name="groupby_zipf",
        why="GROUP BY with more groups than memory: fused aggregation "
            "writes partial-aggregate runs and merge_aggregated combines "
            "them.",
        sizes={"full": {"rows": 300_000, "groups_mod": 15_000,
                        "memory_rows": 2_000},
               "smoke": {"rows": 6_000, "groups_mod": 300,
                         "memory_rows": 40}},
        make=_group_make,
        oracle=_group_oracle,
        key_rows=lambda prep: (_spec(GROUP_SCHEMA, ("GK", True)),
                               prep.tables["G"][1]),
        engaged=_group_engaged,
        calibration=("pipeline",),
    ),
)}


def digest_rows(rows: list[tuple]) -> str:
    """Order-sensitive digest of a query output (``repr`` round-trips
    floats exactly)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def plan_label(plan) -> str:
    """The planner's choices in ``plan``, outermost first: e.g.
    ``vectorized``, ``batch/ovc``, ``batch/tuple + hash pushdown=off``."""
    parts: list[str] = []
    stack = [plan]
    while stack:
        node = stack.pop(0)
        decision: Any = node.__dict__.get("decision")
        if decision is not None and hasattr(decision.chosen, "method"):
            parts.append(f"{decision.chosen.method} pushdown="
                         f"{'on' if decision.chosen.pushdown else 'off'}")
        elif decision is not None:
            parts.append(decision.chosen.label())
        elif isinstance(node, GroupedAggregate):
            fusion = node.fusion if node.memory_rows is not None else "hash"
            parts.append(f"aggregate/{fusion}")
        stack.extend(node.children())
    return " + ".join(parts) or "-"
