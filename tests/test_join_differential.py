"""Differential oracle suite for rank-aware joins (ISSUE 8).

A brute-force in-memory reference — nested-loop join in input order,
NULL-rejecting WHERE applied post-join, stable sort by the query's
:class:`~repro.rows.sortspec.SortSpec` key, slice — is checked
byte-identical against the engine over every axis the join planner can
vary:

* join type (INNER / LEFT) and physical method (hash / sort-merge),
* grouped (``LIMIT k PER g``) vs. ungrouped top-k,
* cutoff pushdown pinned on / off / costed,
* row / batch / vectorized physical top-k paths,
* in-memory vs. spilling regimes (tiny ``memory_rows`` budgets),

with duplicate join keys, empty sides, and NULL join/group keys arising
by construction from the strategies in :mod:`tests.test_strategies`.

The semantics the reference encodes (and therefore pins):

* NULL join keys never match — not even NULL = NULL (both joins drop
  NULL-keyed build rows and NULL-keyed probe rows match nothing).
* A LEFT join emits unmatched left rows padded with NULLs; WHERE
  predicates naming right-side columns evaluate *after* the join under
  three-valued logic, so padding rows are rejected (NULL compares to
  nothing).
* Grouped top-k over a join emits groups in group-value order with the
  NULL group last, rows within each group in sort-key order, at most
  ``k`` per group.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.session import Database
from repro.engine.operators import VectorizedTopK
from repro.rows.sortspec import SortColumn, SortSpec
from tests.test_strategies import (
    JOIN_OUT_SCHEMA,
    LEFT_SCHEMA,
    RIGHT_SCHEMA,
    joined_tables,
    left_rows,
    unique_key_tables,
)

# Column indexes in the join-output row layout
# (LID, JK, LV, RID, RK, RV) — see tests.test_strategies.
JK, LV = 1, 2
RID, RK = 3, 4


# -- the brute-force reference -------------------------------------------


def nested_loop_join(left, right, join_type):
    """All join-output rows, in left-input x right-input order."""
    out = []
    pad = (None,) * len(RIGHT_SCHEMA.columns)
    for lrow in left:
        key = lrow[JK]
        matches = ([rrow for rrow in right
                    if rrow[1] is not None and rrow[1] == key]
                   if key is not None else [])
        if matches:
            out.extend(lrow + rrow for rrow in matches)
        elif join_type == "left":
            out.append(lrow + pad)
    return out


def apply_where(rows, predicates):
    """Post-join WHERE under three-valued logic (NULL -> rejected)."""

    def keep(row):
        for index, op, value in predicates:
            field = row[index]
            if field is None:
                return False
            if op == ">=" and not field >= value:
                return False
            if op == "<" and not field < value:
                return False
        return True

    return [row for row in rows if keep(row)]


def output_spec(order_columns):
    return SortSpec(JOIN_OUT_SCHEMA,
                    [SortColumn(name, ascending=asc)
                     for name, asc in order_columns])


def reference_topk(joined, order_columns, k):
    spec = output_spec(order_columns)
    return sorted(joined, key=spec.key)[:k]


def reference_grouped(joined, order_columns, group_index, k):
    """Groups in value order (NULL group last), sorted rows, k each."""
    spec = output_spec(order_columns)
    groups: dict = {}
    for row in joined:
        groups.setdefault(row[group_index], []).append(row)
    ordered = sorted(groups,
                     key=lambda g: (g is None, g if g is not None else 0))
    out = []
    for group in ordered:
        out.extend(sorted(groups[group], key=spec.key)[:k])
    return out


def make_db(left, right, **kwargs):
    db = Database(**kwargs)
    db.register_table("L", LEFT_SCHEMA, left, row_count=len(left))
    db.register_table("R", RIGHT_SCHEMA, right, row_count=len(right))
    return db


# -- differential legs ----------------------------------------------------


@given(tables=joined_tables(),
       k=st.integers(1, 30),
       memory=st.sampled_from([4, 32, 100_000]),
       join_method=st.sampled_from(["auto", "hash", "merge"]),
       pushdown=st.sampled_from([None, True, False]),
       path=st.sampled_from([None, "batch"]))
@settings(max_examples=60, deadline=None)
def test_inner_join_topk_differential(tables, k, memory, join_method,
                                      pushdown, path):
    """Inner top-k over a join: every physical combination, one answer."""
    left, right = tables
    joined = nested_loop_join(left, right, "inner")
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    db = make_db(left, right, memory_rows=memory,
                 join_method=join_method, pushdown=pushdown,
                 force_path=path)
    result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                    f"ORDER BY LV, LID, RID LIMIT {k}")
    assert result.rows == oracle


@given(tables=joined_tables(),
       k=st.integers(1, 30),
       memory=st.sampled_from([4, 100_000]),
       join_method=st.sampled_from(["hash", "merge"]),
       where_left=st.one_of(st.none(), st.integers(0, 45)),
       where_right=st.one_of(st.none(), st.integers(0, 10)))
@settings(max_examples=50, deadline=None)
def test_left_join_differential(tables, k, memory, join_method,
                                where_left, where_right):
    """LEFT join with NULL padding, left-pushed and residual WHERE."""
    left, right = tables
    joined = nested_loop_join(left, right, "left")
    predicates = []
    clauses = []
    if where_left is not None:
        predicates.append((LV, ">=", where_left))
        clauses.append(f"LV >= {where_left}")
    if where_right is not None:
        # Right-side predicate: must stay post-join (rejects padding).
        predicates.append((RID, "<", where_right))
        clauses.append(f"RID < {where_right}")
    joined = apply_where(joined, predicates)
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    db = make_db(left, right, memory_rows=memory,
                 join_method=join_method)
    result = db.sql(f"SELECT * FROM L LEFT JOIN R ON L.JK = R.RK{where} "
                    f"ORDER BY LV, LID, RID LIMIT {k}")
    assert result.rows == oracle


@given(tables=joined_tables(),
       k=st.integers(1, 25),
       memory=st.sampled_from([4, 24, 100_000]),
       join_method=st.sampled_from(["auto", "hash", "merge"]))
@settings(max_examples=50, deadline=None)
def test_pushdown_is_semantically_invisible(tables, k, memory,
                                            join_method):
    """The safety property: pushdown on is byte-identical to pushdown
    off, and never spills *more* (it can only drop sort-side input)."""
    left, right = tables
    # RID completes the total order: without it a left row with several
    # matches has tied (LV, LID) outputs, and the external sort is not
    # stable across spills, so the nested-loop reference could disagree.
    sql = ("SELECT * FROM L JOIN R ON L.JK = R.RK "
           f"ORDER BY LV, LID, RID LIMIT {k}")

    def run(pushdown):
        db = make_db(left, right, memory_rows=memory,
                     join_method=join_method, pushdown=pushdown)
        return db.sql(sql)

    off = run(False)
    on = run(True)
    assert on.rows == off.rows
    assert on.stats.io.rows_spilled <= off.stats.io.rows_spilled
    # The reference agrees with both.
    joined = nested_loop_join(left, right, "inner")
    assert off.rows == reference_topk(
        joined, [("LV", True), ("LID", True), ("RID", True)], k)


@given(tables=joined_tables(),
       k=st.integers(1, 8),
       memory=st.sampled_from([4, 100_000]),
       join_type=st.sampled_from(["inner", "left"]),
       descending=st.booleans())
@settings(max_examples=50, deadline=None)
def test_grouped_topk_over_join_differential(tables, k, memory,
                                             join_type, descending):
    """``LIMIT k PER JK`` over a join, including the NULL group."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    order_columns = [("LV", not descending), ("LID", True), ("RID", True)]
    oracle = reference_grouped(joined, order_columns, JK, k)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    order = "LV DESC" if descending else "LV"
    db = make_db(left, right, memory_rows=memory)
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK "
                    f"ORDER BY {order}, LID, RID LIMIT {k} PER JK")
    assert result.rows == oracle


@given(tables=unique_key_tables(),
       k=st.integers(1, 40),
       memory=st.sampled_from([8, 100_000]),
       pushdown=st.sampled_from([None, True, False]))
@settings(max_examples=40, deadline=None)
def test_vectorized_path_over_join_differential(tables, k, memory,
                                                pushdown):
    """Single numeric ORDER BY column: the vectorized top-k lowering
    over a join agrees with the reference (unique keys by construction,
    so the total order needs no tiebreak)."""
    left, right = tables
    joined = nested_loop_join(left, right, "inner")
    oracle = reference_topk(joined, [("LV", True)], k)
    db = make_db(left, right, memory_rows=memory,
                 force_path="vectorized", pushdown=pushdown)
    result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                    f"ORDER BY LV LIMIT {k}")
    assert result.rows == oracle

    def has_vectorized(node):
        return isinstance(node, VectorizedTopK) or any(
            has_vectorized(child) for child in node.children())

    assert has_vectorized(result.plan)


@given(tables=joined_tables(),
       join_method=st.sampled_from(["hash", "merge"]),
       join_type=st.sampled_from(["inner", "left"]))
@settings(max_examples=40, deadline=None)
def test_join_without_order_by_is_the_same_multiset(tables, join_method,
                                                    join_type):
    """No ORDER BY: both physical joins emit the reference *multiset*;
    the hash join additionally preserves probe (left-input) order."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    db = make_db(left, right, join_method=join_method)
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK")
    if join_method == "hash":
        assert result.rows == joined
    else:
        key = output_spec([("LID", True), ("RID", True)]).key
        assert sorted(result.rows, key=key) == sorted(joined, key=key)


# -- streaming merge + fused aggregation legs (ISSUE 10) ------------------


@given(tables=joined_tables(),
       k=st.integers(1, 25),
       memory=st.sampled_from([4, 24]),
       join_type=st.sampled_from(["inner", "left"]))
@settings(max_examples=50, deadline=None)
def test_streaming_merge_pushdown_differential(tables, k, memory,
                                               join_type):
    """The streaming merge join under spill-forcing memory budgets:
    pushdown on and off are both byte-identical to the nested-loop
    oracle, and on never spills more (the run-generation publisher can
    only remove sort-side input)."""
    left, right = tables
    joined = nested_loop_join(left, right, join_type)
    oracle = reference_topk(joined, [("LV", True), ("LID", True),
                                     ("RID", True)], k)
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    sql = (f"SELECT * FROM L {op} R ON L.JK = R.RK "
           f"ORDER BY LV, LID, RID LIMIT {k}")

    def run(pushdown):
        db = make_db(left, right, memory_rows=memory,
                     join_method="merge", pushdown=pushdown)
        return db.sql(sql)

    off = run(False)
    on = run(True)
    assert off.rows == oracle
    assert on.rows == oracle
    assert on.stats.io.rows_spilled <= off.stats.io.rows_spilled


def reference_aggregate(rows):
    """GROUP BY JK with every aggregate, groups in value order (NULL
    last), AVG as one exact-int division — the engine's pinned
    arithmetic."""
    groups: dict = {}
    for _lid, jk, lv in rows:
        groups.setdefault(jk, []).append(lv)
    ordered = sorted(groups,
                     key=lambda g: (g is None, g if g is not None else 0))
    out = []
    for group in ordered:
        values = groups[group]
        total = sum(values)
        out.append((group, len(values), total, min(values), max(values),
                    total / len(values)))
    return out


AGGREGATE_SQL = ("SELECT JK, COUNT(*), SUM(LV), MIN(LV), MAX(LV), "
                 "AVG(LV) FROM L GROUP BY JK")


@given(rows=left_rows(max_size=120),
       memory=st.sampled_from([2, 8, 100_000]))
@settings(max_examples=50, deadline=None)
def test_fused_aggregation_differential(rows, memory):
    """Run-generation-fused GROUP BY vs the post-sort pass vs the
    legacy in-memory hash: identical outputs (AVG bit-identical by
    exact-int accumulation), and fusion never spills more than the
    post-sort pass — partial aggregates are at most one row per
    (group, run), raw rows are one per input row."""
    oracle = reference_aggregate(rows)
    results = {}
    for fusion in ("rungen", "postsort", "hash"):
        db = make_db(rows, [], memory_rows=memory,
                     aggregate_fusion=fusion)
        results[fusion] = db.sql(AGGREGATE_SQL)
    for fusion, result in results.items():
        assert result.rows == oracle, fusion
    assert (results["rungen"].stats.io.rows_spilled
            <= results["postsort"].stats.io.rows_spilled)


# -- deterministic edge legs ---------------------------------------------


class TestEdges:
    def test_both_sides_empty(self):
        db = make_db([], [])
        assert db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []
        assert db.sql("SELECT * FROM L LEFT JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []

    def test_empty_right_left_join_pads_everything(self):
        left = [(0, 1, 10), (1, None, 5)]
        db = make_db(left, [])
        result = db.sql("SELECT * FROM L LEFT JOIN R ON L.JK = R.RK "
                        "ORDER BY LV LIMIT 5")
        assert result.rows == [(1, None, 5, None, None, None),
                               (0, 1, 10, None, None, None)]

    def test_null_keys_never_match_even_null_to_null(self):
        left = [(0, None, 1)]
        right = [(0, None, 7)]
        db = make_db(left, right)
        assert db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                      "ORDER BY LV LIMIT 5").rows == []

    def test_duplicate_keys_cross_product(self):
        left = [(0, 3, 1), (1, 3, 2)]
        right = [(0, 3, 7), (1, 3, 8)]
        for method in ("hash", "merge"):
            db = make_db(left, right, join_method=method)
            result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                            "ORDER BY LV, LID, RID LIMIT 10")
            assert result.rows == nested_loop_join(left, right, "inner")

    def test_pushdown_actually_drops_rows_at_scale(self):
        """At engine scale the pushed filter measurably prunes the
        sort-side input before the join (the tentpole's point)."""
        import random

        rng = random.Random(5)
        left = [(i, rng.randrange(20), rng.randrange(100_000))
                for i in range(60_000)]
        right = [(j, j, j) for j in range(20)]
        db = make_db(left, right, memory_rows=2_000, pushdown=True)
        result = db.sql("SELECT * FROM L JOIN R ON L.JK = R.RK "
                        "ORDER BY LV LIMIT 100", explain_analyze=True)
        joined = nested_loop_join(left, right, "inner")
        assert result.rows == reference_topk(joined, [("LV", True)], 100)
        rendered = result.explain_analyze()
        assert "pushdown_rows_dropped" in rendered
        filters = [node for node in result.analysis.nodes()
                   if "pushdown_rows_dropped" in node.details]
        assert filters, rendered
        assert filters[0].details["pushdown_rows_dropped"] > 0

    def test_merge_pushdown_prunes_sort_side_spill_at_scale(self):
        """The tentpole: with the run-generation publisher wired, the
        pushed filter halves (at least) the sort side's spill volume
        under the streaming merge join, byte-identically."""
        import random

        rng = random.Random(5)
        left = [(i, rng.randrange(20), rng.randrange(100_000))
                for i in range(30_000)]
        right = [(j, j, j) for j in range(20)]
        joined = nested_loop_join(left, right, "inner")
        oracle = reference_topk(joined, [("LV", True), ("LID", True)],
                                100)
        sql = ("SELECT * FROM L JOIN R ON L.JK = R.RK "
               "ORDER BY LV, LID LIMIT 100")

        def run(pushdown):
            db = make_db(left, right, memory_rows=1_000,
                         join_method="merge", pushdown=pushdown)
            return db.sql(sql, explain_analyze=True)

        off = run(False)
        on = run(True)
        assert off.rows == oracle
        assert on.rows == oracle
        assert on.stats.io.rows_spilled * 2 <= off.stats.io.rows_spilled
        rendered = on.explain_analyze()
        assert "join_sort_spilled" in rendered
        assert "pushdown_rungen_publications" in rendered
        assert "pushdown_dropped_est_vs_actual" in rendered

    def test_fused_aggregation_spills_strictly_less_at_scale(self):
        """Fusion's point: spilled partial aggregates (≤ one row per
        group per run) undercut the post-sort pass's raw-row spill,
        with identical output."""
        import random

        rng = random.Random(7)
        # More distinct groups than the memory budget, so both modes
        # must spill — fusion spills partials, post-sort raw rows.
        rows = [(i, rng.randrange(5_000), rng.randrange(1_000))
                for i in range(20_000)]

        def run(fusion):
            db = make_db(rows, [], memory_rows=500,
                         aggregate_fusion=fusion)
            return db.sql(AGGREGATE_SQL, explain_analyze=True)

        fused = run("rungen")
        postsort = run("postsort")
        assert fused.rows == postsort.rows == reference_aggregate(rows)
        assert fused.stats.io.rows_spilled > 0
        assert (fused.stats.io.rows_spilled
                < postsort.stats.io.rows_spilled)
        rendered = fused.explain_analyze()
        assert "groups_collapsed_rungen" in rendered

    @pytest.mark.slow_join
    def test_disk_scale_differential(self):
        """A spilling-scale randomized leg kept out of the default run."""
        import random

        rng = random.Random(11)
        left = [(i, rng.choice([None] + list(range(50))),
                 rng.randrange(500)) for i in range(30_000)]
        right = [(j, rng.choice([None] + list(range(50))),
                  rng.randrange(10)) for j in range(200)]
        joined = nested_loop_join(left, right, "inner")
        oracle = reference_topk(
            joined, [("LV", True), ("LID", True), ("RID", True)], 500)
        for method in ("hash", "merge"):
            for pushdown in (False, True):
                db = make_db(left, right, memory_rows=300,
                             join_method=method, pushdown=pushdown)
                result = db.sql(
                    "SELECT * FROM L JOIN R ON L.JK = R.RK "
                    "ORDER BY LV, LID, RID LIMIT 500")
                assert result.rows == oracle
