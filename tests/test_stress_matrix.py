"""Configuration-matrix stress tests.

One end-to-end correctness sweep across the whole configuration space:
run generation x histogram sizing x fan-in x consolidation x offset x
distribution.  Catches interactions no single-feature test exercises.
"""

import itertools
import random

import pytest

from repro.core.policies import policy_for_bucket_count
from repro.core.topk import HistogramTopK
from repro.datagen.distributions import (
    ASCENDING,
    DESCENDING,
    LOGNORMAL,
    UNIFORM,
    fal,
)

KEY = lambda row: row[0]  # noqa: E731

RUN_GENERATION = ("replacement_selection", "quicksort")
BUCKETS = (0, 1, 9, 50)
FAN_IN = (None, 3)
CAPACITY = (None, 6)

MATRIX = list(itertools.product(RUN_GENERATION, BUCKETS, FAN_IN, CAPACITY))


@pytest.fixture(scope="module")
def dataset():
    rng = random.Random(99)
    return [(rng.random(),) for _ in range(6_000)]


@pytest.mark.parametrize(
    "run_generation,buckets,fan_in,capacity", MATRIX,
    ids=[f"{g}-b{b}-f{f}-c{c}" for g, b, f, c in MATRIX])
def test_configuration_matrix(dataset, run_generation, buckets, fan_in,
                              capacity):
    operator = HistogramTopK(
        KEY, 700, 150,
        run_generation=run_generation,
        sizing_policy=policy_for_bucket_count(buckets, capped=False),
        fan_in=fan_in,
        histogram_bucket_capacity=capacity,
    )
    assert list(operator.execute(iter(dataset))) == sorted(dataset)[:700]


@pytest.mark.parametrize("distribution",
                         [UNIFORM, LOGNORMAL, fal(0.5), fal(1.5),
                          ASCENDING, DESCENDING],
                         ids=lambda d: d.label)
@pytest.mark.parametrize("offset", [0, 37, 500])
def test_distribution_offset_matrix(distribution, offset):
    keys = distribution.sample(8_000, seed=5)
    rows = [(float(key),) for key in keys]
    operator = HistogramTopK(KEY, 400, 120, offset=offset)
    expected = sorted(rows)[offset:offset + 400]
    assert list(operator.execute(iter(rows))) == expected


# -- join + grouped plan-shape matrix ------------------------------------

JOIN_PLANS = list(itertools.product(
    ("inner", "left"),          # join type
    ("auto", "hash", "merge"),  # physical join
    (None, True, False),        # pushdown pin
    (150, 100_000),             # memory budget (spilling / in-memory)
))


@pytest.fixture(scope="module")
def join_dataset():
    from repro.rows.schema import Column, ColumnType, Schema

    rng = random.Random(17)
    left_schema = Schema([Column("LID", ColumnType.INT64),
                          Column("JK", ColumnType.INT64, nullable=True),
                          Column("LV", ColumnType.INT64)])
    right_schema = Schema([Column("RID", ColumnType.INT64),
                           Column("RK", ColumnType.INT64, nullable=True),
                           Column("RV", ColumnType.INT64)])
    left = [(i, rng.choice([None] + list(range(12))), rng.randrange(1_000))
            for i in range(5_000)]
    right = [(j, rng.choice([None] + list(range(12))), rng.randrange(10))
             for j in range(60)]
    return left_schema, right_schema, left, right


def _join_oracle(left, right, join_type):
    out = []
    for lrow in left:
        matches = ([r for r in right
                    if r[1] is not None and r[1] == lrow[1]]
                   if lrow[1] is not None else [])
        if matches:
            out.extend(lrow + r for r in matches)
        elif join_type == "left":
            out.append(lrow + (None, None, None))
    return out


@pytest.mark.parametrize(
    "join_type,join_method,pushdown,memory", JOIN_PLANS,
    ids=[f"{t}-{m}-pd{p}-mem{mem}" for t, m, p, mem in JOIN_PLANS])
def test_join_plan_matrix(join_dataset, join_type, join_method,
                          pushdown, memory):
    from repro.engine.session import Database

    left_schema, right_schema, left, right = join_dataset
    db = Database(memory_rows=memory, join_method=join_method,
                  pushdown=pushdown)
    db.register_table("L", left_schema, left, row_count=len(left))
    db.register_table("R", right_schema, right, row_count=len(right))
    op = "LEFT JOIN" if join_type == "left" else "JOIN"
    result = db.sql(f"SELECT * FROM L {op} R ON L.JK = R.RK "
                    "ORDER BY LV, LID, RID LIMIT 300")
    oracle = sorted(_join_oracle(left, right, join_type),
                    key=lambda r: (r[2], r[0], (r[3] is None, r[3] or 0)))
    assert result.rows == oracle[:300]


GROUPED_PLANS = list(itertools.product(
    ("tuple", "ovc", "auto"),   # key substrate; "auto" = the SQL plan
    (3, 40),                    # k per group
    (100, 100_000),             # memory budget
))


@pytest.mark.parametrize(
    "encoding,k,memory", GROUPED_PLANS,
    ids=[f"{e}-k{k}-mem{m}" for e, k, m in GROUPED_PLANS])
def test_grouped_plan_matrix(join_dataset, encoding, k, memory):
    """The planner's grouped top-k (binary composite keys) and the
    operator on either key substrate all match the oracle."""
    from repro.engine.session import Database
    from repro.extensions.grouped import GroupedTopK
    from repro.rows.sortspec import SortSpec
    from repro.sorting.keycodec import compile_keycodec

    left_schema, _right_schema, left, _right = join_dataset
    if encoding == "auto":
        db = Database(memory_rows=memory)
        db.register_table("L", left_schema, left, row_count=len(left))
        rows = db.sql("SELECT * FROM L ORDER BY LV, LID "
                      f"LIMIT {k} PER JK").rows
    else:
        spec = SortSpec(left_schema, ["LV", "LID"])
        encoders = {}
        if encoding == "ovc":
            encoders = dict(
                group_encoder=compile_keycodec(
                    SortSpec(left_schema, ["JK"])).encode,
                value_encoder=compile_keycodec(spec).encode)
        operator = GroupedTopK(lambda row: row[1], spec.key, k, memory,
                               **encoders)
        rows = [row for _group, row in operator.execute(iter(left))]
    by_group = {}
    for row in left:
        by_group.setdefault(row[1], []).append(row)
    expected = []
    for group in sorted(by_group,
                        key=lambda g: (g is None, g if g is not None else 0)):
        expected.extend(
            sorted(by_group[group], key=lambda r: (r[2], r[0]))[:k])
    assert rows == expected
