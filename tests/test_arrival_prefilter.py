"""The arrival prefilter on the leading sort column.

A binary-key top-k whose leading ORDER BY column is a non-nullable
numeric one tests that column in numpy against the bound's leading value
before it encodes a row (``repro.core.cutoff.leading_column_prefilter``);
a non-nullable string one compares the native strings.  These tests hold
it to the oracle where the codec's order and numpy's disagree (NaN,
``-0.0``, infinities, heavy ties), hold the string form to a run with
the prefilter off (NUL and non-BMP strings, ties at the bound, seeds cut
before their terminator), check that it engages in every regime and in
the pushed-down join filter, and cover sort keys that float64 cannot
hold.
"""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np
import pytest

from repro.core.topk import HistogramTopK
from repro.engine.operators import CutoffPushdownFilter
from repro.engine.session import Database
from repro.errors import ReproError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.sorting.keycodec import compile_keycodec, leading_value_decoder

SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0)
TABLE = Schema([Column("V", ColumnType.FLOAT64),
                Column("ID", ColumnType.INT64),
                Column("FK", ColumnType.INT64)])
DIM = Schema([Column("DK", ColumnType.INT64), Column("DV", ColumnType.INT64)])


def _nodes(plan, cls) -> list:
    found, stack = [], [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            found.append(node)
        stack.extend(node.children())
    return found


def _special_rows(n: int = 6_000) -> list[tuple]:
    """``V`` is a NaN, an infinity or a zero of either sign on 5% of the
    rows and an integer from 0 to 50 elsewhere, so ties are heavy."""
    rng = np.random.default_rng(29)
    special = (rng.random(n) < 0.05).tolist()
    picks = rng.integers(0, len(SPECIALS), size=n).tolist()
    values = rng.integers(0, 51, size=n).astype(float).tolist()
    order = rng.permutation(n).tolist()
    return [(SPECIALS[pick] if is_special else value, ident, ident % 10)
            for is_special, pick, value, ident
            in zip(special, picks, values, order)]


def _spec(ascending: bool) -> SortSpec:
    return SortSpec(TABLE, [SortColumn("V", ascending=ascending),
                            SortColumn("ID")])


def _oracle(rows, spec, limit) -> list[tuple]:
    return sorted(rows, key=compile_keycodec(spec).encode)[:limit]


def _same(left: list[tuple], right: list[tuple]) -> bool:
    """Row equality that treats NaN as equal to NaN and keeps ``-0.0``
    apart from ``0.0``."""
    return [repr(row) for row in left] == [repr(row) for row in right]


@pytest.mark.parametrize("ascending", [True, False])
@pytest.mark.parametrize("ctype,values", [
    (ColumnType.INT64, [0, 1, -1, 2**63 - 1, -2**63, 2**53 + 1]),
    (ColumnType.FLOAT64, [0.0, 1.5, -1.5, 5e-324, -1e308, math.inf,
                          -math.inf, 2.0**53]),
    (ColumnType.DECIMAL, [1.25, -3.5, 0.0]),
])
def test_leading_prefix_decodes_to_the_encoded_value(ctype, values,
                                                     ascending):
    schema = Schema([Column("V", ctype), Column("ID", ColumnType.INT64)])
    spec = SortSpec(schema, [SortColumn("V", ascending=ascending), "ID"])
    encode = compile_keycodec(spec).encode
    decode = leading_value_decoder(spec)
    assert [decode(encode((value, 7))) for value in values] == values
    if ctype is not ColumnType.INT64:
        assert math.isnan(decode(encode((math.nan, 7))))
        assert math.copysign(1.0, decode(encode((-0.0, 7)))) == 1.0


# ``(ascending, limit, memory_rows)``: both regimes, then a NaN bound —
# NaN sorts after +inf ascending and first descending, so these limits
# put NaN-keyed rows at the heap top or in the cutoff.
SPECIAL_LEGS = [
    (True, 100, 300), (True, 1_200, 300),
    (False, 100, 300), (False, 1_200, 300),
    (True, 5_990, 8_000), (True, 5_990, 300), (False, 30, 300),
]


@pytest.mark.parametrize("run_generation",
                         ["quicksort", "replacement_selection"])
@pytest.mark.parametrize("ascending,limit,memory_rows", SPECIAL_LEGS)
def test_specials_and_ties_match_the_codec_oracle(ascending, limit,
                                                  memory_rows,
                                                  run_generation):
    rows = _special_rows()
    spec = _spec(ascending)
    operator = HistogramTopK(spec, limit, memory_rows,
                             run_generation=run_generation)
    assert operator.key_codec is not None
    assert _same(list(operator.execute(rows)), _oracle(rows, spec, limit))


@pytest.mark.parametrize("ascending,limit,memory_rows", SPECIAL_LEGS)
def test_specials_through_sql(ascending, limit, memory_rows):
    rows = _special_rows()
    db = Database(memory_rows=memory_rows)
    db.register_table("T", TABLE, rows)
    direction = "" if ascending else " DESC"
    result = db.sql(f"SELECT * FROM T ORDER BY V{direction}, ID "
                    f"LIMIT {limit}")
    assert _same(result.rows, _oracle(rows, _spec(ascending), limit))


@pytest.mark.parametrize("ascending,limit", [(True, 100), (True, 1_200),
                                             (False, 30), (False, 1_200)])
def test_specials_through_the_pushdown_filter(ascending, limit):
    rows = _special_rows()
    dim = [(j, 100 + j) for j in range(10)]
    db = Database(memory_rows=300)
    db.planner.pushdown = True
    db.register_table("T", TABLE, rows)
    db.register_table("D", DIM, dim)
    direction = "" if ascending else " DESC"
    result = db.sql(f"SELECT * FROM T JOIN D ON T.FK = D.DK "
                    f"ORDER BY V{direction}, ID LIMIT {limit}")
    expected = [row + dim[row[2]]
                for row in _oracle(rows, _spec(ascending), limit)]
    assert _same(result.rows, expected)
    (pushdown,) = _nodes(result.plan, CutoffPushdownFilter)
    assert pushdown.rows_dropped > 0


@pytest.mark.parametrize("run_generation",
                         ["quicksort", "replacement_selection"])
@pytest.mark.parametrize("ascending", [True, False])
def test_seed_shorter_than_the_leading_prefix(ascending, run_generation):
    """A hand-made seed of one byte bounds keys by their first byte only;
    the prefilter must not read it as a full 8-byte leading value."""
    schema = Schema([Column("V", ColumnType.INT64),
                     Column("ID", ColumnType.INT64)])
    spec = SortSpec(schema, [SortColumn("V", ascending=ascending), "ID"])
    rng = np.random.default_rng(37)
    rows = list(zip(rng.integers(-500, 500, size=5_000).tolist(),
                    range(5_000)))
    # Every key starts 0x7F or 0x80 (either direction), below this seed.
    operator = HistogramTopK(spec, 400, 100, cutoff_seed=b"\x81",
                             run_generation=run_generation)
    assert list(operator.execute(rows)) == _oracle(rows, spec, 400)


class _EncoderCalls:
    """Counts the rows the memoized codec of ``spec`` encodes, one at a
    time or in batches, while installed."""

    def __init__(self, spec: SortSpec, monkeypatch):
        codec = compile_keycodec(spec)
        encode, encode_batch = codec.encode, codec.encode_batch
        self.calls = 0

        def counting(row):
            self.calls += 1
            return encode(row)

        def counting_batch(rows):
            self.calls += len(rows)
            return encode_batch(rows)

        monkeypatch.setattr(codec, "encode", counting)
        monkeypatch.setattr(codec, "encode_batch", counting_batch)


def _random_rows(n: int = 100_000) -> list[tuple]:
    rng = np.random.default_rng(23)
    return list(zip(rng.random(n).tolist(), range(n),
                    rng.integers(0, 100, size=n).tolist()))


@pytest.mark.parametrize("k,memory_rows,run_generation", [
    (100, 1_000, "quicksort"),
    (400, 200, "quicksort"),
    (400, 200, "replacement_selection"),
])
def test_prefilter_spares_most_arrivals_the_encoder(
        k, memory_rows, run_generation, monkeypatch):
    rows = _random_rows()
    spec = _spec(True)
    encoder = _EncoderCalls(spec, monkeypatch)
    operator = HistogramTopK(spec, k, memory_rows,
                             run_generation=run_generation)
    assert list(operator.execute(rows)) == sorted(rows)[:k]
    assert operator.stats.rows_eliminated_on_arrival > 0.9 * len(rows)
    assert encoder.calls < 0.1 * len(rows)


def test_pushdown_filter_spares_most_arrivals_the_encoder(monkeypatch):
    rows = _random_rows()
    dim = [(j, 100 + j) for j in range(100)]
    db = Database(memory_rows=1_000)
    db.planner.pushdown = True
    db.register_table("T", TABLE, rows)
    db.register_table("D", DIM, dim)
    # The filter encodes with the codec of the scan side's spec, which
    # the planner compiles (memoized) from these same columns.
    encoder = _EncoderCalls(_spec(True), monkeypatch)
    result = db.sql("SELECT * FROM T JOIN D ON T.FK = D.DK "
                    "ORDER BY V, ID LIMIT 100")
    assert result.rows == [row + dim[row[2]] for row in sorted(rows)[:100]]
    (pushdown,) = _nodes(result.plan, CutoffPushdownFilter)
    assert pushdown.rows_dropped > 0.9 * pushdown.rows_in
    assert encoder.calls < 0.1 * pushdown.rows_in


# -- string-led ORDER BY --------------------------------------------------

NAMES = ("", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "ab", "müller",
         "\U0001f600", "\U0010ffff")
STRINGS = Schema([Column("S", ColumnType.STRING),
                  Column("ID", ColumnType.INT64),
                  Column("FK", ColumnType.INT64)])


def _string_rows(n: int = 6_000) -> list[tuple]:
    """Ten names, NUL-bearing and non-BMP ones among them, about 600 rows
    each, so every bound ties with hundreds of rows."""
    rng = np.random.default_rng(41)
    picks = rng.integers(0, len(NAMES), size=n).tolist()
    order = rng.permutation(n).tolist()
    return [(NAMES[pick], ident, ident % 10)
            for pick, ident in zip(picks, order)]


def _string_spec(ascending: bool) -> SortSpec:
    return SortSpec(STRINGS, [SortColumn("S", ascending=ascending),
                              SortColumn("ID")])


@pytest.mark.parametrize("ascending", [True, False])
def test_leading_string_decodes_to_the_encoded_value(ascending):
    spec = _string_spec(ascending)
    encode = compile_keycodec(spec).encode
    decode = leading_value_decoder(spec)
    for name in NAMES + ("\ud800", "z" * 300):
        key = encode((name, 7, 0))
        assert decode(key) == name
        # Cut anywhere before the end of its terminator, the string part
        # does not decode.
        string_bytes = len(key) - 8
        for cut in range(string_bytes):
            assert decode(key[:cut]) is None
    flip = (lambda data: data) if ascending else (
        lambda data: bytes(255 - byte for byte in data))
    assert decode(flip(b"a\x00\x01b\x00\x00")) is None  # no such escape
    assert decode(flip(b"\xff\x00\x00")) is None  # not UTF-8


def _prefilter_drops(operator: HistogramTopK) -> list[int]:
    """Install a counter of the rows ``operator``'s prefilter drops."""
    keep, dropped = operator._prefilter, [0]

    def counting(*args):
        flags = keep(*args)
        if flags is not None:
            dropped[0] += flags.count(False)
        return flags

    operator._prefilter = counting
    return dropped


def _all_counters(operator: HistogramTopK) -> tuple:
    stats = dataclasses.asdict(operator.stats)
    io = {name: value for name, value in stats.pop("io").items()
          if not name.endswith("seconds")}
    return (stats, io, dataclasses.asdict(operator.cutoff_filter.stats),
            operator.cutoff_trace)


def _with_and_without_prefilter(spec, rows, limit, memory_rows, **options):
    """``(output, counters)`` with the prefilter on, the same with it
    off, and the rows the prefilter dropped."""
    runs = []
    for prefilter in (True, False):
        operator = HistogramTopK(spec, limit, memory_rows, trace_cutoff=True,
                                 **options)
        assert operator._prefilter is not None
        if prefilter:
            dropped = _prefilter_drops(operator)
        else:
            operator._prefilter = None
        runs.append((list(operator.execute(rows)), _all_counters(operator)))
    return runs[0], runs[1], dropped[0]


# ``(ascending, limit, memory_rows)``: the priority-queue regime, then the
# external one; every bound ties with hundreds of rows.
STRING_LEGS = [(True, 100, 300), (False, 100, 300), (True, 1_200, 300),
               (False, 1_200, 300), (True, 2_500, 300)]


@pytest.mark.parametrize("run_generation",
                         ["quicksort", "replacement_selection"])
@pytest.mark.parametrize("ascending,limit,memory_rows", STRING_LEGS)
def test_string_prefilter_changes_no_row_and_no_counter(
        ascending, limit, memory_rows, run_generation):
    rows = _string_rows()
    spec = _string_spec(ascending)
    with_prefilter, without, dropped = _with_and_without_prefilter(
        spec, rows, limit, memory_rows, run_generation=run_generation)
    assert with_prefilter == without
    assert with_prefilter[0] == _oracle(rows, spec, limit)
    assert dropped > 0


def _cut_seed(spec: SortSpec) -> bytes:
    """The key of the name sorting last, cut one byte before the end of
    its terminator: it eliminates that name's rows until the filter's
    own cutoff passes it."""
    encode = compile_keycodec(spec).encode
    key = max(encode((name, 0, 0)) for name in NAMES)
    return key[:len(key) - 9]


@pytest.mark.parametrize("run_generation",
                         ["quicksort", "replacement_selection"])
@pytest.mark.parametrize("ascending", [True, False])
def test_string_seed_cut_before_its_terminator(ascending, run_generation):
    """The prefilter cannot read a seed whose string has no terminator; it
    waits for the filter's own cutoff and still changes nothing."""
    rows = _string_rows()
    spec = _string_spec(ascending)
    seed = _cut_seed(spec)
    assert leading_value_decoder(spec)(seed) is None
    with_prefilter, without, dropped = _with_and_without_prefilter(
        spec, rows, 1_200, 300, run_generation=run_generation,
        cutoff_seed=seed)
    assert with_prefilter == without
    assert with_prefilter[0] == _oracle(rows, spec, 1_200)
    assert without[1][2]["rows_eliminated_by_seed"] > 0
    assert dropped > 0


@pytest.mark.parametrize("ascending,limit", [(True, 100), (False, 100),
                                             (True, 1_200), (False, 1_200)])
def test_string_prefilter_in_the_pushdown_filter(ascending, limit,
                                                 monkeypatch):
    rows = _string_rows()
    dim = [(j, 100 + j) for j in range(10)]
    direction = "" if ascending else " DESC"
    sql = (f"SELECT * FROM S JOIN D ON S.FK = D.DK "
           f"ORDER BY S.S{direction}, S.ID LIMIT {limit}")
    runs = []
    for prefilter in (True, False):
        if not prefilter:
            # ``repro.core.topk`` the attribute is the function of that
            # name; the module is in the import system.
            for name in ("repro.core.topk", "repro.engine.planner"):
                monkeypatch.setattr(importlib.import_module(name),
                                    "leading_column_prefilter",
                                    lambda spec, binary: None)
        db = Database(memory_rows=300)
        db.planner.pushdown = True
        db.register_table("S", STRINGS, rows)
        db.register_table("D", DIM, dim)
        result = db.sql(sql)
        (pushdown,) = _nodes(result.plan, CutoffPushdownFilter)
        assert (pushdown.prefilter is not None) == prefilter
        runs.append((result.rows, pushdown.rows_in, pushdown.rows_dropped,
                     dataclasses.asdict(pushdown.stats),
                     dataclasses.asdict(result.stats)))
    assert runs[0] == runs[1]
    expected = [row + dim[row[2]]
                for row in _oracle(rows, _string_spec(ascending), limit)]
    assert runs[0][0] == expected
    assert runs[0][2] > 0


def test_string_prefilter_spares_most_arrivals_the_encoder(monkeypatch):
    rng = np.random.default_rng(43)
    names = [f"customer-{i:02d}" for i in range(64)]
    rows = [(names[pick], ident, 0) for ident, pick in
            enumerate(rng.integers(0, 64, size=100_000).tolist())]
    spec = _string_spec(True)
    expected = _oracle(rows, spec, 100)
    encoder = _EncoderCalls(spec, monkeypatch)
    operator = HistogramTopK(spec, 100, 1_000)
    assert list(operator.execute(rows)) == expected
    assert encoder.calls < 0.1 * len(rows)


# -- sort keys beyond float64 --------------------------------------------

HUGE = 2 ** 1_100
WIDE = Schema([Column("V", ColumnType.INT64), Column("ID", ColumnType.INT64)])


def _wide_rows() -> list[tuple]:
    rng = np.random.default_rng(31)
    rows = list(zip(rng.integers(0, 1_000, size=20_000).tolist(),
                    range(20_000)))
    rows[7_321] = (HUGE, 7_321)
    return rows


@pytest.mark.parametrize("limit", [5, 500])
@pytest.mark.parametrize("order_by", ["V", "V, ID", "V DESC", "V DESC, ID"])
@pytest.mark.parametrize("path", [None, "batch"])
def test_int_key_beyond_float64_is_exact_or_typed(path, order_by, limit):
    """An INT64 value float64 cannot hold ends in the oracle rows or a
    typed error, never a raw ``OverflowError``."""
    rows = _wide_rows()
    db = Database(memory_rows=200)
    db.planner.path = path
    db.register_table("W", WIDE, rows)
    descending = "DESC" in order_by
    expected = sorted(rows, key=lambda row: (-row[0] if descending
                                             else row[0], row[1]))[:limit]
    try:
        result = db.sql(f"SELECT * FROM W ORDER BY {order_by} "
                        f"LIMIT {limit}")
    except ReproError:
        return
    if order_by.endswith("ID"):
        assert result.rows == expected
    else:
        # A lone sort column leaves ties unordered.
        assert [row[0] for row in result.rows] == [row[0]
                                                   for row in expected]
