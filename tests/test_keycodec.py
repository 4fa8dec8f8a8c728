"""Property tests for the binary key codec and offset-value coding.

The codec's one obligation is *order isomorphism*: for any sort spec and
any pair of rows, comparing the encoded ``bytes`` keys must reach exactly
the same verdict (<, ==, >) as comparing the tuple keys
``SortSpec.key`` produces.  Everything downstream (run generation, the
cutoff filter, histograms, merging) only ever compares keys, so this
single property is what makes OVC engines byte-identical to tuple-key
engines.

The batch form ``KeyCodec.encode_batch`` is held to the per-row
encoder: the same keys element for element, and the same error for a
value its column type cannot hold.

Offset-value codes get their own invariants: a code of zero exactly means
equal-to-base, codes computed against a common base reconstruct the
comparison verdict, codes along a sorted run (relative to the run's
first row) never decrease, and the codes a run scan computes page by
page chain each row to the row before it in the scan.
"""

from __future__ import annotations

import datetime
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.session import Database
from repro.errors import KeyEncodingError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.sorting.keycodec import BATCH_MIN_ROWS, compile_keycodec
from repro.sorting.merge import merge_keyed
from repro.sorting.ovc import (
    INITIAL_CODE,
    code_between,
    code_sequence,
    first_diff,
    merge_coded,
)
from repro.sorting.runs import write_run
from repro.storage.spill import DiskSpillBackend, SpillManager

# -- value strategies per column type ------------------------------------

_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324])
_VALUES = {
    ColumnType.INT64: st.integers(-2**63, 2**63 - 1),
    ColumnType.FLOAT64: _FLOATS,
    ColumnType.DECIMAL: _FLOATS | st.integers(-2**40, 2**40),
    ColumnType.STRING: st.text(max_size=12) | st.sampled_from(
        ["", "\x00", "a\x00b", "a", "ab", "müller", "￿"]),
    ColumnType.DATE: st.dates(),
    ColumnType.BOOL: st.booleans(),
}
_TYPES = list(_VALUES)


@st.composite
def spec_and_rows(draw):
    """A random (SortSpec, rows) pair over 1-3 columns of any type."""
    count = draw(st.integers(1, 3))
    types = [draw(st.sampled_from(_TYPES)) for _ in range(count)]
    nullable = [draw(st.booleans()) for _ in range(count)]
    ascending = [draw(st.booleans()) for _ in range(count)]
    schema = Schema([Column(f"c{i}", types[i], nullable=nullable[i])
                     for i in range(count)])
    spec = SortSpec(schema, [SortColumn(f"c{i}", ascending=ascending[i])
                             for i in range(count)])

    def value(i):
        if nullable[i] and draw(st.integers(0, 4)) == 0:
            return None
        return draw(_VALUES[types[i]])

    rows = [tuple(value(i) for i in range(count))
            for _ in range(draw(st.integers(2, 12)))]
    return spec, rows


def verdict(a, b) -> int:
    if a < b:
        return -1
    if b < a:
        return 1
    return 0


@given(spec_and_rows())
@settings(max_examples=300, deadline=None)
def test_encoded_order_is_isomorphic_to_tuple_order(case):
    spec, rows = case
    codec = compile_keycodec(spec)
    assert codec is not None
    tuple_key, encode = spec.key, codec.encode
    for left, right in itertools.combinations(rows, 2):
        expected = verdict(tuple_key(left), tuple_key(right))
        assert verdict(encode(left), encode(right)) == expected, \
            f"{left!r} vs {right!r} under {spec!r}"
        # Equality must agree exactly too (not just trichotomy): OVC
        # treats equal keys as code 0.
        assert ((encode(left) == encode(right))
                == (tuple_key(left) == tuple_key(right)))


@given(spec_and_rows())
@settings(max_examples=200, deadline=None)
def test_sorting_by_encoded_key_matches_tuple_sort(case):
    spec, rows = case
    encode = compile_keycodec(spec).encode
    # Stable sorts + order isomorphism => identical permutations.
    assert sorted(rows, key=encode) == sorted(rows, key=spec.key)


# -- the batch form -------------------------------------------------------

#: Values of each column's own type that the batch form must transform
#: as the per-row encoder does: NaN and zeros of both signs, the int64
#: bounds, bools in INT64, NUL, non-ASCII and non-BMP strings.
_BATCH_SPECIALS = {
    ColumnType.INT64: [-2**63, 2**63 - 1, 0, -1, True, False],
    ColumnType.FLOAT64: [math.nan, -math.nan, 0.0, -0.0, math.inf,
                         -math.inf],
    ColumnType.DECIMAL: [math.nan, -0.0, 5e-324],
    ColumnType.STRING: ["", "\x00", "a\x00", "müller", "\U0001f600",
                        "\ud800"],
    ColumnType.DATE: [datetime.date.min, datetime.date.max],
    ColumnType.BOOL: [True, False],
}
_BATCH_VALUES = {**_VALUES, ColumnType.DECIMAL: _FLOATS}
#: Values of another type that a column still encodes (ints, exact or
#: not, in float columns) or rejects: the batch falls back to its rows.
_ODD_VALUES = {
    ColumnType.INT64: [1.5, "7", None, 2**63],
    ColumnType.FLOAT64: [3, 2**53, 2**53 + 1, True, "1.5"],
    ColumnType.DECIMAL: [7, -2**40, 2**53 + 1],
    ColumnType.STRING: [5, b"x"],
    ColumnType.DATE: [datetime.datetime(2020, 1, 1)],
    ColumnType.BOOL: [1],
}


@st.composite
def spec_and_batch(draw):
    """A spec over 1-3 columns of any type (nullable one time in four)
    and a batch on either side of the batch form's break-even size,
    drawn with repeats from a few distinct rows, as ORDER BY strings
    repeat; one example in four holds a value of another type."""
    count = draw(st.integers(1, 3))
    types = [draw(st.sampled_from(_TYPES)) for _ in range(count)]
    nullable = [draw(st.integers(0, 3)) == 0 for _ in range(count)]
    schema = Schema([Column(f"c{i}", types[i], nullable=nullable[i])
                     for i in range(count)])
    spec = SortSpec(schema, [SortColumn(f"c{i}", ascending=draw(
        st.booleans())) for i in range(count)])

    def value(i):
        if nullable[i] and draw(st.integers(0, 4)) == 0:
            return None
        return draw(_BATCH_VALUES[types[i]]
                    | st.sampled_from(_BATCH_SPECIALS[types[i]]))

    pool = [[value(i) for i in range(count)]
            for _ in range(draw(st.integers(1, 6)))]
    if draw(st.integers(0, 3)) == 0:
        column = draw(st.integers(0, count - 1))
        pool[draw(st.integers(0, len(pool) - 1))][column] = draw(
            st.sampled_from(_ODD_VALUES[types[column]]))
    size = draw(st.integers(0, BATCH_MIN_ROWS - 1)
                | st.integers(BATCH_MIN_ROWS, 3 * BATCH_MIN_ROWS))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size,
                          max_size=size))
    return spec, [tuple(pool[pick]) for pick in picks]


def _outcome(encode_rows, rows):
    """The keys, or the error's type and message."""
    try:
        return encode_rows(rows)
    except Exception as exc:  # compared with the other encoder's
        return type(exc), str(exc)


@given(spec_and_batch())
@settings(deadline=None)
def test_batch_encoding_equals_per_row_encoding(case):
    spec, rows = case
    codec = compile_keycodec(spec)
    per_row = _outcome(lambda batch: list(map(codec.encode, batch)), rows)
    assert _outcome(codec.encode_batch, rows) == per_row


#: ``(column type, value)`` pairs the column type cannot hold.
_MISTYPED = [
    (ColumnType.INT64, 1.5), (ColumnType.INT64, 3.0),
    (ColumnType.INT64, "7"), (ColumnType.INT64, None),
    (ColumnType.INT64, 2**63), (ColumnType.INT64, -2**63 - 1),
    (ColumnType.FLOAT64, "1.5"), (ColumnType.FLOAT64, None),
    (ColumnType.FLOAT64, 2**53 + 1), (ColumnType.DECIMAL, "2"),
    (ColumnType.STRING, 5), (ColumnType.STRING, None),
    (ColumnType.STRING, b"x"), (ColumnType.STRING, ["a"]),
    (ColumnType.DATE, "2020-01-01"),
    (ColumnType.DATE, datetime.datetime(2020, 1, 1)),
    (ColumnType.BOOL, 1),
]


@pytest.mark.parametrize("ascending", [True, False])
@pytest.mark.parametrize(
    "ctype,value", _MISTYPED,
    ids=[f"{ctype.name}-{value!r}" for ctype, value in _MISTYPED])
def test_mistyped_value_raises_key_encoding_error(ctype, value, ascending):
    schema = Schema([Column("v", ctype), Column("id", ColumnType.INT64)])
    codec = compile_keycodec(SortSpec(
        schema, [SortColumn("v", ascending=ascending), "id"]))
    with pytest.raises(KeyEncodingError):
        codec.encode((value, 1))
    good = _BATCH_SPECIALS[ctype][0]
    for size in (1, 2 * BATCH_MIN_ROWS):
        rows = [(good, i) for i in range(size)]
        rows[size // 2] = (value, 0)
        with pytest.raises(KeyEncodingError):
            codec.encode_batch(rows)


def test_mistyped_int_sort_value_through_sql():
    schema = Schema([Column("A", ColumnType.INT64),
                     Column("B", ColumnType.STRING)])
    db = Database(memory_rows=100)
    db.register_table("T", schema, [(1, "x"), (1.5, "y"), (2, "z")])
    with pytest.raises(KeyEncodingError):
        db.sql("SELECT * FROM T ORDER BY B DESC, A LIMIT 2")


@pytest.mark.parametrize("ascending", [True, False])
def test_batch_form_canonicalizes_nan_and_negative_zero(ascending):
    schema = Schema([Column("f", ColumnType.FLOAT64),
                     Column("d", ColumnType.DECIMAL)])
    codec = compile_keycodec(SortSpec(schema, [
        SortColumn("f", ascending=ascending),
        SortColumn("d", ascending=ascending)]))
    values = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 1.5,
              -1.5]
    rows = [(first, second) for first in values for second in values]
    assert len(rows) >= BATCH_MIN_ROWS
    assert codec.encode_batch(rows) == list(map(codec.encode, rows))


def test_batch_keys_keep_trailing_zero_bytes():
    """An 8-byte code ending in zero bytes (``-2**63`` ascending is all
    zeros) stays 8 bytes long in the batch form."""
    schema = Schema([Column("a", ColumnType.INT64),
                     Column("b", ColumnType.INT64)])
    codec = compile_keycodec(SortSpec(schema, ["a", "b"]))
    rows = [(-2**63, -2**63)] * BATCH_MIN_ROWS
    assert codec.encode_batch(rows) == [bytes(16)] * BATCH_MIN_ROWS


# -- directed edge cases --------------------------------------------------

def _single(ctype, ascending=True, nullable=False):
    schema = Schema([Column("v", ctype, nullable=nullable)])
    spec = SortSpec(schema, [SortColumn("v", ascending=ascending)])
    return compile_keycodec(spec).encode


class TestEncodingEdgeCases:
    def test_negative_zero_equals_zero(self):
        encode = _single(ColumnType.FLOAT64)
        assert encode((0.0,)) == encode((-0.0,))

    def test_nan_sorts_after_inf_and_before_null(self):
        encode = _single(ColumnType.FLOAT64, nullable=True)
        assert encode((math.inf,)) < encode((math.nan,)) < encode((None,))

    def test_nan_encoding_is_canonical(self):
        encode = _single(ColumnType.FLOAT64)
        assert encode((math.nan,)) == encode((-math.nan,))

    def test_exact_int_in_float_column(self):
        encode = _single(ColumnType.FLOAT64)
        assert encode((2,)) == encode((2.0,))
        assert encode((2,)) < encode((2.5,))

    def test_inexact_int_in_float_column_raises(self):
        encode = _single(ColumnType.FLOAT64)
        with pytest.raises(KeyEncodingError):
            encode((2**53 + 1,))

    def test_huge_int_raises(self):
        encode = _single(ColumnType.INT64)
        with pytest.raises(KeyEncodingError):
            encode((2**1100,))

    def test_int64_boundaries(self):
        encode = _single(ColumnType.INT64)
        assert encode((-2**63,)) < encode((0,)) < encode((2**63 - 1,))
        for out_of_range in (2**63, -2**63 - 1):
            with pytest.raises(KeyEncodingError):
                encode((out_of_range,))

    def test_datetime_in_date_column_raises(self):
        encode = _single(ColumnType.DATE)
        with pytest.raises(KeyEncodingError):
            encode((datetime.datetime(2020, 1, 1, 12, 30),))

    def test_string_prefix_orders_before_extension(self):
        for ascending in (True, False):
            encode = _single(ColumnType.STRING, ascending=ascending)
            expected = -1 if ascending else 1
            assert verdict(encode(("a",)), encode(("ab",))) == expected

    def test_embedded_nul_strings(self):
        encode = _single(ColumnType.STRING)
        assert encode(("",)) < encode(("\x00",)) < encode(("\x00a",)) \
            < encode(("a",))

    def test_descending_nulls_still_last(self):
        encode = _single(ColumnType.INT64, ascending=False, nullable=True)
        assert encode((-5,)) < encode((-100,)) < encode((None,))

    def test_decode_is_unsupported_by_design(self):
        schema = Schema([Column("v", ColumnType.INT64)])
        codec = compile_keycodec(SortSpec(schema, ["v"]))
        with pytest.raises(NotImplementedError):
            codec.decode(b"\x81\x01")

    def test_preferred_policy(self):
        schema = Schema([
            Column("f", ColumnType.FLOAT64),
            Column("s", ColumnType.STRING),
            Column("n", ColumnType.FLOAT64, nullable=True),
        ])
        bare = compile_keycodec(SortSpec(schema, ["f"]))
        assert not bare.preferred  # primitive tuple key already optimal
        desc_num = compile_keycodec(
            SortSpec(schema, [SortColumn("f", False)]))
        assert not desc_num.preferred  # negation keeps it primitive
        for columns in (["s", "f"], [SortColumn("s", False)], ["n"]):
            assert compile_keycodec(SortSpec(schema, columns)).preferred

    def test_compilation_is_memoized(self):
        schema = Schema([Column("v", ColumnType.STRING)])
        one = compile_keycodec(SortSpec(schema, ["v"]))
        two = compile_keycodec(SortSpec(schema, ["v"]))
        assert one is two


# -- offset-value code invariants ----------------------------------------

_KEYS = st.lists(st.binary(max_size=6), min_size=1, max_size=40)


@given(base=st.binary(max_size=6), key=st.binary(max_size=6))
@settings(max_examples=300, deadline=None)
def test_code_zero_exactly_means_equal(base, key):
    if key >= base:  # codes are only defined for key >= base
        assert (code_between(base, key) == 0) == (key == base)


@given(base=st.binary(max_size=6), keys=st.lists(
    st.binary(max_size=6), min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_codes_against_common_base_reconstruct_comparisons(base, keys):
    a, b = sorted(keys)
    if a < base:
        return
    code_a, code_b = code_between(base, a), code_between(base, b)
    if code_a != code_b:
        # Differing codes against a common base decide the comparison
        # outright — the tree-of-losers' one-integer fast path.
        assert (code_a < code_b) == (a < b)


@given(keys=_KEYS)
@settings(max_examples=300, deadline=None)
def test_codes_relative_to_first_row_never_decrease(keys):
    keys.sort()
    base = keys[0]
    codes = [code_between(base, key) for key in keys]
    assert codes == sorted(codes)


def _small_alphabet_keys(min_size: int):
    return st.lists(st.sampled_from((0, 1, 255)), min_size=min_size,
                    max_size=5).map(bytes)


@given(keys=st.tuples(st.sampled_from((0, 3)), st.integers(0, 80)).flatmap(
           lambda shape: st.lists(_small_alphabet_keys(shape[0]),
                                  min_size=shape[1], max_size=shape[1])),
       base=st.one_of(st.none(), _small_alphabet_keys(0)),
       sort=st.booleans())
@settings(max_examples=300, deadline=None)
def test_code_sequence_is_code_between_pair_by_pair(keys, base, sort):
    """Ties, proper prefixes, trailing zero bytes and empty keys code
    exactly as one ``code_between`` per pair, whether the batch takes the
    vectorized path (enough keys of similar length) or not."""
    if sort:
        keys.sort()
    expected, previous = [], base
    for key in keys:
        expected.append(code_between(previous, key))
        previous = key
    assert code_sequence(base, keys) == expected


@given(a=st.binary(max_size=8), b=st.binary(max_size=8))
@settings(max_examples=300, deadline=None)
def test_first_diff_is_the_first_differing_offset(a, b):
    d = first_diff(a, b)
    assert a[:d] == b[:d]
    if a != b:
        assert a[d:d + 1] != b[d:d + 1]
    else:
        assert d == len(a) == len(b)


@given(runs_keys=st.lists(_KEYS, min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_merge_coded_equals_merge_keyed(runs_keys):
    """The tree of losers and the heap produce the same stable stream."""
    encode = lambda row: row[0]  # rows carry their byte key  # noqa: E731
    with SpillManager() as spill:
        runs = []
        for run_id, keys in enumerate(runs_keys):
            keys.sort()
            runs.append(write_run(
                spill, run_id, ((key, (key, run_id)) for key in keys)))
        coded = list(merge_coded(runs, encode))
        keyed = list(merge_keyed(runs, encode))
    assert coded == keyed
    assert [key for key, _row in coded] == sorted(
        itertools.chain.from_iterable(runs_keys))


@given(keys=_KEYS, page_bytes=st.integers(1, 200),
       start_page=st.integers(0, 8), on_disk=st.booleans())
@settings(max_examples=120, deadline=None)
def test_coded_rows_codes_chain_previous_row(keys, page_bytes, start_page,
                                            on_disk):
    """Each scanned code is the row's OVC relative to the row before it
    in the scan, across page boundaries, and the scan's first row gets
    INITIAL_CODE also when the scan starts mid-run.  On disk the pages
    carry no keys, so the scan re-encodes each page's rows first."""
    encode = lambda row: row[0]  # noqa: E731
    keys.sort()
    backend = DiskSpillBackend() if on_disk else None
    with SpillManager(backend=backend, page_bytes=page_bytes,
                      row_size=lambda row: 16 + len(row[0])) as spill:
        run = write_run(spill, 0, ((key, (key,)) for key in keys))
        scanned = list(run.coded_rows(encode, start_page=start_page))
        skipped = sum(run.file.page_row_counts[:start_page])
    assert [key for key, _row, _code in scanned] == keys[skipped:]
    previous = None
    for key, row, code in scanned:
        assert row == (key,)
        assert code == code_between(previous, key)
        previous = key
    if scanned:
        assert scanned[0][2] == INITIAL_CODE
