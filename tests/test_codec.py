"""Property and unit tests for the typed page codec.

The codec is the spill wire format: every disk page round-trips through
it, so the round trip must be *exact* — every value comes back with the
same type and bit pattern (NaN and signed zeros included), NULLs stay
NULL, and pages whose values defeat the declared schema fall back to
pickle without losing anything.  Every combination of the page's
optional sections (zone map, offset-value codes, keys) and payload kind
(typed or pickled) must round-trip the same way.
"""

import datetime
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import HistogramTopK
from repro.errors import SpillError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import (
    FLAG_CODES,
    FLAG_KEYS,
    FLAG_PICKLED,
    FLAG_ZONE_MAP,
    PAGE_HEADER,
    TypedPageCodec,
    decode_page,
    decode_page_skeleton,
    read_zone_map,
)
from repro.storage.pages import Page
from repro.storage.spill import DiskSpillBackend, SpillManager

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _flags(payload):
    """The section flags byte of an encoded page's header."""
    return PAGE_HEADER.unpack_from(payload)[3]


def _bits(value):
    """Comparison key that is bit-exact for floats (NaN == NaN, -0.0 != 0.0)."""
    if type(value) is float:
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def _assert_exact(received, expected):
    assert len(received) == len(expected)
    for got_row, want_row in zip(received, expected):
        assert type(got_row) is tuple
        assert len(got_row) == len(want_row)
        for got, want in zip(got_row, want_row):
            assert type(got) is type(want), (got, want)
            assert _bits(got) == _bits(want), (got, want)


# -- hypothesis strategies ------------------------------------------------

_VALUES = {
    ColumnType.INT64: st.integers(min_value=_INT64_MIN,
                                  max_value=_INT64_MAX),
    ColumnType.FLOAT64: st.floats(allow_nan=True, allow_infinity=True,
                                  width=64),
    ColumnType.DECIMAL: st.floats(allow_nan=True, allow_infinity=True,
                                  width=64),
    # Full Unicode incl. astral plane and the empty string; surrogates are
    # excluded here (tested separately: they need the surrogatepass path).
    ColumnType.STRING: st.text(max_size=40),
    ColumnType.DATE: st.dates(),
    ColumnType.BOOL: st.booleans(),
}

_COLUMN = st.sampled_from(list(_VALUES)).flatmap(
    lambda ct: st.tuples(st.just(ct), st.booleans()))


@st.composite
def _schema_and_rows(draw):
    layout = draw(st.lists(_COLUMN, min_size=1, max_size=5))
    schema = Schema([
        Column(f"c{i}", ct, nullable=nullable)
        for i, (ct, nullable) in enumerate(layout)
    ])
    row = st.tuples(*[
        (st.none() | _VALUES[ct]) if nullable else _VALUES[ct]
        for ct, nullable in layout
    ])
    rows = draw(st.lists(row, min_size=0, max_size=30))
    return schema, rows


class TestTypedRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(_schema_and_rows())
    def test_round_trip_is_exact(self, case):
        schema, rows = case
        codec = TypedPageCodec(schema)
        page = Page(rows=rows, byte_size=12345)
        restored = decode_page(codec.encode(page))
        _assert_exact(restored.rows, rows)
        assert restored.byte_size == 12345  # stated size survives

    @settings(max_examples=100, deadline=None)
    @given(_schema_and_rows())
    def test_pickle_round_trip_is_exact(self, case):
        _schema, rows = case
        page = Page(rows=rows, byte_size=777)
        payload = TypedPageCodec().encode(page)
        assert _flags(payload) & FLAG_PICKLED
        restored = decode_page(payload)
        _assert_exact(restored.rows, rows)
        assert restored.byte_size == 777

    @settings(max_examples=100, deadline=None)
    @given(_schema_and_rows())
    def test_well_typed_pages_never_pickle(self, case):
        schema, rows = case
        codec = TypedPageCodec(schema)
        payload = codec.encode(Page(rows=rows, byte_size=1))
        assert not _flags(payload) & FLAG_PICKLED
        assert codec.typed_pages == 1
        assert codec.fallback_pages == 0


class TestTypedRoundTripEdges:
    SCHEMA = Schema([
        Column("i", ColumnType.INT64),
        Column("f", ColumnType.FLOAT64, nullable=True),
        Column("s", ColumnType.STRING),
        Column("d", ColumnType.DATE),
        Column("b", ColumnType.BOOL, nullable=True),
    ])

    def _round_trip(self, rows):
        codec = TypedPageCodec(self.SCHEMA)
        restored = decode_page(codec.encode(Page(rows=rows, byte_size=9)))
        _assert_exact(restored.rows, rows)
        return codec

    def test_empty_page(self):
        codec = self._round_trip([])
        assert codec.typed_pages == 1

    def test_single_row(self):
        self._round_trip([(1, 2.0, "x", datetime.date(2020, 1, 2), True)])

    def test_float_specials(self):
        day = datetime.date(1, 1, 1)
        rows = [(0, v, "", day, None)
                for v in (float("nan"), float("inf"), float("-inf"),
                          -0.0, 0.0, 5e-324)]
        restored = decode_page(
            TypedPageCodec(self.SCHEMA).encode(Page(rows=rows, byte_size=1)))
        assert math.isnan(restored.rows[0][1])
        assert struct.pack("<d", restored.rows[3][1]) == \
            struct.pack("<d", -0.0)

    def test_strings_empty_and_non_ascii(self):
        day = datetime.date(9999, 12, 31)
        rows = [(i, None, s, day, False) for i, s in enumerate(
            ["", "ascii", "naïve", "日本語", "emoji 🎉", "", "mixé"])]
        self._round_trip(rows)

    def test_lone_surrogates_survive(self):
        rows = [(0, None, "bad \udcff tail", datetime.date.min, None)]
        self._round_trip(rows)

    def test_int64_boundaries(self):
        rows = [(v, None, "", datetime.date.min, True)
                for v in (_INT64_MIN, -1, 0, 1, _INT64_MAX)]
        codec = self._round_trip(rows)
        assert codec.fallback_pages == 0

    def test_all_null_column(self):
        rows = [(i, None, "", datetime.date.min, None) for i in range(17)]
        self._round_trip(rows)


class TestFallback:
    """Values that defeat the declared types must pickle, exactly."""

    def _expect_fallback(self, schema, rows):
        codec = TypedPageCodec(schema)
        payload = codec.encode(Page(rows=rows, byte_size=3))
        assert _flags(payload) & FLAG_PICKLED
        assert codec.fallback_pages == 1
        _assert_exact(decode_page(payload).rows, rows)

    def test_int_in_float_column(self):
        schema = Schema([Column("f", ColumnType.FLOAT64)])
        self._expect_fallback(schema, [(1.5,), (2,)])

    def test_bool_in_int_column(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        self._expect_fallback(schema, [(1,), (True,)])

    def test_datetime_in_date_column(self):
        # datetime is a date subclass; the ordinal would drop the time.
        schema = Schema([Column("d", ColumnType.DATE)])
        self._expect_fallback(
            schema, [(datetime.datetime(2020, 1, 1, 12, 30),)])

    def test_out_of_range_int(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        self._expect_fallback(schema, [(_INT64_MAX + 1,)])

    def test_unexpected_none_in_non_nullable(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        self._expect_fallback(schema, [(None,)])

    def test_arity_drift(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        self._expect_fallback(schema, [(1, 2)])

    def test_ragged_rows(self):
        # Only a later row has the wrong length: a longer one would lose
        # its extra value as columns, a shorter one cannot fill them.
        schema = Schema([Column("i", ColumnType.INT64),
                         Column("s", ColumnType.STRING)])
        self._expect_fallback(schema, [(1, "a"), (2, "b", "extra")])
        self._expect_fallback(schema, [(1, "a"), (2,)])

    def test_ragged_rows_survive_disk_spill(self):
        schema = Schema([Column("K", ColumnType.INT64),
                         Column("S", ColumnType.STRING)])
        keys = [(i * 7919) % 2_000 for i in range(2_000)]  # a permutation
        rows = [(key, f"v{key}", "extra") if key % 7 == 0
                else (key, f"v{key}") for key in keys]
        spec = SortSpec(schema, [SortColumn("K")])
        memory = HistogramTopK(spec, 300, 50)
        expected = list(memory.execute(iter(rows)))
        assert sum(len(row) == 3 for row in expected) == 43
        codec = TypedPageCodec(schema)
        with DiskSpillBackend(codec=codec) as backend:
            disk = HistogramTopK(spec, 300, 50,
                                 spill_manager=SpillManager(backend=backend))
            assert list(disk.execute(iter(rows))) == expected
        assert codec.fallback_pages > 0


NULL_PREFIX = b"\x01"

#: Keys as the key codec produces them: a flag byte then arbitrary
#: payload bytes.  ``\x01`` marks a leading NULL (NULLS LAST ordering).
_KEY = st.binary(min_size=0, max_size=24).map(
    lambda tail: bytes([tail[0] & 1]) + tail[1:] if tail else b"\x00")


@st.composite
def _keyed_page(draw):
    """``(codec, page)`` over every section combination of the layout.

    Axes: zone maps on/off, late materialization on/off, offset-value
    codes present/absent, typed or pickled payload, and ``bytes``,
    tuple or absent sort keys.
    """
    schema = Schema([Column("i", ColumnType.INT64),
                     Column("s", ColumnType.STRING)])
    n = draw(st.integers(min_value=1, max_value=20))
    rows = [(draw(st.integers(-1000, 1000)), draw(st.text(max_size=12)))
            for _ in range(n)]
    if draw(st.booleans()):
        slot = draw(st.integers(0, n - 1))
        # A bool defeats INT64, so the payload pickles.
        rows[slot] = (draw(st.booleans()), rows[slot][1])
    keys = draw(st.sampled_from(["bytes", "tuple", None]))
    if keys == "bytes":
        keys = [draw(_KEY) for _ in range(n)]
    elif keys == "tuple":
        keys = [(row[0],) for row in rows]
    codes = list(range(n)) if draw(st.booleans()) else None
    codec = TypedPageCodec(schema, zone_maps=draw(st.booleans()),
                           late_materialization=draw(st.booleans()),
                           null_key_prefix=NULL_PREFIX)
    return codec, Page(rows=rows, byte_size=4242, keys=keys, codes=codes)


def _binary_keys(page):
    return page.keys is not None and type(page.keys[0]) is bytes


def _typed_rows(page):
    return all(type(row[0]) is int for row in page.rows)


class TestZoneMapProperties:
    @settings(max_examples=200, deadline=None)
    @given(_keyed_page())
    def test_header_carries_exact_bounds_and_null_count(self, case):
        codec, page = case
        payload = codec.encode(page)
        zone = read_zone_map(payload)
        zoned = codec.zone_maps and _binary_keys(page)
        assert bool(_flags(payload) & FLAG_ZONE_MAP) == zoned
        if not zoned:
            assert zone is None
            return
        assert zone.row_count == len(page.rows)
        assert zone.min_key == min(page.keys)
        assert zone.max_key == max(page.keys)
        assert zone.null_count == sum(
            1 for key in page.keys if key.startswith(NULL_PREFIX))

    @settings(max_examples=200, deadline=None)
    @given(_keyed_page())
    def test_round_trip_through_zone_wrapper_is_exact(self, case):
        codec, page = case
        payload = codec.encode(page)
        assert bool(_flags(payload) & FLAG_PICKLED) != _typed_rows(page)
        restored = decode_page(payload)
        _assert_exact(restored.rows, page.rows)
        assert restored.byte_size == page.byte_size

    @settings(max_examples=200, deadline=None)
    @given(_keyed_page())
    def test_split_round_trip_attaches_keys_and_codes(self, case):
        codec, page = case
        payload = codec.encode(page)
        stored = codec.late_materialization and _binary_keys(page)
        assert bool(_flags(payload) & FLAG_KEYS) == stored
        assert bool(_flags(payload) & FLAG_CODES) == (
            page.codes is not None)
        restored = decode_page(payload)
        _assert_exact(restored.rows, page.rows)
        assert restored.keys == (page.keys if stored else None)
        assert restored.codes == page.codes

    @settings(max_examples=200, deadline=None)
    @given(_keyed_page())
    def test_skeleton_decode_yields_row_refs_not_payload(self, case):
        codec, page = case
        payload = codec.encode(page)
        skeleton, undecoded = decode_page_skeleton(payload, 7, 3)
        assert skeleton.byte_size == page.byte_size
        assert skeleton.codes == page.codes
        if codec.late_materialization and _binary_keys(page):
            assert undecoded > 0
            assert skeleton.keys == page.keys
            assert skeleton.rows == [(7, 3, slot)
                                     for slot in range(len(page.rows))]
        else:
            assert undecoded == 0
            assert skeleton.keys is None
            _assert_exact(skeleton.rows, page.rows)
        # The same payload decodes eagerly to the full rows.
        _assert_exact(decode_page(payload).rows, page.rows)

    def test_unkeyed_pages_get_no_wrapper(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        codec = TypedPageCodec(schema, zone_maps=True,
                               late_materialization=True)
        payload = codec.encode(Page(rows=[(1,), (2,)], byte_size=8))
        assert _flags(payload) == 0

    def test_tuple_keys_get_no_wrapper(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        codec = TypedPageCodec(schema, zone_maps=True,
                               late_materialization=True)
        payload = codec.encode(Page(rows=[(1,)], byte_size=8,
                                    keys=[(1,)]))
        assert _flags(payload) == 0

    def test_oversized_boundary_key_omits_wrapper(self):
        # A u16 length cannot state a >64KiB key; truncating the max
        # would be unsound, so the page is written without a zone map.
        schema = Schema([Column("i", ColumnType.INT64)])
        codec = TypedPageCodec(schema, zone_maps=True)
        page = Page(rows=[(1,)], byte_size=8, keys=[b"\x00" * 70_000])
        payload = codec.encode(page)
        assert _flags(payload) == 0
        assert read_zone_map(payload) is None
        assert decode_page(payload).rows == page.rows

    def test_read_zone_map_rejects_other_formats(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        payload = TypedPageCodec(schema).encode(
            Page(rows=[(1,)], byte_size=8))
        assert read_zone_map(payload) is None


class TestZoneMapCorruption:
    def _zone_payload(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        codec = TypedPageCodec(schema, zone_maps=True)
        return codec.encode(Page(rows=[(1,), (2,)], byte_size=8,
                                 keys=[b"\x00a", b"\x00b"]))

    def test_truncated_zone_header(self):
        payload = self._zone_payload()
        with pytest.raises(SpillError, match="too short"):
            read_zone_map(payload[:7])
        # Cut inside the zone-map section, after the fixed header.
        with pytest.raises(SpillError, match="zone-map spill page header"):
            read_zone_map(payload[:PAGE_HEADER.size + 3])

    def test_row_count_mismatch_detected(self):
        position = struct.calcsize("<BI")  # row count field
        for poisoned in (99, 1):  # more rows than the body, then fewer
            payload = bytearray(self._zone_payload())
            payload[position:position + 4] = struct.pack("<I", poisoned)
            with pytest.raises(SpillError,
                               match="corrupted typed spill page"):
                decode_page(bytes(payload))
        payload = bytearray(TypedPageCodec().encode(
            Page(rows=[(1,), (2,)], byte_size=8)))
        payload[position:position + 4] = struct.pack("<I", 1)
        with pytest.raises(SpillError, match="header states 1"):
            decode_page(bytes(payload))

    def test_truncated_split_page(self):
        schema = Schema([Column("s", ColumnType.STRING)])
        codec = TypedPageCodec(schema, zone_maps=False,
                               late_materialization=True)
        payload = codec.encode(Page(rows=[("hello world",)], byte_size=8,
                                    keys=[b"\x00key"]))
        assert _flags(payload) == FLAG_KEYS
        with pytest.raises(SpillError, match="key section"):
            decode_page(payload[:12])

    def test_disk_read_errors_carry_page_position(self):
        """Satellite: corruption reports page index and byte offset."""
        schema = Schema([Column("i", ColumnType.INT64)])
        with DiskSpillBackend(codec=TypedPageCodec(schema)) as backend:
            manager = SpillManager(backend=backend)
            spill_file = manager.create_file()
            for value in range(3):
                spill_file.append_page(
                    Page(rows=[(value,)], byte_size=16))
            spill_file.seal()
            # Corrupt the second page's row count in place (the field
            # after the 8-byte length header, version byte and stated
            # size).
            path = spill_file._path
            offset = spill_file._page_offsets[1]
            with open(path, "r+b") as handle:
                handle.seek(offset + 8 + 5)
                handle.write(b"\xff\xff\xff\xff")
            assert spill_file.read_page(0).rows == [(0,)]  # still fine
            with pytest.raises(SpillError,
                               match=rf"page 1 at byte offset {offset}"):
                list(spill_file.pages(start_page=1))


class TestCorruption:
    def test_unknown_version_byte(self):
        with pytest.raises(SpillError, match="unknown spill page format"):
            decode_page(bytes([250]) + b"\x00" * 16)

    def test_truncated_prefix(self):
        with pytest.raises(SpillError, match="too short"):
            decode_page(b"\x01\x00")

    def test_unknown_section_flags(self):
        good = bytearray(TypedPageCodec().encode(
            Page(rows=[(1,)], byte_size=8)))
        good[PAGE_HEADER.size - 1] |= 0x80
        with pytest.raises(SpillError, match="section flags"):
            decode_page(bytes(good))

    def test_corrupted_pickle_body(self):
        good = TypedPageCodec().encode(Page(rows=[(1,)], byte_size=8))
        with pytest.raises(SpillError, match="cannot deserialize"):
            decode_page(good[:-2])

    def test_corrupted_typed_body(self):
        schema = Schema([Column("s", ColumnType.STRING)])
        good = TypedPageCodec(schema).encode(
            Page(rows=[("hello world",)], byte_size=8))
        with pytest.raises(SpillError, match="corrupted typed"):
            decode_page(good[:len(good) // 2])

    def test_unknown_column_type_code(self):
        schema = Schema([Column("i", ColumnType.INT64)])
        good = bytearray(TypedPageCodec(schema).encode(
            Page(rows=[(7,)], byte_size=8)))
        # Column descriptors sit right after the header and the column
        # count; poison the type code.
        position = PAGE_HEADER.size + 2
        good[position] = 99
        with pytest.raises(SpillError, match="unknown column type code"):
            decode_page(bytes(good))
