"""Property and unit tests for the typed page codec.

The codec is the spill wire format: every disk page round-trips through
it, so the round trip must be *exact* — every value comes back with the
same type and bit pattern (NaN and signed zeros included), NULLs stay
NULL, and pages whose values defeat the declared schema fall back to
pickle without losing anything.  Every combination of the page's
optional sections (zone map, keys) and payload kind (typed or pickled)
must round-trip the same way.
"""

import datetime
import hashlib
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import HistogramTopK
from repro.errors import SpillError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.storage.codec import (
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

    Axes: zone maps on/off, late materialization on/off, typed or
    pickled payload, and ``bytes``, tuple or absent sort keys.
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
    codec = TypedPageCodec(schema, zone_maps=draw(st.booleans()),
                           late_materialization=draw(st.booleans()),
                           null_key_prefix=NULL_PREFIX)
    return codec, Page(rows=rows, byte_size=4242, keys=keys)


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
    def test_split_round_trip_attaches_keys(self, case):
        codec, page = case
        payload = codec.encode(page)
        stored = codec.late_materialization and _binary_keys(page)
        assert bool(_flags(payload) & FLAG_KEYS) == stored
        restored = decode_page(payload)
        _assert_exact(restored.rows, page.rows)
        assert restored.keys == (page.keys if stored else None)

    @settings(max_examples=200, deadline=None)
    @given(_keyed_page())
    def test_skeleton_decode_yields_row_refs_not_payload(self, case):
        codec, page = case
        payload = codec.encode(page)
        skeleton, undecoded = decode_page_skeleton(payload, 7, 3)
        assert skeleton.byte_size == page.byte_size
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
            # after the 16-byte page frame, version byte and stated
            # size); the page's checksum catches it.
            path = spill_file._path
            offset = spill_file._page_offsets[1]
            with open(path, "r+b") as handle:
                handle.seek(offset + 16 + 5)
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

    def test_retired_codes_section_is_foreign(self):
        """Flag bit 2 once announced a section of one u64 offset-value
        code per row; the merge computes codes as it scans now, so such
        a page is foreign to every reader."""
        schema = Schema([Column("i", ColumnType.INT64)])
        rows = [(7,), (9,)]
        good = TypedPageCodec(schema).encode(Page(rows=rows, byte_size=8))
        header = PAGE_HEADER.unpack_from(good)
        retired = (PAGE_HEADER.pack(*header[:3], header[3] | 2)
                   + struct.pack("<2Q", 0, 1) + good[PAGE_HEADER.size:])
        for read in (decode_page, read_zone_map,
                     lambda payload: decode_page_skeleton(payload, 0, 0)):
            with pytest.raises(SpillError, match="section flags"):
                read(retired)

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


# -- page bytes held -------------------------------------------------------

#: Wire type codes, as written by the reference encoder below.
_WIRE_CODES = {
    ColumnType.INT64: (1, "q", int),
    ColumnType.FLOAT64: (2, "d", float),
    ColumnType.DECIMAL: (3, "d", float),
    ColumnType.STRING: (4, None, str),
    ColumnType.DATE: (5, "i", datetime.date),
    ColumnType.BOOL: (6, "B", bool),
}
_NULL_VALUES = {
    ColumnType.INT64: 0,
    ColumnType.FLOAT64: 0.0,
    ColumnType.DECIMAL: 0.0,
    ColumnType.STRING: "",
    ColumnType.DATE: datetime.date.min,
    ColumnType.BOOL: False,
}


def _reference_blobs(blobs) -> bytes:
    offsets, total = [0], 0
    for blob in blobs:
        total += len(blob)
        offsets.append(total)
    return b"".join(struct.pack("<I", offset) for offset in offsets) \
        + b"".join(blobs)


def _reference_typed(schema, rows):
    """The typed payload, one value at a time; ``None`` when it pickles."""
    if schema is None:
        return None
    width = len(schema.columns)
    if any(len(row) != width for row in rows):
        return None
    parts = [struct.pack("<H", width)]
    for column in schema.columns:
        parts.append(struct.pack("<BB", _WIRE_CODES[column.type][0],
                                 int(column.nullable)))
    for index, column in enumerate(schema.columns):
        _code, fmt, kind = _WIRE_CODES[column.type]
        values = [row[index] for row in rows]
        if column.nullable:
            bitmap = bytearray((len(values) + 7) // 8)
            for position, value in enumerate(values):
                if value is None:
                    bitmap[position >> 3] |= 1 << (position & 7)
            parts.append(bytes(bitmap))
            values = [_NULL_VALUES[column.type] if value is None else value
                      for value in values]
        if any(type(value) is not kind for value in values):
            return None
        if column.type is ColumnType.STRING:
            parts.append(_reference_blobs(
                [value.encode("utf-8", "surrogatepass")
                 for value in values]))
            continue
        for value in values:
            if kind is datetime.date:
                value = value.toordinal()
            try:
                parts.append(struct.pack("<" + fmt, value))
            except struct.error:
                return None
    return b"".join(parts)


def _reference_page(codec, page) -> bytes:
    """One page in the module docstring's wire format, written one value
    at a time."""
    rows, keys = page.rows, page.keys
    count = len(rows)
    keyed = (keys is not None and len(keys) == count and count > 0
             and type(keys[0]) is bytes)
    flags, sections = 0, b""
    if codec.zone_maps and keyed:
        low, high = min(keys), max(keys)
        if len(low) <= 0xFFFF and len(high) <= 0xFFFF:
            prefix = codec.null_key_prefix
            nulls = (sum(key.startswith(prefix) for key in keys)
                     if prefix else 0)
            flags |= FLAG_ZONE_MAP
            sections += (struct.pack("<IH", nulls, len(low)) + low
                         + struct.pack("<H", len(high)) + high)
    if codec.late_materialization and keyed:
        flags |= FLAG_KEYS
        sections += _reference_blobs(keys)
    payload = _reference_typed(codec.schema, rows)
    if payload is None:
        flags |= FLAG_PICKLED
        payload = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("<BIIB", 1, page.byte_size, count, flags) \
        + sections + payload


_EVERY_TYPE = [("i", ColumnType.INT64), ("f", ColumnType.FLOAT64),
               ("m", ColumnType.DECIMAL), ("s", ColumnType.STRING),
               ("d", ColumnType.DATE), ("b", ColumnType.BOOL)]


def _schema_of(nullable=False, columns=_EVERY_TYPE):
    return Schema([Column(name, type_, nullable=nullable)
                   for name, type_ in columns])


_DAY = datetime.date(1998, 12, 1)
_TYPED_ROWS = [
    (7, 1.5, 0.25, "MAIL", _DAY, True),
    (-3, float("nan"), -0.0, "", datetime.date.min, False),
    (0, float("inf"), 1e300, "DELIVER IN PERSON", datetime.date.max, True),
]
_ONE_INT = [("i", ColumnType.INT64)]
_ONE_STRING = [("s", ColumnType.STRING)]


def _pinned_pages():
    """``name -> (codec, page)``: every column type, NULLs, strings,
    bounds, each pickle trigger and each section."""
    keys = [b"\x00\x10", b"\x00\x20", b"\x01"]
    nullable = [tuple(None if (row + col) % 3 == 0 else value
                      for col, value in enumerate(values))
                for row, values in enumerate(_TYPED_ROWS)]
    return {
        "every_type": (TypedPageCodec(_schema_of()), _TYPED_ROWS, None),
        "nullable": (TypedPageCodec(_schema_of(True)), nullable, None),
        "all_null": (TypedPageCodec(_schema_of(True)),
                     [(None,) * 6] * 11, None),
        "empty": (TypedPageCodec(_schema_of()), [], None),
        "non_ascii": (TypedPageCodec(_schema_of(columns=_ONE_STRING)),
                      [("naïve",), ("日本語",), ("",), ("emoji 🎉",),
                       ("ascii",)], None),
        "surrogates": (TypedPageCodec(_schema_of(columns=_ONE_STRING)),
                       [("bad \udcff tail",), ("\ud800",), ("ok",)], None),
        "int64_bounds": (TypedPageCodec(_schema_of(columns=_ONE_INT)),
                         [(_INT64_MIN,), (-1,), (0,), (_INT64_MAX,)], None),
        "bool_in_int64": (TypedPageCodec(_schema_of(columns=_ONE_INT)),
                          [(1,), (True,)], None),
        "int_in_float64": (TypedPageCodec(_schema_of(
            columns=[("f", ColumnType.FLOAT64)])), [(1.5,), (2,)], None),
        "datetime_in_date": (TypedPageCodec(_schema_of(
            columns=[("d", ColumnType.DATE)])),
            [(_DAY,), (datetime.datetime(2020, 1, 1, 12, 30),)], None),
        "out_of_range_int": (TypedPageCodec(_schema_of(columns=_ONE_INT)),
                             [(1,), (_INT64_MAX + 1,)], None),
        "arity_drift": (TypedPageCodec(_schema_of(columns=_ONE_INT)),
                        [(1,), (2, 3)], None),
        "zone_map": (TypedPageCodec(_schema_of(), null_key_prefix=b"\x01"),
                     _TYPED_ROWS, keys),
        "zone_map_and_keys": (TypedPageCodec(
            _schema_of(), late_materialization=True,
            null_key_prefix=b"\x01"), _TYPED_ROWS, keys),
        "oversized_key": (TypedPageCodec(_schema_of()), _TYPED_ROWS,
                          [b"\x00" * 0x10000, b"\x00\x01", b"\x00\x02"]),
        "schemaless": (TypedPageCodec(), _TYPED_ROWS, keys),
    }


#: sha256 of each pinned page's bytes.
PAGE_DIGESTS = {
    "all_null":
        "ecc4da2b5d4f6d87d5d4c174cc5c0fc61b048cba44ada7f4c69ff0a1068a4c0c",
    "arity_drift":
        "ef9627dd0882ba31c37d2280b0e2e126a3a051f25fc78ee4962acb5dc42cdc42",
    "bool_in_int64":
        "3964dec426e60d0741fd21c152399842b46468111f85c340208c195aa5cf3c2c",
    "datetime_in_date":
        "bb534e7200afc535252b4d3365a98efc5552d56a7683fd13f54fd1266f2c7619",
    "empty":
        "00fae7a211162c9384e02807668b67a0aa2f0fced7d6ffa3012ddad16374c4fd",
    "every_type":
        "bee17aeae0276d16b390fa7d8205b349fe2d0148b253b1734a6f84b0b515e92e",
    "int64_bounds":
        "a0c1eb546a3649b09567f9a3605d137f69dbcd71692b980644345e21e94c168e",
    "int_in_float64":
        "bee748c2ff93461ef587229029917f3eeba6b902d6359a9a266b706fb4a7621f",
    "non_ascii":
        "2cb759c220da1f50ed8c86bb61a9d4665fe4f1ecab6f776dbc8f9a84c6c4c307",
    "nullable":
        "034b0f5c46e1c1a9650ab0e166daf350c0810624f4eb92137574e0dffe0d365e",
    "out_of_range_int":
        "3f4a950af99abdb0b32a3926e9385467729dabc164d3e21c94ae562e6489bbdd",
    "oversized_key":
        "bee17aeae0276d16b390fa7d8205b349fe2d0148b253b1734a6f84b0b515e92e",
    "schemaless":
        "3a3e2e9db9fde0482774c601975a4b7cc5fb5d38793e72973dc6e6b309162d66",
    "surrogates":
        "043047724e6ad72b7301715f01aea13f82f8dc2b6ffcf2edd50a58ee4445999b",
    "zone_map":
        "7a7d05cc7db3124e73c911744ef0e412b8a39c95a37d1ee7ea608799217cd682",
    "zone_map_and_keys":
        "761602dd6884a4d1963bc87715e2e526f0b84d9b1651f50eaafa64e23a2e95e6",
}


class TestPageBytes:
    """The encoder's bytes are the wire format: held by digest and
    against a reference written one value at a time."""

    @pytest.mark.parametrize("name", sorted(_pinned_pages()))
    def test_page_digest_is_pinned(self, name):
        codec, rows, keys = _pinned_pages()[name]
        payload = codec.encode(Page(rows=rows, byte_size=4096, keys=keys))
        assert hashlib.sha256(payload).hexdigest() == PAGE_DIGESTS[name]
        assert payload == _reference_page(
            codec, Page(rows=rows, byte_size=4096, keys=keys))

    @settings(deadline=None)
    @given(data=st.data(), case=_schema_and_rows())
    def test_typed_pages_equal_the_reference(self, data, case):
        schema, rows = case
        rows = list(rows)
        text = st.text(st.one_of(
            st.characters(max_codepoint=0x7F), st.characters(),
            st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)),
            max_size=12)
        strings = [index for index, column in enumerate(schema.columns)
                   if column.type is ColumnType.STRING]
        if strings and rows:
            slot = data.draw(st.integers(0, len(rows) - 1))
            row = list(rows[slot])
            row[strings[0]] = data.draw(text)
            rows[slot] = tuple(row)
        trigger = data.draw(st.sampled_from(
            [None, None, True, 2, datetime.datetime(2020, 1, 1),
             _INT64_MAX + 1, "arity"]))
        if trigger is not None and rows:
            slot = data.draw(st.integers(0, len(rows) - 1))
            rows[slot] = (rows[slot] + (0,) if trigger == "arity"
                          else (trigger,) + rows[slot][1:])
        keys = None
        if rows and data.draw(st.booleans()):
            keys = [data.draw(_KEY) for _ in rows]
        codec = TypedPageCodec(
            schema, zone_maps=data.draw(st.booleans()),
            late_materialization=data.draw(st.booleans()),
            null_key_prefix=data.draw(st.sampled_from([None, NULL_PREFIX])))
        page = Page(rows=rows, byte_size=len(rows) * 48, keys=keys)
        assert codec.encode(page) == _reference_page(codec, page)
