"""The typed page codec: the spill wire format.

Every page that reaches real storage passes through
:class:`TypedPageCodec`.  The paper's algorithm already minimizes *how
many* rows spill; this module minimizes what each surviving row costs on
the wire and on the CPU.

A page is one self-describing record: a fixed header, the optional
sections its flags announce, then the row payload.

* The **payload** is schema-driven columnar: each column is packed as a
  contiguous little-endian vector (``struct`` for fixed widths,
  offset+blob for strings) with an optional NULL bitmap.  A page whose
  values defeat the declared types (an ``int`` in a FLOAT64 column, a
  ``datetime`` in a DATE column, an out-of-range integer, a row of the
  wrong length) pickles its rows instead, as does every page of a codec
  built without a schema, so the round trip is exact for arbitrary
  payloads while the common, well-typed case never pickles.
* A **zone map** holds the page's min/max encoded sort key and its null
  count.  A reader holding a cutoff key compares the min against it —
  one ``bytes`` comparison, no decoding — and skips the page entirely
  when ``min > cutoff`` (:func:`read_zone_map` peeks without decoding).
* A **key section** stores the encoded sort keys apart from the payload,
  so a merge can decode only the keys and carry ``(file, page, slot)``
  skeleton references instead of wide rows
  (:func:`decode_page_skeleton`); the payload is decoded only for the
  final winners, by the late-materialization stitch.

Zone maps and key sections need one memcomparable ``bytes`` sort key per
row (:mod:`repro.sorting.keycodec`); pages with tuple keys or no keys
carry neither.  No section holds offset-value codes: the merge computes
them from the keys as it scans a run
(:meth:`~repro.sorting.runs.SortedRun.coded_rows`), and many spilled
rows are never scanned, because the merge stops at ``k`` rows.

Wire format (one page)::

    u8            version (PAGE_VERSION)
    u32           stated byte size (the page's accounting size)
    u32           row count
    u8            section flags (FLAG_*; bit 2 is retired and foreign)
    --- FLAG_ZONE_MAP ------------------------------------------------
    u32           null count (rows whose leading sort column is NULL)
    u16 + bytes   min encoded sort key of the page
    u16 + bytes   max encoded sort key of the page
    --- FLAG_KEYS ----------------------------------------------------
    (rows+1)xu32  key offsets, then the key blob
    --- payload, FLAG_PICKLED ----------------------------------------
    ...           pickle.dumps(rows)
    --- payload, otherwise (typed columnar) --------------------------
    u16           column count
    per column:   u8 type code, u8 flags (bit 0: NULL bitmap present)
    per column:   [ceil(rows/8) bitmap bytes]   when flag bit 0
                  INT64 / FLOAT64 / DECIMAL     rows x 8-byte LE
                  DATE                          rows x 4-byte LE ordinal
                  BOOL                          rows x 1 byte
                  STRING                        (rows+1) x u32 offsets,
                                                then the UTF-8 blob

All integers are little-endian.  The *stated byte size* carries the
page's accounting size (estimated row bytes) through the round trip so
that :class:`~repro.storage.stats.IOStats` counters stay identical
across storage backends; the physical payload length is tracked
separately as ``bytes_encoded``/``bytes_decoded``.

Decoding needs no schema: :func:`decode_page`,
:func:`decode_page_skeleton` and :func:`read_zone_map` share one header
parse, and one spill file may mix typed and pickled pages.  A corrupted
or foreign page — unknown version byte or flags, truncated sections, a
body that disagrees with its row count — raises
:class:`~repro.errors.SpillError` instead of unpickling garbage.
"""

from __future__ import annotations

import datetime
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SpillError
from repro.rows.schema import ColumnType, Schema
from repro.storage.pages import Page

#: Version byte of the page layout.
PAGE_VERSION = 1
#: Fixed page header: version, stated byte size, row count, section flags.
PAGE_HEADER = struct.Struct("<BIIB")

#: Section flags (header byte 9).  Bit 2 is retired: it announced a
#: section of offset-value codes, which the merge computes as it scans,
#: so a page that sets it is foreign.
FLAG_ZONE_MAP = 1
FLAG_KEYS = 4
#: The payload is ``pickle.dumps(rows)`` rather than typed columns.
FLAG_PICKLED = 8
_ALL_FLAGS = FLAG_ZONE_MAP | FLAG_KEYS | FLAG_PICKLED

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: On-wire type codes (stable; append-only).
_TYPE_CODES = {
    ColumnType.INT64: 1,
    ColumnType.FLOAT64: 2,
    ColumnType.DECIMAL: 3,
    ColumnType.STRING: 4,
    ColumnType.DATE: 5,
    ColumnType.BOOL: 6,
}
_CODE_TYPES = {code: type_ for type_, code in _TYPE_CODES.items()}

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class _Fallback(Exception):
    """Internal: this page's rows cannot be encoded as typed columns."""


class TypedPageCodec:
    """Schema-driven columnar page codec with a per-page pickle fallback.

    Args:
        schema: Declared column types; drives the per-column packers.
            Without one, every payload pickles (still exact for any
            rows); the sections below work the same either way.
        zone_maps: Give pages carrying binary (``bytes``) sort keys a
            zone-map section so readers can skip them against a cutoff
            without decoding.
        late_materialization: Give pages carrying binary sort keys a key
            section so merges can decode only the keys (skeleton reads);
            requires the reader side to stitch payloads back for the
            winners.
        null_key_prefix: The byte prefix the key encoding uses for a NULL
            leading sort column (``b"\\x01"`` for the nullable encoding of
            :mod:`repro.sorting.keycodec`); drives the zone-map null
            count.  ``None`` means no nullable prefix — null count 0.

    Attributes:
        fallback_pages: Pages whose payload pickled — every page without
            a schema, otherwise only pages where a value defeated its
            declared type.
        typed_pages: Pages whose payload is typed columns.
    """

    def __init__(self, schema: Schema | None = None, *,
                 zone_maps: bool = True,
                 late_materialization: bool = False,
                 null_key_prefix: bytes | None = None):
        self.schema = schema
        self.zone_maps = zone_maps
        self.late_materialization = late_materialization
        self.null_key_prefix = null_key_prefix
        self.fallback_pages = 0
        self.typed_pages = 0
        self._encoders: list[tuple[int, bool, Callable]] | None = None
        if schema is not None:
            self._encoders = [
                (_TYPE_CODES[column.type], column.nullable,
                 _COLUMN_ENCODERS[column.type])
                for column in schema.columns
            ]

    def encode(self, page: Page) -> bytes:
        rows = page.rows
        count = len(rows)
        keys = page.keys
        keyed = (keys is not None and len(keys) == count and count > 0
                 and type(keys[0]) is bytes)
        flags = 0
        sections = []
        if self.zone_maps and keyed:
            zone_map = self._zone_map_section(keys)
            if zone_map is not None:
                flags |= FLAG_ZONE_MAP
                sections.append(zone_map)
        if self.late_materialization and keyed:
            flags |= FLAG_KEYS
            sections.append(_pack_blobs(keys))
        try:
            payload = self._typed_payload(rows)
            self.typed_pages += 1
        except _Fallback:
            flags |= FLAG_PICKLED
            payload = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            self.fallback_pages += 1
        return b"".join([
            PAGE_HEADER.pack(PAGE_VERSION, page.byte_size, count, flags),
            *sections, payload])

    def _zone_map_section(self, keys: list[bytes]) -> bytes | None:
        low, high = min(keys), max(keys)
        if len(low) > 0xFFFF or len(high) > 0xFFFF:
            # A u16-overflowing boundary key cannot be stored exactly, and
            # truncating ``max`` would be unsound — write no zone map.
            return None
        nulls = 0
        if self.null_key_prefix:
            nulls = sum(1 for key in keys
                        if key.startswith(self.null_key_prefix))
        return (_U32.pack(nulls) + _U16.pack(len(low)) + low
                + _U16.pack(len(high)) + high)

    def _typed_payload(self, rows: list[tuple]) -> bytes:
        encoders = self._encoders
        if encoders is None:
            raise _Fallback
        width = len(encoders)
        if rows and set(map(len, rows)) != {width}:
            # Rows of another arity (a projection upstream, or ragged
            # outside input) would lose or misplace values as columns.
            raise _Fallback
        parts = [_U16.pack(width)]
        for code, nullable, _encoder in encoders:
            parts.append(struct.pack("<BB", code, 1 if nullable else 0))
        columns = list(zip(*rows)) if rows else [()] * width
        for column, (code, nullable, encoder) in zip(columns, encoders):
            if nullable:
                parts.append(_null_bitmap(column))
                column = [_DEFAULTS[code] if value is None else value
                          for value in column]
            parts.append(encoder(column))
        return b"".join(parts)


def _pack_blobs(blobs) -> bytes:
    """``(n+1) x u32`` end offsets, then the concatenated blobs."""
    offsets = [0]
    total = 0
    for blob in blobs:
        total += len(blob)
        offsets.append(total)
    return struct.pack(f"<{len(offsets)}I", *offsets) + b"".join(blobs)


# -- column packers ------------------------------------------------------


def _null_bitmap(column) -> bytes:
    bitmap = bytearray((len(column) + 7) // 8)
    for position, value in enumerate(column):
        if value is None:
            bitmap[position >> 3] |= 1 << (position & 7)
    return bytes(bitmap)


def _encode_int64(column) -> bytes:
    for value in column:
        if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
            raise _Fallback
    return struct.pack(f"<{len(column)}q", *column)


def _encode_float64(column) -> bytes:
    # ``struct`` would silently coerce ints to floats; strictness keeps
    # the round trip type-exact (an int payload falls back to pickle).
    for value in column:
        if type(value) is not float:
            raise _Fallback
    return struct.pack(f"<{len(column)}d", *column)


def _encode_string(column) -> bytes:
    for value in column:
        if type(value) is not str:
            raise _Fallback
    return _pack_blobs([value.encode("utf-8", "surrogatepass")
                        for value in column])


def _encode_date(column) -> bytes:
    # ``datetime.datetime`` is a ``date`` subclass whose time-of-day an
    # ordinal would silently drop — strict type identity is required.
    for value in column:
        if type(value) is not datetime.date:
            raise _Fallback
    return struct.pack(f"<{len(column)}i",
                       *[value.toordinal() for value in column])


def _encode_bool(column) -> bytes:
    for value in column:
        if type(value) is not bool:
            raise _Fallback
    return bytes(column)


_COLUMN_ENCODERS = {
    ColumnType.INT64: _encode_int64,
    ColumnType.FLOAT64: _encode_float64,
    ColumnType.DECIMAL: _encode_float64,
    ColumnType.STRING: _encode_string,
    ColumnType.DATE: _encode_date,
    ColumnType.BOOL: _encode_bool,
}

_DEFAULTS = {
    _TYPE_CODES[ColumnType.INT64]: 0,
    _TYPE_CODES[ColumnType.FLOAT64]: 0.0,
    _TYPE_CODES[ColumnType.DECIMAL]: 0.0,
    _TYPE_CODES[ColumnType.STRING]: "",
    _TYPE_CODES[ColumnType.DATE]: datetime.date.min,
    _TYPE_CODES[ColumnType.BOOL]: False,
}


# -- decoding ------------------------------------------------------------


@dataclass(frozen=True)
class ZoneMap:
    """The peekable summary a page's zone-map section carries."""

    row_count: int
    null_count: int
    min_key: bytes
    max_key: bytes


def read_zone_map(payload: bytes) -> ZoneMap | None:
    """Peek a page's zone map without decoding its body.

    Returns ``None`` for pages written without one (tuple-keyed or
    unkeyed pages, oversized boundary keys, zone maps off), so callers
    fall back to decoding.  Needs only the header and the zone-map
    section, so a prefix of the page suffices; raises
    :class:`SpillError` when that prefix is truncated or corrupted.
    """
    return _read_header(payload)[3]


def decode_page(payload: bytes) -> Page:
    """Reconstruct a page, with any stored keys attached.

    Raises:
        SpillError: on an unknown version byte or flags, a truncated
            section, or a corrupted payload.
    """
    return _decode(payload, None)[0]


def decode_page_skeleton(payload: bytes, file_id: int,
                         page_index: int) -> tuple[Page, int]:
    """Decode only the key section of a page that stores one.

    Returns ``(page, payload_bytes_not_decoded)``.  For a page with a key
    section the page's rows are ``(file_id, page_index, slot)`` skeleton
    references — the late-materialization stitch resolves them back to
    real rows via :meth:`~repro.storage.spill.SpillFile.read_page` — and
    the second element counts the payload bytes left undecoded.  Any
    other page decodes in full (second element 0), so skeleton reads
    degrade gracefully on mixed files.
    """
    return _decode(payload, (file_id, page_index))


def _read_header(payload) -> tuple[int, int, int, ZoneMap | None, int]:
    """Parse the fixed header and zone-map section.

    Returns ``(stated_size, row_count, flags, zone_map, offset)``, where
    ``offset`` is the first byte after the zone-map section.
    """
    if len(payload) < PAGE_HEADER.size:
        raise SpillError(
            f"spill page too short ({len(payload)} bytes): truncated or "
            f"corrupted")
    version, stated_size, row_count, flags = PAGE_HEADER.unpack_from(
        payload, 0)
    if version != PAGE_VERSION:
        raise SpillError(
            f"unknown spill page format version {version}; the file is "
            f"corrupted or written by an incompatible codec")
    if flags & ~_ALL_FLAGS:
        raise SpillError(f"unknown spill page section flags {flags:#04x}; "
                         f"the file is corrupted")
    offset = PAGE_HEADER.size
    zone_map = None
    if flags & FLAG_ZONE_MAP:
        try:
            (nulls,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            (low_len,) = _U16.unpack_from(payload, offset)
            offset += _U16.size
            low = bytes(payload[offset:offset + low_len])
            offset += low_len
            (high_len,) = _U16.unpack_from(payload, offset)
            offset += _U16.size
            high = bytes(payload[offset:offset + high_len])
            offset += high_len
        except struct.error as exc:
            raise SpillError(
                f"corrupted zone-map spill page header: {exc}") from exc
        if len(high) != high_len:
            raise SpillError(
                "corrupted zone-map spill page header: truncated max key")
        zone_map = ZoneMap(row_count, nulls, low, high)
    return stated_size, row_count, flags, zone_map, offset


def _decode(payload: bytes,
            skeleton: tuple[int, int] | None) -> tuple[Page, int]:
    stated_size, row_count, flags, _zone_map, offset = _read_header(payload)
    view = memoryview(payload)
    keys = None
    if flags & FLAG_KEYS:
        try:
            bounds, blob, offset = _read_blobs(view, offset, row_count)
        except (struct.error, ValueError) as exc:
            raise SpillError(
                f"corrupted key section in spill page: {exc}") from exc
        keys = [blob[bounds[i]:bounds[i + 1]] for i in range(row_count)]
    if skeleton is not None and keys is not None:
        file_id, page_index = skeleton
        rows = [(file_id, page_index, slot) for slot in range(row_count)]
        return (Page(rows=rows, byte_size=stated_size, keys=keys),
                len(payload) - offset)
    if flags & FLAG_PICKLED:
        try:
            rows = pickle.loads(view[offset:])
        except Exception as exc:  # corrupted spill file
            raise SpillError(f"cannot deserialize page: {exc}") from exc
        if len(rows) != row_count:
            raise SpillError(
                f"pickled page holds {len(rows)} rows, header states "
                f"{row_count}: corrupted spill page")
    else:
        try:
            rows = _decode_typed(view, offset, row_count)
        except SpillError:
            raise
        except Exception as exc:
            raise SpillError(
                f"corrupted typed spill page: {exc}") from exc
    return Page(rows=rows, byte_size=stated_size, keys=keys), 0


def _read_blobs(view, offset: int, count: int
                ) -> tuple[tuple[int, ...], bytes, int]:
    """Inverse of :func:`_pack_blobs`: ``(offsets, blob, end offset)``."""
    offsets = struct.unpack_from(f"<{count + 1}I", view, offset)
    offset += (count + 1) * _U32.size
    end = offset + offsets[-1]
    blob = bytes(view[offset:end])
    if len(blob) != offsets[-1]:
        raise ValueError("blob runs past the end of the page")
    return offsets, blob, end


def _decode_typed(view, offset: int, row_count: int) -> list[tuple]:
    (column_count,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    layout = []
    for _ in range(column_count):
        code, nullable = struct.unpack_from("<BB", view, offset)
        offset += 2
        if code not in _CODE_TYPES:
            raise SpillError(f"unknown column type code {code} in "
                             f"typed spill page")
        layout.append((code, bool(nullable)))
    columns: list[list] = []
    for code, nullable in layout:
        nulls: list[int] | None = None
        if nullable:
            width = (row_count + 7) // 8
            bitmap = view[offset:offset + width]
            offset += width
            nulls = [position for position in range(row_count)
                     if bitmap[position >> 3] >> (position & 7) & 1]
        column, offset = _DECODERS[code](view, offset, row_count)
        if nulls:
            for position in nulls:
                column[position] = None
        columns.append(column)
    if offset != len(view):
        raise SpillError(
            f"corrupted typed spill page: body holds {len(view)} bytes, "
            f"its columns {offset}")
    if column_count == 0:
        return [() for _ in range(row_count)]
    return list(zip(*columns))


def _decode_fixed(format_char: str, width: int, convert=None):
    def decode(view, offset: int, count: int):
        end = offset + width * count
        values = list(struct.unpack_from(f"<{count}{format_char}",
                                         view, offset))
        if convert is not None:
            values = [convert(value) for value in values]
        return values, end
    return decode


def _decode_string(view, offset: int, count: int):
    offsets, blob, end = _read_blobs(view, offset, count)
    text = blob.decode("utf-8", "surrogatepass")
    # Offsets index bytes, not code points: decode per-slice instead
    # when the blob is not pure ASCII.
    if len(text) == offsets[-1]:
        values = [text[offsets[i]:offsets[i + 1]] for i in range(count)]
    else:
        values = [blob[offsets[i]:offsets[i + 1]]
                  .decode("utf-8", "surrogatepass") for i in range(count)]
    return values, end


_DECODERS: dict[int, Any] = {
    _TYPE_CODES[ColumnType.INT64]: _decode_fixed("q", 8),
    _TYPE_CODES[ColumnType.FLOAT64]: _decode_fixed("d", 8),
    _TYPE_CODES[ColumnType.DECIMAL]: _decode_fixed("d", 8),
    _TYPE_CODES[ColumnType.STRING]: _decode_string,
    _TYPE_CODES[ColumnType.DATE]: _decode_fixed(
        "i", 4, datetime.date.fromordinal),
    _TYPE_CODES[ColumnType.BOOL]: _decode_fixed("B", 1, bool),
}
