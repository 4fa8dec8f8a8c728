"""Order-preserving binary sort keys.

A :class:`~repro.rows.sortspec.SortSpec` normally compiles to a tuple
key: per-column values wrapped in ``(is_null, value)`` pairs and
:class:`~repro.rows.sortspec.Desc` objects.  Comparing two such keys
re-enters the interpreter once per column — ``Desc.__lt__``, tuple
dispatch, NULL-flag tests — on *every* heap or sort comparison.

This module compiles the same spec to an **order-preserving binary
encoding**: one ``bytes`` string per row such that plain ``bytes``
comparison (a single C ``memcmp``) realizes exactly the order the tuple
keys realize, including equality.  Because everything downstream — run
generation sorts, the cutoff filter, histogram buckets, page-index
bisection, merge ranking — only ever compares keys, substituting the
encoder for the tuple key changes *no* decision anywhere: outputs and
``rows_spilled`` stay byte-identical (the differential suite enforces
this).  The byte form is also what makes offset-value coding
(:mod:`repro.sorting.ovc`) possible at all.

The encoder itself is *generated code*: compilation emits one Python
function whose body concatenates inline per-column expressions, because
the encoder runs once per arriving row — on the paper's workloads that
is the single hottest call in the operator, and a generic
closure-per-column interpreter was measurably slower than tuple keys.
Descending order is folded into each column's arithmetic (complemented
bias for ints, XOR masks for floats) rather than applied as a separate
``translate`` pass over the ascending bytes.

Encoding per column type (ascending, non-null form):

===========  ===========================================================
INT64        8 bytes big-endian, biased: ``value + 2**63``.  Descending
             uses ``2**63 - 1 - value`` (the bitwise complement of the
             biased form).  Values outside the declared 64-bit range
             raise :class:`~repro.errors.KeyEncodingError` — the typed
             page codec already enforces the same bound at spill time.
FLOAT64 /    8 bytes big-endian from the IEEE-754 bit pattern with the
DECIMAL      usual total-order trick: negative values complement all 64
             bits, non-negative values flip the sign bit.  ``-0.0`` is
             canonicalized to ``0.0`` (tuple keys treat them equal);
             NaN maps to a canonical pattern above ``+inf``.
DATE         4 bytes big-endian proleptic-Gregorian ordinal.
BOOL         1 byte, ``0x00`` / ``0x01``.
STRING       UTF-8 (surrogatepass), each 0x00 byte escaped to
             ``00 FF``, terminated by ``00 00`` — preserves code-point
             order and keeps the encoding prefix-free.
===========  ===========================================================

A nullable column prepends a flag byte (``0x00`` value follows, ``0x01``
NULL) realizing NULLS LAST in either direction.  A descending column
complements the value bytes; the NULL flag byte is *not* complemented,
so NULLs stay last.  Every per-column encoding is prefix-free, hence two
distinct multi-column keys always differ at a byte index that exists in
both — the property offset-value codes rely on.

A value the column type cannot hold — an out-of-range int, a float,
string or ``None`` in an INT64 column, an inexact int in a float column
— raises :class:`~repro.errors.KeyEncodingError`.

**Batch form.**  :meth:`KeyCodec.encode_batch` encodes a list of rows
into the same keys as one ``encode`` call per row.  Non-nullable INT64,
FLOAT64 and DECIMAL columns are transformed together in numpy: each
column's values become 64-bit codes (the bias or the float flip, as
above), the codes fill one big-endian ``uint64`` matrix, and its rows
read back as ``bytes`` through a ``V`` view (an ``S`` view would strip
trailing zero bytes).  A STRING column encodes each distinct value of
the batch once.  Specs with a nullable, DATE or BOOL column, batches
holding a value of another type, and batches below
:data:`BATCH_MIN_ROWS` take the per-row encoder, so errors are the
per-row ones too.

``decode`` is unsupported **by design**: rows travel next to their keys
everywhere in this library, so a decoder would only invite drift between
two representations of the same ordering.  Only the leading column of a
key decodes, for the arrival prefilter: a numeric column's 8-byte prefix,
and a string column up to its terminator
(:func:`leading_value_decoder`).

Every column type has an encoder, so every spec compiles.  Whether a job
*uses* the encoding is decided in one place, :func:`binary_key_codec`.
"""

from __future__ import annotations

import datetime
import functools
import struct
from operator import add, itemgetter
from typing import Callable

import numpy as np

from repro.errors import KeyEncodingError
from repro.rows.schema import ColumnType, Schema
from repro.rows.sortspec import SortSpec

#: 256-byte table mapping each byte to its bitwise complement — the
#: descending transform for variable-length encodings (strings).
COMPLEMENT = bytes(255 - value for value in range(256))

_SIGN = 0x8000000000000000
_ALL64 = 0xFFFFFFFFFFFFFFFF
_PACK_D = struct.Struct(">d")
#: Canonical encoded NaN: quiet-NaN bits with the non-negative sign flip
#: applied — sorts after every real (and after ``+inf``), before NULL.
_NAN_BYTES = (0x7FF8000000000000 | _SIGN).to_bytes(8, "big")

_NULL_FLAG = b"\x01"
_VALUE_FLAG = b"\x00"

#: Batches shorter than this encode row by row: below it the numpy
#: calls' fixed cost exceeds what they save.  Break-even measured on a
#: 2-vCPU host: about 30 rows for two numeric columns, 40 for ``STRING
#: DESC, INT64, FLOAT64 DESC``, 130 for ``STRING, INT64``.
BATCH_MIN_ROWS = 64

# The batch encoder's numpy operands, all explicitly ``uint64`` so no
# integer-promotion rule decides a result type.
_U64_ZERO = np.uint64(0)
_U64_SIGN = np.uint64(_SIGN)
_U64_ALL = np.uint64(_ALL64)
_U64_LOW = np.uint64(_ALL64 ^ _SIGN)
#: The quiet-NaN bit pattern every NaN is canonicalized to.
_U64_NAN = np.uint64(0x7FF8000000000000)


def _coerce_float(value) -> float:
    """The slow path of the float encoders: non-``float`` values.

    The schema admits ``int`` in FLOAT64/DECIMAL columns; encode only
    when the float conversion is exact so ordering against true floats
    cannot drift (``2**53 + 1`` would compare wrong).
    """
    try:
        coerced = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise KeyEncodingError(
            f"cannot encode {value!r} as a float sort key") from exc
    if coerced != value:
        raise KeyEncodingError(
            f"{value!r} is not exactly representable as a float64 "
            f"sort key")
    return coerced


def _make_float_encoder(ascending: bool) -> Callable:
    """Direction-specialized float encoder (no post-hoc complement)."""
    if ascending:
        nan = _NAN_BYTES
        mask_negative, mask_positive = _ALL64, _SIGN
    else:
        nan = _NAN_BYTES.translate(COMPLEMENT)
        mask_negative, mask_positive = 0, _ALL64 ^ _SIGN

    def encode_float(value, _pack=_PACK_D.pack,
                     _from_bytes=int.from_bytes) -> bytes:
        if type(value) is not float:
            value = _coerce_float(value)
        if value != value:  # NaN: canonical pattern above every real
            return nan
        # ``value if value else 0.0`` collapses -0.0 (tuple keys treat
        # -0.0 and 0.0 as equal).
        bits = _from_bytes(_pack(value if value else 0.0), "big")
        return ((bits ^ mask_negative) if bits & _SIGN
                else (bits ^ mask_positive)).to_bytes(8, "big")

    return encode_float


def _make_string_encoder(ascending: bool) -> Callable:
    # ORDER BY strings are typically low-cardinality (tags, categories,
    # names), so the encoded form is memoized: repeats cost one dict
    # probe instead of an encode + escape scan (+ complement pass when
    # descending).  Bounded per compiled codec.
    @functools.lru_cache(maxsize=4096)
    def encode_string(value) -> bytes:
        if type(value) is not str:
            raise KeyEncodingError(
                f"cannot encode {value!r} as a string sort key")
        data = value.encode("utf-8", "surrogatepass")
        if b"\x00" in data:
            data = data.replace(b"\x00", b"\x00\xff")
        data += b"\x00\x00"
        return data if ascending else data.translate(COMPLEMENT)

    return encode_string


def _make_date_encoder(ascending: bool) -> Callable:
    def encode_date(value) -> bytes:
        # ``datetime.datetime`` subclasses ``date``; its time-of-day
        # would be silently dropped by the ordinal, so strict identity
        # is required — mixed date/datetime tuples do not compare
        # cleanly under tuple keys either.
        if type(value) is not datetime.date:
            raise KeyEncodingError(
                f"cannot encode {value!r} as a date sort key")
        ordinal = value.toordinal()
        if not ascending:
            ordinal = 0xFFFFFFFF - ordinal
        return ordinal.to_bytes(4, "big")

    return encode_date


def _make_bool_encoder(ascending: bool) -> Callable:
    first, second = (b"\x00", b"\x01") if ascending else (b"\x01", b"\x00")

    def encode_bool(value) -> bytes:
        if value is False:
            return first
        if value is True:
            return second
        raise KeyEncodingError(
            f"cannot encode {value!r} as a bool sort key")

    return encode_bool


#: Per-type inline expression templates for the generated encoder.
#: ``{v}`` is the row subscript; helpers land in the namespace as
#: ``e{i}``.  INT64 is pure arithmetic — biased for ascending,
#: complemented-bias for descending — and needs no helper at all.
_INT_ASC = "({v} + 9223372036854775808).to_bytes(8, 'big')"
_INT_DESC = "(9223372036854775807 - {v}).to_bytes(8, 'big')"

_HELPER_FACTORIES = {
    ColumnType.FLOAT64: _make_float_encoder,
    ColumnType.DECIMAL: _make_float_encoder,
    ColumnType.STRING: _make_string_encoder,
    ColumnType.DATE: _make_date_encoder,
    ColumnType.BOOL: _make_bool_encoder,
}


# -- the batch form --------------------------------------------------------
#
# Each column function takes one column's values and returns its codes,
# or ``None`` when a value is not of the types the per-row encoder
# handles the same way (the batch then goes row by row).

def _int_codes(values: list, ascending: bool):
    """INT64 values as biased ``uint64`` codes (complemented for DESC)."""
    if not set(map(type, values)) <= {int, bool}:
        return None
    try:
        array = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return None
    # ``value + 2**63`` is the sign bit flipped; its complement for DESC
    # flips the other 63 bits.
    return array.view(np.uint64) ^ (_U64_SIGN if ascending else _U64_LOW)


def _float_codes(values: list, ascending: bool):
    """FLOAT64/DECIMAL ``float`` values as flipped ``uint64`` codes."""
    if not set(map(type, values)) <= {float}:
        return None
    array = np.fromiter(values, dtype=np.float64, count=len(values))
    array += 0.0  # -0.0 becomes 0.0; every other value stays as it is
    bits = array.view(np.uint64)
    nan = np.isnan(array)
    if nan.any():
        bits[nan] = _U64_NAN
    negative = bits >= _U64_SIGN
    if ascending:
        return bits ^ np.where(negative, _U64_ALL, _U64_SIGN)
    return bits ^ np.where(negative, _U64_ZERO, _U64_LOW)


def _fixed_width_part(fields: list) -> Callable:
    """``rows -> keys part`` for consecutive numeric columns: one
    big-endian ``uint64`` matrix, one column per field, read back a row
    at a time."""
    view = f"V{8 * len(fields)}"

    def encode_part(rows: list) -> list[bytes] | None:
        matrix = np.empty((len(rows), len(fields)), dtype=">u8")
        for position, (index, codes_of, ascending) in enumerate(fields):
            codes = codes_of(list(map(itemgetter(index), rows)), ascending)
            if codes is None:
                return None
            matrix[:, position] = codes
        return matrix.view(view).ravel().tolist()

    return encode_part


def _string_part(index: int, encode_string: Callable) -> Callable:
    """``rows -> keys part`` for a STRING column: each distinct value of
    the batch is encoded once."""

    def encode_part(rows: list) -> list[bytes] | None:
        values = list(map(itemgetter(index), rows))
        if not set(map(type, values)) <= {str}:
            return None
        table = {value: encode_string(value) for value in set(values)}
        return list(map(table.__getitem__, values))

    return encode_part


def _batch_parts(schema: Schema, columns, helpers: dict) -> list | None:
    """The batch form's per-column parts, or ``None`` when a column
    needs the per-row encoder.  Runs of numeric columns share one
    matrix; a string column reuses the per-row encoder's memoized
    helper (``helpers``), so both forms share its cache."""
    parts: list = []
    fixed: list = []
    for position, column in enumerate(columns):
        index = schema.index_of(column.name)
        schema_column = schema.columns[index]
        ctype = schema_column.type
        if schema_column.nullable or ctype in (ColumnType.DATE,
                                               ColumnType.BOOL):
            return None
        if ctype is ColumnType.STRING:
            if fixed:
                parts.append(_fixed_width_part(fixed))
                fixed = []
            parts.append(_string_part(index, helpers[f"e{position}"]))
        else:
            fixed.append((index, _int_codes if ctype is ColumnType.INT64
                          else _float_codes, column.ascending))
    if fixed:
        parts.append(_fixed_width_part(fixed))
    return parts


def _make_batch_encoder(parts: list | None,
                        encode: Callable[[tuple], bytes]) -> Callable:
    """``rows -> keys`` equal to ``list(map(encode, rows))``, built from
    per-column ``parts`` (``None``: the spec has a column only the
    per-row encoder handles)."""

    def encode_batch(rows: list) -> list[bytes]:
        if parts is None or len(rows) < BATCH_MIN_ROWS:
            return list(map(encode, rows))
        pieces = []
        for part in parts:
            piece = part(rows)
            if piece is None:
                return list(map(encode, rows))
            pieces.append(piece)
        if len(pieces) == 1:
            return pieces[0]
        if len(pieces) == 2:
            return list(map(add, *pieces))
        return list(map(b"".join, zip(*pieces)))

    return encode_batch


class KeyCodec:
    """A compiled order-preserving key encoder for one sort spec.

    Attributes:
        columns: The spec's sort columns (for display).
        preferred: Whether jobs on this spec run on binary keys + the
            OVC loser tree: ``True`` unless the tuple key is already a
            bare primitive (single non-nullable column, ascending or
            descending-numeric), whose C-level comparisons the encoding
            cannot beat — and which the vectorized batch paths rely on.
        encode: ``row -> bytes``; keys compare with plain ``<``.
        encode_batch: ``rows -> list[bytes]``, equal element for element
            to ``list(map(encode, rows))`` and raising the same errors,
            at a fraction of the per-row cost on numeric and string
            columns (see the module docstring).
    """

    __slots__ = ("columns", "preferred", "encode", "encode_batch")

    def __init__(self, columns, preferred: bool,
                 encode: Callable[[tuple], bytes],
                 encode_batch: Callable[[list], list[bytes]]):
        self.columns = columns
        self.preferred = preferred
        self.encode = encode
        self.encode_batch = encode_batch

    def decode(self, key: bytes) -> tuple:
        """Unsupported by design — see the module docstring."""
        raise NotImplementedError(
            "whole binary sort keys are one-way by design; only the "
            "leading column decodes (leading_value_decoder)")

    def __repr__(self) -> str:
        clause = ", ".join(str(column) for column in self.columns)
        return f"KeyCodec({clause})"


@functools.lru_cache(maxsize=256)
def _compile(schema: Schema, columns) -> KeyCodec:
    expressions: list[str] = []
    namespace: dict = {"KeyEncodingError": KeyEncodingError}
    for position, column in enumerate(columns):
        index = schema.index_of(column.name)
        schema_column = schema.columns[index]
        ctype = schema_column.type
        subscript = f"row[{index}]"
        if ctype is ColumnType.INT64:
            template = _INT_ASC if column.ascending else _INT_DESC
            expression = template.format(v=subscript)
        else:
            helper = f"e{position}"
            namespace[helper] = _HELPER_FACTORIES[ctype](column.ascending)
            expression = f"{helper}({subscript})"
        if schema_column.nullable:
            expression = (f"(NULL_FLAG if {subscript} is None "
                          f"else VALUE_FLAG + {expression})")
            namespace["NULL_FLAG"] = _NULL_FLAG
            namespace["VALUE_FLAG"] = _VALUE_FLAG
        expressions.append(expression)

    # One generated function, one expression: per-row cost is the
    # column arithmetic plus a single bytes concatenation — no closure
    # dispatch, no join over a generator.  OverflowError can only come
    # from an out-of-range INT64; TypeError and AttributeError from an
    # INT64 column holding a float (which has no ``to_bytes``), a
    # string or ``None``, or from an unhashable string-column value.
    # The float/date/bool helpers raise KeyEncodingError themselves.
    source = (
        "def encode(row):\n"
        "    try:\n"
        f"        return {' + '.join(expressions)}\n"
        "    except OverflowError as exc:\n"
        "        raise KeyEncodingError(\n"
        "            f'integer out of int64 range for binary sort "
        "keys: {row!r}') from exc\n"
        "    except (TypeError, AttributeError) as exc:\n"
        "        raise KeyEncodingError(\n"
        "            f'a value of {row!r} does not fit its sort column "
        "type: {exc}') from exc\n"
    )
    exec(compile(source, "<keycodec>", "exec"), namespace)
    encode = namespace["encode"]

    first = schema.columns[schema.index_of(columns[0].name)]
    numeric = first.type in (ColumnType.INT64, ColumnType.FLOAT64,
                             ColumnType.DECIMAL)
    primitive_tuple_key = (
        len(columns) == 1 and not first.nullable
        and (columns[0].ascending or numeric))
    parts = _batch_parts(schema, columns, namespace)
    return KeyCodec(columns, preferred=not primitive_tuple_key,
                    encode=encode,
                    encode_batch=_make_batch_encoder(parts, encode))


def leading_value_decoder(spec: SortSpec) -> Callable[[bytes], object]:
    """``key -> value`` of ``spec``'s leading column from a binary key,
    for a non-nullable INT64, FLOAT64, DECIMAL or STRING column (not
    negated for DESC).

    A numeric value comes from the key's first 8 bytes; a shorter key (a
    hand-made seed) is zero-padded, and a key whose prefix reads greater
    still sorts above it.  A string is read up to its ``00 00``
    terminator (complemented first for DESC, each ``00 FF`` back to a
    NUL); a key cut before its terminator, or holding bytes no encoded
    string produces, decodes to ``None``.
    """
    column = spec.columns[0]
    ctype = spec.schema.column(column.name).type
    if ctype is ColumnType.STRING:
        return _string_prefix_decoder(column.ascending)
    flip = 0 if column.ascending else _ALL64
    integer = ctype is ColumnType.INT64

    def decode(key: bytes) -> float:
        bits = int.from_bytes(key[:8].ljust(8, b"\0"), "big") ^ flip
        if integer:
            return bits - _SIGN
        bits ^= _SIGN if bits & _SIGN else _ALL64
        return _PACK_D.unpack(bits.to_bytes(8, "big"))[0]

    return decode


def _string_prefix_decoder(ascending: bool) -> Callable[[bytes], str | None]:
    def decode(key: bytes) -> str | None:
        if not ascending:
            key = key.translate(COMPLEMENT)
        # An escaped NUL is ``00 FF``, so the first ``00 00`` ends the
        # string; any other ``00`` before it is no encoding's.
        end = key.find(b"\x00\x00")
        if end < 0:
            return None
        body = key[:end]
        if body.count(b"\x00") != body.count(b"\x00\xff"):
            return None
        try:
            return body.replace(b"\x00\xff", b"\x00").decode(
                "utf-8", "surrogatepass")
        except UnicodeDecodeError:
            return None

    return decode


def compile_keycodec(spec: SortSpec) -> KeyCodec:
    """Compile ``spec`` to a :class:`KeyCodec`.

    Compilation is memoized on ``(schema, columns)``, so repeated plan
    construction reuses the same generated encoder.
    """
    return _compile(spec.schema, spec.columns)


def binary_key_codec(sort_key) -> KeyCodec | None:
    """The comparison substrate of a job sorting by ``sort_key``.

    A :class:`~repro.rows.sortspec.SortSpec` whose codec is
    :attr:`~KeyCodec.preferred` runs on binary keys + the OVC loser
    tree: the codec is returned.  Bare-primitive specs and plain
    callable keys run on tuple keys + the heap merge: ``None``.
    """
    if not isinstance(sort_key, SortSpec):
        return None
    codec = compile_keycodec(sort_key)
    return codec if codec.preferred else None
