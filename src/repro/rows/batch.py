"""Batch-at-a-time row movement: the :class:`RowBatch` unit.

The Volcano engine originally moved one Python tuple per iterator step,
paying interpreter overhead for every surviving row.  A :class:`RowBatch`
is the amortization unit that fixes this: a bounded chunk of rows sharing
one schema reference, with the sort-key column extractable **once per
batch** as a numpy array so that filters and cutoff tests become single
vectorized comparisons (MonetDB/X100-style execution).

Operators exchange batches via ``Operator.batches()``; the historical
``rows()`` API remains available everywhere as a thin flattening adapter
(see :mod:`repro.engine.operators`), so row-at-a-time callers keep
working unchanged.

A batch sliced from a registered table's row list carries that table
and its start row, and ``key_array`` serves a slice of the table's
cached key column (:meth:`~repro.engine.operators.Table.key_column`)
instead of converting its own rows; derived batches convert their own.

A consumer that knows its survivors by position gathers them with
``take(positions)`` instead of reading ``rows``.  On a plain batch the
two are the same list indexing.  A :class:`JoinedBatch` (the hash join's
flat probe output) holds its matched probe rows (the probe batch itself
when all of them matched) and their build rows, and defers its output:
``len()`` and a probe-side ``key_array`` come from the probe rows,
``take`` concatenates only the rows it returns, and the first read of
``rows`` builds them all (and keeps them).  A top-k that drops most join rows on arrival therefore
builds only the rows it keeps.

numpy is optional at this layer: without it (or for non-numeric key
columns) ``key_array`` returns ``None`` and callers fall back to the
row-at-a-time path, which is always correct.
"""

from __future__ import annotations

import itertools
import operator
import struct
from typing import Any, Callable, Iterable, Iterator, Sequence

try:  # numpy accelerates key extraction; the batch moves without it too.
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None

from repro.rows.schema import ColumnType, Schema

#: Default rows per batch.  Large enough to amortize per-batch Python
#: overhead to noise, small enough to stay cache- and latency-friendly.
DEFAULT_BATCH_ROWS = 4_096

#: The numeric column types: their values extract into a float64 key
#: array, and they are the only types SUM and AVG accept.
NUMERIC_TYPES = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL)

#: Text ``float()`` and numpy parse, which is still not a number.
_TEXT_TYPES = (str, bytes, bytearray)


def float_key(value: Any) -> float:
    """``value`` as a float key, by the rule of :func:`numeric_key_array`.

    Text raises ``TypeError`` even when it spells a number (``'0.5'``),
    a value ``float`` rejects raises its ``TypeError`` or
    ``ValueError``, and an int beyond float64's range raises
    ``OverflowError``.
    """
    if isinstance(value, _TEXT_TYPES):
        raise TypeError(f"{type(value).__name__} {value!r} is not a number")
    return float(value)


def float64_array(values: Sequence[Any]):
    """``values`` as one float64 array, or ``None`` when one of them does
    not convert by :func:`float_key`, or without numpy.

    The array is read-only (a view of ``bytes``): a table's cached key
    column, which every query's batches share, relies on it.
    """
    if np is None:
        return None
    try:
        # ``struct`` converts exactly what ``float()`` converts, except
        # text, which numpy would parse.
        packed = struct.pack(f"{len(values)}d", *values)
    except struct.error:
        return None
    return np.frombuffer(packed, dtype=np.float64)


def numeric_key_array(schema: Schema, rows: Sequence[tuple],
                      column_index: int):
    """``rows``' column at ``column_index`` as one float64 array, or ``None``.

    The one conversion rule for key columns: the column must be a
    non-nullable INT64, FLOAT64 or DECIMAL column, and every value must
    convert by :func:`float_key` (text, even ``'0.5'``, or an int beyond
    float64's range gives ``None``).  Returns ``None`` without numpy.
    """
    column = schema.columns[column_index]
    if column.type not in NUMERIC_TYPES or column.nullable:
        return None
    return float64_array(list(map(operator.itemgetter(column_index), rows)))


class RowBatch:
    """A fixed-capacity chunk of rows with cached per-batch key columns.

    Args:
        schema: Schema shared by every row in the batch.
        rows: The row tuples (the batch takes ownership of the list).
        table: The registered table whose row list the batch was sliced
            from, or ``None`` for a derived batch.
        start: The index of the batch's first row in ``table``'s rows.

    The batch is append-free: operators produce new batches rather than
    mutating existing ones, so a batch can be shared between consumers.
    Extracted key arrays are cached per column index — a filter and a
    cutoff test over the same column pay for one extraction.
    """

    __slots__ = ("schema", "rows", "_key_arrays", "table", "start")

    def __init__(self, schema: Schema, rows: list[tuple],
                 table: Any = None, start: int = 0):
        self.schema = schema
        self.rows = rows
        self._key_arrays: dict[int, Any] = {}
        self.table = table
        self.start = start

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self)} rows × "
                f"{len(self.schema)} cols)")

    def take(self, positions: Sequence[int]) -> list[tuple]:
        """The rows at ``positions`` (a ``range``, a list or a numpy int
        array), in that order; equal to indexing :attr:`rows`.

        The whole batch in order is :attr:`rows` itself, shared, not
        copied: treat the result as read-only.
        """
        rows = self.rows
        if isinstance(positions, range) and positions.step == 1:
            if positions.start == 0 and positions.stop == len(rows):
                return rows
            return rows[positions.start:positions.stop]
        if np is not None and isinstance(positions, np.ndarray):
            positions = positions.tolist()
        return list(map(rows.__getitem__, positions))

    # -- key extraction ----------------------------------------------------

    def key_array(self, column_index: int, cache: bool = True):
        """The column at ``column_index`` as a float64 numpy array.

        A batch sliced from a table returns its rows' slice of the
        table's cached column (a view, no copy) whenever the table
        serves one; any other batch converts its own rows by
        :func:`numeric_key_array`, once and, unless ``cache`` is false,
        cached for the batch's lifetime.  Returns ``None`` when numpy is
        unavailable, the column is not numeric, or a value (e.g.
        ``None`` in a nullable column, or an int beyond float64's range)
        defeats the conversion — callers must then use the row-at-a-time
        path.
        """
        if column_index in self._key_arrays:
            return self._key_arrays[column_index]
        array = None
        if self.table is not None:
            column = self.table.key_column(column_index)
            if column is not None:
                array = column[self.start:self.start + len(self.rows)]
        # A slice comes up short when the list shrank after slicing.
        if array is None or len(array) != len(self.rows):
            array = numeric_key_array(self.schema, self.rows, column_index)
        if cache:
            self._key_arrays[column_index] = array
        return array

    # -- derivations -------------------------------------------------------

    def filter(self, predicate: Callable[[tuple], bool]) -> "RowBatch":
        """A new batch holding the rows satisfying ``predicate``."""
        return RowBatch(self.schema,
                        [row for row in self.rows if predicate(row)])

    def take_mask(self, mask) -> "RowBatch":
        """A new batch holding the rows where ``mask`` is truthy, gathered
        by :meth:`take`.

        ``mask`` is a numpy boolean array or any per-row boolean sequence
        (the selection-mask form produced by vectorized comparisons).
        """
        if np is not None and isinstance(mask, np.ndarray):
            positions = np.flatnonzero(mask)
        else:
            positions = list(itertools.compress(range(len(self)), mask))
        return RowBatch(self.schema, self.take(positions))

    def map(self, transform: Callable[[tuple], tuple],
            schema: Schema) -> "RowBatch":
        """A new batch of ``transform``-ed rows under ``schema``."""
        return RowBatch(schema, [transform(row) for row in self.rows])


class JoinedBatch(RowBatch):
    """Join output rows ``probe row + build row`` that are built on demand.

    Args:
        schema: The join's output schema: the probe batch's columns,
            then the build side's.
        probe: The matched probe rows, as a batch: the probe batch
            itself when every row matched, else a batch of the rows
            that did.
        matches: Each probe row's build row.
        on_build: Called with the number of rows each build concatenates
            (the join's ``rows_built``), or ``None``.

    ``len()`` is the match count.  ``key_array`` of a probe column is the
    probe batch's (a table scan's probe serves a view of the table's
    column), and it equals :func:`numeric_key_array` over :attr:`rows`.
    :meth:`take` builds only the rows it returns; the first read of
    :attr:`rows` builds all of them and keeps them.
    """

    __slots__ = ("probe", "matches", "on_build", "_built")

    def __init__(self, schema: Schema, probe: RowBatch,
                 matches: list[tuple],
                 on_build: Callable[[int], None] | None = None):
        self.schema = schema
        self._key_arrays: dict[int, Any] = {}
        self.table = None
        self.start = 0
        self.probe = probe
        self.matches = matches
        self.on_build = on_build
        self._built: list[tuple] | None = None

    @property
    def rows(self) -> list[tuple]:  # type: ignore[override]
        if self._built is None:
            self._built = self._joined(self.probe.rows, self.matches)
        return self._built

    def __len__(self) -> int:
        return len(self.matches)

    def take(self, positions: Sequence[int]) -> list[tuple]:
        if self._built is not None or (isinstance(positions, range)
                                       and positions == range(len(self))):
            return RowBatch.take(self, positions)  # gathers from ``rows``
        if np is not None and isinstance(positions, np.ndarray):
            positions = positions.tolist()
        return self._joined(self.probe.take(positions),
                            list(map(self.matches.__getitem__, positions)))

    def _joined(self, left: list[tuple],
                right: list[tuple]) -> list[tuple]:
        """Each row of ``left`` concatenated with its row of ``right``."""
        rows = list(map(operator.add, left, right))
        if self.on_build is not None:
            self.on_build(len(rows))
        return rows

    def key_array(self, column_index: int, cache: bool = True):
        if column_index in self._key_arrays:
            return self._key_arrays[column_index]
        if column_index < len(self.probe.schema):
            array = self.probe.key_array(column_index, cache)
        else:
            # A build-side column: convert the built rows.
            array = numeric_key_array(self.schema, self.rows, column_index)
        if cache:
            self._key_arrays[column_index] = array
        return array


def numeric_key_column(sort_spec) -> tuple[int, bool] | None:
    """``(column_index, negate)`` when ``sort_spec`` vectorizes, else ``None``.

    A sort spec vectorizes when it is a single, non-nullable numeric
    column — then a batch's key column can be extracted as one float64
    array and compared in bulk.  ``negate`` mirrors
    :class:`~repro.rows.sortspec.SortSpec`'s numeric-descending
    normalization: callers negate the array so plain ``<`` realizes the
    requested order, exactly like the compiled row key.
    """
    if np is None or len(sort_spec.columns) != 1:
        return None
    column = sort_spec.columns[0]
    schema_column = sort_spec.schema.column(column.name)
    if schema_column.type not in NUMERIC_TYPES or schema_column.nullable:
        return None
    return sort_spec.schema.index_of(column.name), not column.ascending


def batches_from_rows(
    rows: Iterable[tuple],
    schema: Schema,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    table: Any = None,
) -> Iterator[RowBatch]:
    """Chunk a row iterable into :class:`RowBatch` es of ``batch_rows``.

    If the source raises, the rows it produced before failing are still
    delivered as a final short batch, then the error propagates — a
    consumer sees exactly the rows a row-at-a-time reader would have.
    ``table``, when ``rows`` is that table's list or tuple of rows, tags
    each batch with it and the batch's start row.
    """
    if isinstance(rows, (list, tuple)):
        # Sequence fast path: slicing beats accumulating row by row.  A
        # list's slice is already a new list for the batch to own.
        for start in range(0, len(rows), batch_rows):
            chunk = rows[start:start + batch_rows]
            yield RowBatch(schema, chunk if isinstance(chunk, list)
                           else list(chunk), table, start)
        return
    iterator = iter(rows)
    while True:
        chunk: list[tuple] = []
        try:
            # ``extend`` keeps the rows it took before a failing source
            # raised.
            chunk.extend(itertools.islice(iterator, batch_rows))
        except Exception:
            if chunk:
                yield RowBatch(schema, chunk)
            raise
        if not chunk:
            return
        yield RowBatch(schema, chunk)


def flatten(batches: Iterable[RowBatch]) -> Iterator[tuple]:
    """Row-at-a-time adapter over a batch stream (the ``rows()`` shim)."""
    for batch in batches:
        yield from batch.rows
