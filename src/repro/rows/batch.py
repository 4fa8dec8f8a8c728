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

numpy is optional at this layer: without it (or for non-numeric key
columns) ``key_array`` returns ``None`` and callers fall back to the
row-at-a-time path, which is always correct.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Iterator, Sequence

try:  # numpy accelerates key extraction; the batch moves without it too.
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None

from repro.rows.schema import ColumnType, Schema

#: Default rows per batch.  Large enough to amortize per-batch Python
#: overhead to noise, small enough to stay cache- and latency-friendly.
DEFAULT_BATCH_ROWS = 4_096

#: Column types whose values can be extracted into a float64 key array.
_NUMERIC_TYPES = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DECIMAL)


class RowBatch:
    """A fixed-capacity chunk of rows with cached per-batch key columns.

    Args:
        schema: Schema shared by every row in the batch.
        rows: The row tuples (the batch takes ownership of the list).

    The batch is append-free: operators produce new batches rather than
    mutating existing ones, so a batch can be shared between consumers.
    Extracted key arrays are cached per column index — a filter and a
    cutoff test over the same column pay for one extraction.
    """

    __slots__ = ("schema", "rows", "_key_arrays")

    def __init__(self, schema: Schema, rows: list[tuple]):
        self.schema = schema
        self.rows = rows
        self._key_arrays: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"RowBatch({len(self.rows)} rows × {len(self.schema)} cols)"

    # -- key extraction ----------------------------------------------------

    def key_array(self, column_index: int):
        """The column at ``column_index`` as a float64 numpy array.

        Extracted once and cached for the batch's lifetime.  Returns
        ``None`` when numpy is unavailable, the column is not numeric,
        or a value (e.g. ``None`` in a nullable column) defeats the
        conversion — callers must then use the row-at-a-time path.
        """
        if column_index in self._key_arrays:
            return self._key_arrays[column_index]
        array = None
        if np is not None:
            column = self.schema.columns[column_index]
            if column.type in _NUMERIC_TYPES and not column.nullable:
                try:
                    array = np.fromiter(
                        map(operator.itemgetter(column_index), self.rows),
                        dtype=np.float64, count=len(self.rows))
                except (TypeError, ValueError):
                    array = None
        self._key_arrays[column_index] = array
        return array

    def keys(self, sort_key: Callable[[tuple], Any]) -> list[Any]:
        """Sort keys of every row via a generic extractor (one bulk map)."""
        return list(map(sort_key, self.rows))

    # -- derivations -------------------------------------------------------

    def filter(self, predicate: Callable[[tuple], bool]) -> "RowBatch":
        """A new batch holding the rows satisfying ``predicate``."""
        return RowBatch(self.schema,
                        [row for row in self.rows if predicate(row)])

    def take_mask(self, mask) -> "RowBatch":
        """A new batch holding the rows where ``mask`` is truthy.

        ``mask`` is a numpy boolean array or any per-row boolean sequence
        (the selection-mask form produced by vectorized comparisons).
        """
        if np is not None and isinstance(mask, np.ndarray):
            rows = self.rows
            return RowBatch(self.schema,
                            [rows[i] for i in np.flatnonzero(mask)])
        return RowBatch(self.schema,
                        [row for row, keep in zip(self.rows, mask) if keep])

    def map(self, transform: Callable[[tuple], tuple],
            schema: Schema) -> "RowBatch":
        """A new batch of ``transform``-ed rows under ``schema``."""
        return RowBatch(schema, [transform(row) for row in self.rows])


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
    if schema_column.type not in _NUMERIC_TYPES or schema_column.nullable:
        return None
    return sort_spec.schema.index_of(column.name), not column.ascending


def batches_from_rows(
    rows: Iterable[tuple],
    schema: Schema,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[RowBatch]:
    """Chunk a row iterable into :class:`RowBatch` es of ``batch_rows``.

    If the source raises, the rows it produced before failing are still
    delivered as a final short batch, then the error propagates — a
    consumer sees exactly the rows a row-at-a-time reader would have.
    """
    if isinstance(rows, (list, tuple)):
        # Sequence fast path: slicing beats accumulating row by row.
        for start in range(0, len(rows), batch_rows):
            yield RowBatch(schema, list(rows[start:start + batch_rows]))
        return
    iterator = iter(rows)
    while True:
        chunk: list[tuple] = []
        try:
            for row in iterator:
                chunk.append(row)
                if len(chunk) >= batch_rows:
                    break
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
