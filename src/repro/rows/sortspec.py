"""Sort specifications and key extraction.

Every sorting and top-k component in this library works on *normalized sort
keys*: values extracted from a row such that ordinary ``<`` comparison of
keys realizes the requested ``ORDER BY`` order, ascending.  "Top k" always
means the first k rows in that order.

Descending columns are supported for any comparable type through the
:class:`Desc` wrapper, which inverts comparisons.  Numeric descending columns
use negation instead, which is cheaper and keeps keys hashable primitives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, SchemaError
from repro.rows.schema import ColumnType, Schema


@functools.total_ordering
class Desc:
    """Wrap a value so that comparisons are inverted.

    Used to express descending order on non-numeric columns:
    ``Desc("b") < Desc("a")`` is true.  Equal payloads compare equal.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Desc) and self.value == other.value

    def __lt__(self, other: "Desc") -> bool:
        if not isinstance(other, Desc):
            return NotImplemented
        return other.value < self.value

    def __hash__(self) -> int:
        return hash(("Desc", self.value))

    def __repr__(self) -> str:
        return f"Desc({self.value!r})"


@dataclass(frozen=True)
class SortColumn:
    """One component of an ``ORDER BY`` clause."""

    name: str
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.name} {'ASC' if self.ascending else 'DESC'}"


class SortSpec:
    """A compiled ``ORDER BY`` clause bound to a schema.

    The central product is :meth:`key`, a callable extracting the normalized
    sort key from a row.  Keys from the same spec are mutually comparable
    with ``<`` / ``<=`` and order rows exactly as the clause requests.

    Args:
        schema: Schema the rows conform to.
        columns: Ordered sort columns.  Plain strings mean ascending.

    Raises:
        ConfigurationError: if no sort columns are given.
        SchemaError: if a sort column is not in the schema.
    """

    def __init__(self, schema: Schema,
                 columns: Sequence[SortColumn | str]):
        normalized: list[SortColumn] = []
        for column in columns:
            if isinstance(column, str):
                normalized.append(SortColumn(column))
            else:
                normalized.append(column)
        if not normalized:
            raise ConfigurationError("a sort spec needs at least one column")
        for column in normalized:
            if column.name not in schema:
                raise SchemaError(f"unknown sort column {column.name!r}")
        self.schema = schema
        self.columns = tuple(normalized)
        # Key compilation is memoized across instances: specs are
        # routinely re-built per query from the same (schema, columns),
        # e.g. by the planner and the query service, and both inputs are
        # hashable, so equal specs share one compiled closure.
        self.key = _compile_key(schema, self.columns)
        self._comparator: Callable[
            [Sequence[Any], Sequence[Any]], int] | None = None

    def _compile(self) -> Callable[[Sequence[Any]], Any]:
        """Build the key-extraction callable (see :func:`_compile_key`)."""
        return _compile_key(self.schema, self.columns)

    @property
    def is_single_ascending(self) -> bool:
        """True when the spec is a single ascending column (fast paths)."""
        return len(self.columns) == 1 and self.columns[0].ascending

    def comparator(self) -> Callable[[Sequence[Any], Sequence[Any]], int]:
        """Return a three-way comparator over rows (for tests and tools).

        The comparator closes over the already-compiled :attr:`key` and
        is itself built once per spec — repeated calls return the same
        callable instead of allocating a fresh closure each time.
        """
        if self._comparator is None:
            key = self.key

            def compare(left: Sequence[Any],
                        right: Sequence[Any]) -> int:
                lk, rk = key(left), key(right)
                if lk < rk:
                    return -1
                if rk < lk:
                    return 1
                return 0

            self._comparator = compare
        return self._comparator

    def __repr__(self) -> str:
        clause = ", ".join(str(c) for c in self.columns)
        return f"SortSpec({clause})"


@functools.lru_cache(maxsize=256)
def _compile_key(schema: Schema, columns: tuple[SortColumn, ...]
                 ) -> Callable[[Sequence[Any]], Any]:
    """Build (and memoize) the key-extraction callable for a clause.

    Nullable columns get null-safe keys with SQL-style NULLS LAST
    semantics: a ``(is_null, value)`` pair whose flag decides the
    comparison whenever a NULL is involved, so NULLs sort after all
    values in either direction.
    """
    parts: list[Callable[[Sequence[Any]], Any]] = []
    for column in columns:
        index = schema.index_of(column.name)
        schema_column = schema.columns[index]
        ctype = schema_column.type
        numeric = ctype in (ColumnType.INT64, ColumnType.FLOAT64,
                            ColumnType.DECIMAL)
        nullable = schema_column.nullable
        if column.ascending:
            if nullable:
                parts.append(lambda row, i=index:
                             (True, 0) if row[i] is None
                             else (False, row[i]))
            else:
                parts.append(lambda row, i=index: row[i])
        elif numeric:
            if nullable:
                parts.append(lambda row, i=index:
                             (True, 0) if row[i] is None
                             else (False, -row[i]))
            else:
                parts.append(lambda row, i=index: -row[i])
        else:
            if nullable:
                parts.append(lambda row, i=index:
                             (True, Desc(None)) if row[i] is None
                             else (False, Desc(row[i])))
            else:
                parts.append(lambda row, i=index: Desc(row[i]))

    if len(parts) == 1:
        return parts[0]
    compiled = tuple(parts)
    return lambda row: tuple(part(row) for part in compiled)


def key_value_decoder(spec: SortSpec) -> Callable[[Any], Any] | None:
    """Decoder from normalized single-column sort keys to column values.

    The inverse of :func:`_compile_key` for the specs that sort on tuple
    keys — ascending keys are raw values, descending numerics are
    negated.  ``None`` for every other spec (multi-column, nullable, or
    descending non-numeric): those run on order-preserving byte keys
    (:func:`~repro.sorting.keycodec.binary_key_codec`), which do not
    decode.  Consumers: run-histogram harvesting and cutoff-seed
    validation, which need bucket boundaries / seed keys back in column
    value space to meet a statistics histogram.
    """
    if len(spec.columns) != 1:
        return None
    column = spec.columns[0]
    schema_column = spec.schema.column(column.name)
    if schema_column.nullable:
        return None
    if column.ascending:
        return lambda key: key
    if schema_column.type in (ColumnType.INT64, ColumnType.FLOAT64,
                              ColumnType.DECIMAL):
        return lambda key: -key
    return None


def sort_spec(schema: Schema, *columns: SortColumn | str) -> SortSpec:
    """Convenience constructor: ``sort_spec(schema, "a", SortColumn("b", False))``."""
    return SortSpec(schema, columns)
