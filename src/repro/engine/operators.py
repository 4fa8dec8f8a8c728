"""Physical operators: a batch-at-a-time pipeline with a row-level shim.

A deliberately small engine — just enough to run the paper's evaluation
query (``SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT k``) and
realistic variations end to end: scan → filter → top-k/sort → project →
limit.

Execution is batch-at-a-time (MonetDB/X100 style): operators exchange
:class:`~repro.rows.batch.RowBatch` chunks via ``batches()``, so
per-element Python overhead is paid once per batch instead of once per
row, and batch consumers (the histogram top-k's vectorized admission
filter, :class:`VectorizedTopK`) can test a whole key column at once.
The historical Volcano surface survives unchanged: every operator also
exposes ``rows()``, which for batch-native operators is a thin
flattening adapter over ``batches()``, and for row-native operators is
the implementation that the default ``batches()`` chunks.  Either API
can be called on any operator; both yield identical row sequences.

Every operator also exposes its output ``schema`` and ``explain()`` for
plan display.
"""

from __future__ import annotations

import functools
import heapq
import threading
from itertools import compress, repeat
from math import inf
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.baselines.optimized_topk import OptimizedMergeSortTopK
from repro.baselines.priority_queue_topk import PriorityQueueTopK
from repro.baselines.traditional_topk import TraditionalMergeSortTopK
from repro.core.cutoff import _ReverseKey
from repro.core.topk import HistogramTopK
from repro.errors import ConfigurationError, KeyEncodingError, PlanError
from repro.obs.trace import NULL_TRACER
from repro.rows.batch import (
    DEFAULT_BATCH_ROWS,
    NUMERIC_TYPES,
    JoinedBatch,
    RowBatch,
    batches_from_rows,
    flatten,
    float_key,
    numeric_key_array,
    numeric_key_column,
)
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortSpec
from repro.sorting.external_sort import StreamingSorter
from repro.sorting.keycodec import binary_key_codec, compile_keycodec
from repro.sorting.merge import Merger
from repro.sorting.runs import RunWriter
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats

try:  # numpy backs the vectorized lowering; the engine runs without it.
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None


class Table:
    """A named, registered input table.

    Args:
        name: Table name used in SQL.
        schema: Row schema.
        source: A list of rows, or a zero-argument callable returning a
            fresh row iterator (for large/streaming inputs).
        row_count: Optional row-count estimate for planning/reporting.
        sorted_by: Optional physical sort order of the stored rows
            (ascending column names).  The planner exploits a shared
            prefix with a query's ORDER BY clause (Section 4.2): a fully
            covered ORDER BY becomes a plain scan+limit; a shared prefix
            enables segmented execution.
        version: Monotonic content version.  The session bumps it when a
            table is re-registered under the same name; caches key on
            ``(name, version)`` so entries for replaced data never serve.

    A list or tuple source is this version's content: the table caches
    the numeric key columns queries read from it (:meth:`key_column`),
    and change the rows only by registering them again.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        source: Sequence[tuple] | Callable[[], Iterable[tuple]],
        row_count: int | None = None,
        sorted_by: Sequence[str] | None = None,
        version: int = 0,
    ):
        self.name = name
        self.schema = schema
        self._source = source
        self.version = version
        self.sorted_by = tuple(sorted_by) if sorted_by else ()
        for column in self.sorted_by:
            schema.index_of(column)  # validates the declaration
        if row_count is not None:
            self.row_count = row_count
        elif hasattr(source, "__len__"):
            self.row_count = len(source)  # type: ignore[arg-type]
        else:
            self.row_count = None
        #: Column index -> (row count it was built at, array or None).
        self._key_columns: dict[int, tuple[int, Any]] = {}
        self._key_columns_lock = threading.Lock()

    def rows(self) -> Iterator[tuple]:
        """A fresh iterator over the table's rows.

        Callable (streaming) sources start with ``row_count = None``;
        the count is learned the first time it becomes observable —
        immediately when the callable returns a sized container, or on
        the first full scan otherwise — so the planner and admission
        control stop flying blind after one pass.
        """
        if callable(self._source):
            produced = self._source()
            if self.row_count is None and hasattr(produced, "__len__"):
                self.row_count = len(produced)
            if self.row_count is None:
                return self._counting(iter(produced))
            return iter(produced)
        return iter(self._source)

    def _counting(self, iterator: Iterator[tuple]) -> Iterator[tuple]:
        count = 0
        for row in iterator:
            count += 1
            yield row
        self.row_count = count

    def batches(self,
                batch_rows: int = DEFAULT_BATCH_ROWS) -> Iterator[RowBatch]:
        """A fresh batch iterator over the table's rows.

        Sequence sources are chunked by slicing (no per-row Python
        work), and a list or tuple's batches carry the table, so their
        key arrays are slices of :meth:`key_column`; callable sources
        stream through :meth:`rows`, so they get the same row-count
        learning.
        """
        if callable(self._source):
            return batches_from_rows(self.rows(), self.schema, batch_rows)
        return batches_from_rows(self._source, self.schema, batch_rows,
                                 table=self)

    def key_column(self, column_index: int):
        """The whole column at ``column_index`` as one read-only float64
        array, which every query's batches share.

        Built by :func:`~repro.rows.batch.numeric_key_array` on first
        request and kept while the table lives (8 bytes a row), and
        rebuilt if the row list's length has changed.  ``None`` for a
        callable source, a column that is nullable or not numeric, or a
        column holding any value the conversion rejects; batches then
        convert their own rows.
        """
        rows = self._source
        if not isinstance(rows, (list, tuple)):
            return None
        with self._key_columns_lock:
            built = self._key_columns.get(column_index)
            if built is None or built[0] != len(rows):
                built = (len(rows), numeric_key_array(self.schema, rows,
                                                      column_index))
                self._key_columns[column_index] = built
        return built[1]


class Operator:
    """Base class for physical operators.

    Subclasses implement whichever of ``rows()`` / ``batches()`` is
    natural for them and inherit the other: the base ``batches()``
    chunks ``rows()``, and batch-native operators define ``rows()`` as
    ``flatten(self.batches())``.
    """

    schema: Schema
    #: Rows per exchanged batch (uniform across the pipeline).
    batch_rows: int = DEFAULT_BATCH_ROWS

    def rows(self) -> Iterator[tuple]:
        """Return a fresh iterator over the operator's output."""
        raise NotImplementedError

    def batches(self) -> Iterator[RowBatch]:
        """Return a fresh batch iterator over the operator's output.

        Flattened, the batch stream equals ``rows()`` row for row.
        """
        return batches_from_rows(self.rows(), self.schema, self.batch_rows)

    def label(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__

    def children(self) -> list["Operator"]:
        """Child operators, outermost first."""
        return []

    def explain(self, depth: int = 0) -> str:
        """Render this operator subtree as indented text.

        Nodes the planner lowered by rule carry a ``PlanDecision`` or
        ``JoinDecision`` (see :mod:`repro.engine.planner`); its rule and
        estimates render indented under the node's label.
        """
        lines = ["  " * depth + "-> " + self.label()]
        decision = self.__dict__.get("decision")
        if decision is not None:
            indent = "  " * depth + "     "
            lines.extend(indent + line
                         for line in decision.describe().splitlines())
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)


class TableScan(Operator):
    """Full scan of a registered table."""

    def __init__(self, table: Table):
        self.table = table
        self.schema = table.schema

    def rows(self) -> Iterator[tuple]:
        return self.table.rows()

    def batches(self) -> Iterator[RowBatch]:
        return self.table.batches(self.batch_rows)

    def label(self) -> str:
        count = (f" (~{self.table.row_count} rows)"
                 if self.table.row_count is not None else "")
        return f"TableScan {self.table.name}{count}"


class Filter(Operator):
    """Row filter on a compiled predicate."""

    def __init__(self, child: Operator,
                 predicate: Callable[[tuple], bool],
                 description: str = "<predicate>"):
        self.child = child
        self.schema = child.schema
        self.predicate = predicate
        self.description = description

    def rows(self) -> Iterator[tuple]:
        return flatten(self.batches())

    def batches(self) -> Iterator[RowBatch]:
        predicate = self.predicate
        for batch in self.child.batches():
            filtered = batch.filter(predicate)
            if len(filtered):
                yield filtered

    def label(self) -> str:
        return f"Filter [{self.description}]"

    def children(self) -> list[Operator]:
        return [self.child]


class Project(Operator):
    """Column projection."""

    def __init__(self, child: Operator, columns: Sequence[str]):
        self.child = child
        self.columns = tuple(columns)
        self.schema = child.schema.project(self.columns)
        self._projector = child.schema.projector(self.columns)

    def rows(self) -> Iterator[tuple]:
        return flatten(self.batches())

    def batches(self) -> Iterator[RowBatch]:
        projector = self._projector
        schema = self.schema
        for batch in self.child.batches():
            yield batch.map(projector, schema)

    def label(self) -> str:
        return f"Project [{', '.join(self.columns)}]"

    def children(self) -> list[Operator]:
        return [self.child]


class Limit(Operator):
    """Plain LIMIT/OFFSET without ordering."""

    def __init__(self, child: Operator, limit: int | None, offset: int = 0):
        if limit is not None and limit < 0:
            raise ConfigurationError("LIMIT must be non-negative")
        if offset < 0:
            raise ConfigurationError("OFFSET must be non-negative")
        self.child = child
        self.schema = child.schema
        self.limit = limit
        self.offset = offset

    def rows(self) -> Iterator[tuple]:
        return flatten(self.batches())

    def batches(self) -> Iterator[RowBatch]:
        produced = 0
        skipped = 0
        for batch in self.child.batches():
            count = len(batch)
            start = 0
            if skipped < self.offset:
                start = min(self.offset - skipped, count)
                skipped += start
                if start >= count:
                    continue
            end = count
            if self.limit is not None:
                end = min(end, start + self.limit - produced)
            produced += end - start
            if start == 0 and end == count:
                yield batch  # untouched: pass the child's batch through
            elif end > start:
                yield RowBatch(self.schema, batch.take(range(start, end)))
            if self.limit is not None and produced >= self.limit:
                return

    def label(self) -> str:
        return f"Limit {self.limit} offset {self.offset}"

    def children(self) -> list[Operator]:
        return [self.child]


class InMemorySort(Operator):
    """Full sort without a limit (used when a query has no LIMIT)."""

    def __init__(self, child: Operator, sort_spec: SortSpec):
        self.child = child
        self.schema = child.schema
        self.sort_spec = sort_spec

    def rows(self) -> Iterator[tuple]:
        return iter(sorted(self.child.rows(), key=self.sort_spec.key))

    def label(self) -> str:
        return f"Sort [{self.sort_spec!r}]"

    def children(self) -> list[Operator]:
        return [self.child]


class SharedCutoffBound:
    """A mutable bound shared between a top-k consumer and a pushed-down
    pre-join filter.

    The top-k operator publishes every refinement of its admission
    cutoff; the :class:`CutoffPushdownFilter` sitting below the join on
    the sort-key side reads the latest bound as input flows through it.
    The pipeline is single-threaded pull, so publication and observation
    interleave deterministically.  ``publish`` only ever tightens: a
    bound, once established, never loosens (mirroring
    :class:`~repro.core.cutoff.CutoffFilter` monotonicity).
    """

    __slots__ = ("key", "publications")

    def __init__(self):
        self.key = None
        self.publications = 0

    def publish(self, key) -> None:
        if key is None:
            return
        if self.key is None or key < self.key:
            self.key = key
            self.publications += 1


class CutoffPushdownFilter(Operator):
    """Pre-join input filter driven by a consumer's live top-k cutoff.

    Sits below a join on the side that supplies every ORDER BY column
    and drops rows whose sort key is strictly above the shared bound —
    exactly the rows the downstream top-k's arrival filter would reject
    (ties are retained, matching
    :meth:`~repro.core.cutoff.CutoffFilter.eliminate`).  Until the
    consumer establishes a bound, everything passes.  ``keys_of`` maps
    a list of rows to their keys in the consumer's active key space
    (normalized tuples, encoded bytes, or normalized floats, depending
    on the chosen top-k lowering) and is called once per batch; on
    binary keys it is the codec's
    :attr:`~repro.sorting.keycodec.KeyCodec.encode_batch`.
    ``prefilter`` (a :func:`~repro.core.cutoff.leading_column_prefilter`)
    spares most rows their key.
    """

    def __init__(
        self,
        child: Operator,
        keys_of: Callable[[list[tuple]], list],
        bound: SharedCutoffBound,
        description: str = "",
        prefilter: Callable | None = None,
    ):
        self.child = child
        self.schema = child.schema
        self.keys_of = keys_of
        self.bound = bound
        self.description = description
        self.prefilter = prefilter
        self.stats = OperatorStats()
        #: Rows that entered the filter on the most recent execution.
        self.rows_in = 0
        #: Rows dropped by the pushed-down cutoff.
        self.rows_dropped = 0
        #: The planner's estimate of ``rows_dropped`` (set when the join
        #: decision costed this filter), for the EXPLAIN ANALYZE audit.
        self.estimated_drops: float | None = None

    def rows(self) -> Iterator[tuple]:
        return flatten(self.batches())

    def batches(self) -> Iterator[RowBatch]:
        self.stats = stats = OperatorStats()
        self.rows_in = 0
        self.rows_dropped = 0
        return self._filtered(stats)

    def _filtered(self, stats: OperatorStats) -> Iterator[RowBatch]:
        keys_of = self.keys_of
        bound = self.bound
        prefilter = self.prefilter
        for batch in self.child.batches():
            rows = batch.rows
            self.rows_in += len(rows)
            stats.rows_consumed += len(rows)
            # One read per batch suffices: ``publish`` only tightens, so
            # a bound that sharpens mid-batch (the merge join's
            # run-generation publisher does this while rows are still
            # arriving) merely leaves this batch filtered against a
            # conservative — still sound — older bound.
            cutoff = bound.key
            if cutoff is None:
                yield batch
                continue
            stats.cutoff_comparisons += len(rows)
            flags = prefilter(batch, cutoff) if prefilter else None
            candidates = (rows if flags is None
                          else list(compress(rows, flags)))
            kept = [row for row, key in zip(candidates, keys_of(candidates))
                    if not key > cutoff]
            dropped = len(rows) - len(kept)
            if dropped:
                self.rows_dropped += dropped
                stats.rows_eliminated_on_arrival += dropped
                if kept:
                    yield RowBatch(self.schema, kept)
            else:
                yield batch

    def analyze_details(self) -> dict:
        details = {
            "pushdown_rows_in": self.rows_in,
            "pushdown_rows_dropped": self.rows_dropped,
            "pushdown_refinements": self.bound.publications,
        }
        if self.estimated_drops is not None:
            details["pushdown_dropped_est_vs_actual"] = (
                f"{self.estimated_drops:.0f} vs {self.rows_dropped}")
        return details

    def label(self) -> str:
        suffix = f" [{self.description}]" if self.description else ""
        return f"CutoffPushdownFilter{suffix}"

    def children(self) -> list[Operator]:
        return [self.child]


class MergePushdownPublisher:
    """Sharpens a :class:`SharedCutoffBound` from the *sort side* of a
    streaming merge join while that side's rows are still arriving.

    The hash join gets pushdown for free: its probe side streams into a
    consumer whose top-k keeps publishing.  A merge join blocks on two
    sorts, so without help the bound would not move until the first
    merged row — after the sort side was fully consumed and spilled.
    This publisher closes that gap during run generation.

    Soundness: a max-heap keeps the ``needed`` (= ``LIMIT + OFFSET``)
    smallest ORDER BY keys among observed sort-side rows that are
    *guaranteed* to emit at least one join output row — for an inner
    join, rows whose join key was already seen on the other side (the
    gate set; membership in a *partial*, capacity-capped set still
    proves a match, so capping never breaks soundness, it only skips
    candidates); for a preserved LEFT outer side, every row (matched or
    padded).  All ORDER BY columns come from this side and pass through
    the join unchanged, so each heap entry contributes an output row
    with exactly that key: at least ``needed`` output rows sort at or
    below the heap maximum, making it a sound top-k cutoff.  The
    planner refuses to wire this when residual WHERE predicates filter
    join *output* rows, which would break the guarantee.

    Args:
        bound: The shared bound the downstream top-k also publishes to.
        key_of: ORDER BY key extractor in the consumer's key space (the
            same function the :class:`CutoffPushdownFilter` uses).
        needed: Output rows the consumer needs (``LIMIT + OFFSET``).
        side: Which join input (``"left"``/``"right"``) is the sort
            side this publisher observes.
        gated: Whether observed rows must match a gate key (inner
            joins); ``False`` for a preserved LEFT outer sort side.
        gate_limit: Distinct join keys the gate set may hold.
    """

    def __init__(
        self,
        bound: SharedCutoffBound,
        key_of: Callable[[tuple], Any],
        needed: int,
        side: str,
        gated: bool,
        gate_limit: int = 100_000,
    ):
        if side not in ("left", "right"):
            raise ConfigurationError(
                f"publisher side must be 'left' or 'right', not {side!r}")
        if needed <= 0:
            raise ConfigurationError("needed must be positive")
        self.bound = bound
        self.key_of = key_of
        self.needed = needed
        self.side = side
        self.gated = gated
        self.gate_limit = gate_limit
        self._gate: set | None = set() if gated else None
        self._heap: list[_ReverseKey] = []
        #: Bound publications attempted from the sort side's arrivals.
        self.publications = 0
        #: Sort-side rows that entered the heap logic (gate passed).
        self.rows_observed = 0

    def reset(self) -> None:
        self._gate = set() if self.gated else None
        self._heap = []
        self.publications = 0
        self.rows_observed = 0

    def add_gate_key(self, key: Any) -> None:
        """Record one non-sort-side join key (capacity-capped)."""
        gate = self._gate
        if gate is not None and len(gate) < self.gate_limit:
            gate.add(key)

    def observe(self, join_key: Any, row: tuple) -> None:
        """Score one arriving sort-side row against the heap."""
        gate = self._gate
        if gate is not None and join_key not in gate:
            return
        self.rows_observed += 1
        key = self.key_of(row)
        heap = self._heap
        if len(heap) < self.needed:
            heapq.heappush(heap, _ReverseKey(key))
            if len(heap) == self.needed:
                self.publications += 1
                self.bound.publish(heap[0].key)
        elif key < heap[0].key:
            heapq.heapreplace(heap, _ReverseKey(key))
            self.publications += 1
            self.bound.publish(heap[0].key)


class _JoinBase(Operator):
    """Shared surface of the two equi-join physical operators.

    Output rows are ``left_row + right_row`` under ``schema`` (built by
    the planner; column names de-duplicated there).  SQL semantics:
    ``NULL`` join keys never match, and neither do NaN keys (NaN = NaN
    is false), so both join methods agree with ``==``.  A LEFT join pads
    the right columns of unmatched (or NULL- or NaN-key) left rows with
    ``None``.
    """

    JOIN_TYPES = ("inner", "left")

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_index: int,
        right_index: int,
        join_type: str,
        schema: Schema,
        tracer=None,
    ):
        if join_type not in self.JOIN_TYPES:
            raise ConfigurationError(
                f"unknown join type {join_type!r}; "
                f"choose from {self.JOIN_TYPES}")
        self.left = left
        self.right = right
        self.left_index = left_index
        self.right_index = right_index
        self.join_type = join_type
        self.schema = schema
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = OperatorStats()
        #: Rows read from the right (build) input on the last execution.
        self.rows_build = 0
        #: Rows read from the left (probe) input on the last execution.
        self.rows_probe = 0
        #: Matched output rows (excludes LEFT-join padding rows).
        self.rows_matched = 0

    def _reset(self) -> OperatorStats:
        self.stats = OperatorStats()
        self.rows_build = 0
        self.rows_probe = 0
        self.rows_matched = 0
        return self.stats

    def _pad(self) -> tuple:
        return (None,) * len(self.right.schema.columns)

    def analyze_details(self) -> dict:
        return {
            "join_rows_build": self.rows_build,
            "join_rows_probe": self.rows_probe,
            "join_rows_matched": self.rows_matched,
        }

    def label(self) -> str:
        on = (f"{self.left.schema.names[self.left_index]} = "
              f"{self.right.schema.names[self.right_index]}")
        return f"{type(self).__name__} {self.join_type} on {on}"

    def children(self) -> list[Operator]:
        return [self.left, self.right]


class HashJoin(_JoinBase):
    """Hash equi-join: build a table on the right input, stream the left.

    Emission order is probe order — for each left row, its matches in
    right-input order — which makes the output deterministic and
    independent of hashing.

    The join is batch-native: it probes one left batch at a time.  An
    INNER join whose build keys are all unique (an FK→PK join) maps each
    key to its one row and probes flat, at most one output row per probe
    row: it looks up the batch's keys and emits a
    :class:`~repro.rows.batch.JoinedBatch`, which concatenates a joined
    row only when a consumer takes it or reads ``rows``.  Every other
    join maps each key to its bucket of rows and builds its output
    lazily, so a probe batch whose matches fan out past ``batch_rows``
    holds one output chunk at a time.  No output batch holds more than
    ``batch_rows`` rows, and the counters move as each batch goes out;
    :attr:`rows_built` counts the joined rows actually concatenated.
    """

    #: Joined rows concatenated on the last execution: every output row
    #: of a bucket probe, only the rows consumers took of a flat one.
    rows_built = 0

    def rows(self) -> Iterator[tuple]:
        return flatten(self.batches())

    def batches(self) -> Iterator[RowBatch]:
        stats = self._reset()
        self.rows_built = 0
        return self._joined(stats)

    def _count_built(self, count: int) -> None:
        self.rows_built += count

    def analyze_details(self) -> dict:
        details = super().analyze_details()
        details["join_rows_built"] = self.rows_built
        return details

    def _build(self) -> tuple[dict, bool]:
        """The build table and whether the probe is flat (then it maps
        each key to its row, else to its list of rows)."""
        right_index = self.right_index
        table: dict[Any, list[tuple]] = {}
        unique = True
        for batch in self.right.batches():
            rows = batch.rows
            self.rows_build += len(rows)
            for row in rows:
                key = row[right_index]
                if key is None or key != key:  # NULL and NaN never match
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
                    unique = False
        if unique and self.join_type == "inner":
            return {key: bucket[0] for key, bucket in table.items()}, True
        return table, False

    def _joined(self, stats: OperatorStats) -> Iterator[RowBatch]:
        with self.tracer.span("join.hash.build"):
            table, flat = self._build()
            stats.rows_consumed += self.rows_build
        left_outer = self.join_type == "left"
        left_key = itemgetter(self.left_index)
        get = table.get
        schema = self.schema
        batch_rows = self.batch_rows
        pad = self._pad()
        # A bucket lookup that misses yields no rows, or the pad.
        miss = (pad,) if left_outer else ()
        # An output row's right join key: never NULL in a match, always
        # NULL in a pad row.
        right_key = itemgetter(len(schema.columns) - len(pad)
                               + self.right_index)
        with self.tracer.span("join.hash.probe"):
            for batch in self.left.batches():
                rows = batch.rows
                self.rows_probe += len(rows)
                stats.rows_consumed += len(rows)
                if flat:
                    for chunk in self._flat_chunks(batch, table):
                        output = len(chunk)
                        self.rows_matched += output
                        stats.rows_output += output
                        yield chunk
                    continue
                for chunk in batches_from_rows(
                        (row + match for row, bucket
                         in zip(rows, map(get, map(left_key, rows),
                                          repeat(miss)))
                         for match in bucket), schema, batch_rows):
                    output = len(chunk.rows)
                    self.rows_built += output
                    self.rows_matched += output - (
                        list(map(right_key, chunk.rows)).count(None)
                        if left_outer else 0)
                    stats.rows_output += output
                    yield chunk

    def _flat_chunks(self, batch: RowBatch,
                     table: dict) -> Iterator[JoinedBatch]:
        """The flat probe of ``batch``: its matches as deferred batches
        of at most ``batch_rows`` rows, none when nothing matched."""
        rows = batch.rows
        key = itemgetter(self.left_index)
        try:
            # An FK→PK probe usually matches every row: no miss test.
            matches = list(map(table.__getitem__, map(key, rows)))
        except KeyError:
            # A build row is a non-empty tuple: only a miss is falsy.
            rows = list(compress(rows, map(table.get, map(key, rows))))
            matches = list(map(table.__getitem__, map(key, rows)))
            batch = RowBatch(batch.schema, rows)
        count = len(matches)
        if count <= self.batch_rows:
            if count:
                yield JoinedBatch(self.schema, batch, matches,
                                  self._count_built)
            return
        for start in range(0, count, self.batch_rows):
            stop = start + self.batch_rows
            probe = RowBatch(batch.schema, rows[start:stop],
                             table=batch.table, start=batch.start + start)
            yield JoinedBatch(self.schema, probe, matches[start:stop],
                              self._count_built)


class SortMergeJoin(_JoinBase):
    """Streaming sort-merge equi-join on the external-sort substrate.

    Each input sorts through a
    :class:`~repro.sorting.external_sort.StreamingSorter`: a side that
    fits in ``memory_rows`` sorts in memory, a larger one generates
    spill-backed sorted runs and merges them — the join's memory is
    governed like every other operator's instead of materializing both
    inputs with ``list()`` + ``sorted()``.  The zip phase streams
    matched output incrementally off the two sorted streams, buffering
    only one join-key group of right rows at a time.  Following the
    engine-wide auto policy, a side whose join column compiles to a
    *preferred* binary key codec sorts on memcomparable bytes and
    merges its runs with the offset-value coded tree of losers; bare
    primitive columns keep raw values (C-level comparisons).

    Both side sorts are stable (see ``StreamingSorter``), so within one
    join-key value the output is left-input-order × right-input-order —
    the same *multiset* as :class:`HashJoin` and the exact emission
    sequence of the old materializing implementation (overall order is
    key order here, probe order there).

    With a :class:`MergePushdownPublisher` attached (planner-wired when
    a top-k consumer pushes its cutoff below this join), the non-sort
    side is consumed first to seed the publisher's gate, and the
    sort-key side then sharpens the shared bound *while its rows are
    still arriving* — during run generation — so the upstream
    :class:`CutoffPushdownFilter` drops rows before they are ever
    buffered, sorted, or spilled.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_index: int,
        right_index: int,
        join_type: str,
        schema: Schema,
        tracer=None,
        memory_rows: int = 100_000,
        spill_manager: SpillManager | None = None,
        fan_in: int | None = None,
        publisher: MergePushdownPublisher | None = None,
    ):
        super().__init__(left, right, left_index, right_index, join_type,
                         schema, tracer)
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self.fan_in = fan_in
        self.publisher = publisher
        #: Rows the side sorts spilled to runs on the last execution.
        self.join_sort_spilled = 0
        #: Runs the side sorts wrote on the last execution.
        self.join_runs_written = 0

    def _side_key(self, node: Operator, index: int
                  ) -> Callable[[tuple], Any] | None:
        """The side's sort-key extractor: a preferred binary key codec's
        encoder, or ``None`` for raw join-column values."""
        codec = binary_key_codec(
            SortSpec(node.schema, [node.schema.names[index]]))
        return codec.encode if codec is not None else None

    def rows(self) -> Iterator[tuple]:
        stats = self._reset()
        return self._joined(stats)

    def _joined(self, stats: OperatorStats) -> Iterator[tuple]:
        left_index = self.left_index
        right_index = self.right_index
        left_outer = self.join_type == "left"
        manager = self.spill_manager or SpillManager()
        stats.io = manager.stats
        spilled_before = manager.stats.rows_spilled
        runs_before = manager.stats.runs_written
        self.join_sort_spilled = 0
        self.join_runs_written = 0
        publisher = self.publisher
        if publisher is not None:
            publisher.reset()
        null_left: list[tuple] = []

        left_encode = self._side_key(self.left, left_index)
        right_encode = self._side_key(self.right, right_index)
        left_sorter = StreamingSorter(
            sort_key=(left_encode if left_encode is not None
                      else lambda row: row[left_index]),
            memory_rows=self.memory_rows, spill_manager=manager,
            stats=stats, fan_in=self.fan_in,
            ovc=left_encode is not None)
        right_sorter = StreamingSorter(
            sort_key=(right_encode if right_encode is not None
                      else lambda row: row[right_index]),
            memory_rows=self.memory_rows, spill_manager=manager,
            stats=stats, fan_in=self.fan_in,
            ovc=right_encode is not None)

        def left_pairs() -> Iterator[tuple]:
            observe = (publisher.observe if publisher is not None
                       and publisher.side == "left" else None)
            gate = (publisher.add_gate_key if publisher is not None
                    and publisher.side == "right" else None)
            for row in self.left.rows():
                self.rows_probe += 1
                stats.rows_consumed += 1
                key = row[left_index]
                if key is None or key != key:  # NULL and NaN never match
                    if left_outer:
                        null_left.append(row)
                        # A preserved unmatchable row still emits (padded)
                        # output, so it still belongs in the heap.
                        if observe is not None:
                            observe(None, row)
                    continue
                if gate is not None:
                    gate(key)
                if observe is not None:
                    observe(key, row)
                yield (key if left_encode is None else left_encode(row)), row

        def right_pairs() -> Iterator[tuple]:
            observe = (publisher.observe if publisher is not None
                       and publisher.side == "right" else None)
            gate = (publisher.add_gate_key if publisher is not None
                    and publisher.side == "left" else None)
            for row in self.right.rows():
                self.rows_build += 1
                stats.rows_consumed += 1
                key = row[right_index]
                if key is None or key != key:
                    continue  # NULL and NaN never match; pads are left-only
                if gate is not None:
                    gate(key)
                if observe is not None:
                    observe(key, row)
                yield (key if right_encode is None
                       else right_encode(row)), row

        with self.tracer.span("join.merge.sort"):
            # Gate side first: when a publisher watches one side, the
            # other side's join keys must be known before the sort side
            # streams through, or nothing would ever pass the gate.
            if publisher is not None and publisher.side == "right":
                left_sorter.consume_keyed(left_pairs())
                right_sorter.consume_keyed(right_pairs())
            else:
                right_sorter.consume_keyed(right_pairs())
                left_sorter.consume_keyed(left_pairs())
            self.join_sort_spilled = \
                manager.stats.rows_spilled - spilled_before
            self.join_runs_written = \
                manager.stats.runs_written - runs_before

        pad = self._pad()
        left_stream = left_sorter.stream()
        right_stream = right_sorter.stream()
        no_group = object()
        try:
            with self.tracer.span("join.merge.zip"):
                right_next = next(right_stream, None)
                group_key: Any = no_group
                group: list[tuple] = []
                for _key, left_row in left_stream:
                    key = left_row[left_index]
                    if group_key is no_group or key != group_key:
                        while right_next is not None \
                                and right_next[1][right_index] < key:
                            right_next = next(right_stream, None)
                        group = []
                        while right_next is not None \
                                and right_next[1][right_index] == key:
                            group.append(right_next[1])
                            right_next = next(right_stream, None)
                        group_key = key
                    if group:
                        self.rows_matched += len(group)
                        for right_row in group:
                            stats.rows_output += 1
                            yield left_row + right_row
                    elif left_outer:
                        stats.rows_output += 1
                        yield left_row + pad
                if left_outer:
                    for left_row in null_left:
                        stats.rows_output += 1
                        yield left_row + pad
        finally:
            # Close both sorted streams so any surviving run files are
            # reclaimed even when a consumer stops early (LIMIT).
            left_stream.close()
            right_stream.close()
            self.join_sort_spilled = \
                manager.stats.rows_spilled - spilled_before
            self.join_runs_written = \
                manager.stats.runs_written - runs_before

    def analyze_details(self) -> dict:
        details = super().analyze_details()
        details["join_sort_spilled"] = self.join_sort_spilled
        details["join_runs_written"] = self.join_runs_written
        if self.publisher is not None:
            details["pushdown_rungen_publications"] = \
                self.publisher.publications
        return details


#: Aggregate function registry for :class:`GroupedAggregate`.
AGGREGATE_FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@functools.lru_cache(maxsize=256)
def _compile_fold(group_indexes: tuple[int, ...],
                  specs: tuple[tuple[str, int | None], ...]
                  ) -> tuple[Callable, tuple]:
    """Generate the GROUP BY fold for one (group columns, aggregates)
    pair; returns ``(fold, empty_state)``.

    ``fold(rows, groups, limit, flush)`` folds one batch into ``groups``
    (group-key tuple → flat state list, laid out as
    :class:`GroupedAggregate` describes) and returns the dict it ends
    with: when a new group arrives while ``groups`` holds ``limit``
    entries, ``flush(groups)`` spills them and returns the empty dict to
    continue with.

    Like the key encoder in :mod:`repro.sorting.keycodec`, the body is
    straight-line code with no per-row dispatch on function names, and
    each argument column is loaded and NULL-tested once however many
    aggregates read it.  SUM, MIN and MAX over one column start NULL
    and all take the group's first non-NULL value, so one test of the
    first such slot guards them all.  AVG's total starts at int 0, so
    int columns stay exact until the one division at emit.
    """
    initial: list = []
    counts: list[int] = []  # COUNT(*) slots
    by_column: dict[int, list[tuple[str, int]]] = {}
    for func, index in specs:
        slot = len(initial)
        if func == "AVG":
            initial += [0, 0]
        else:
            initial.append(0 if func == "COUNT" else None)
        if index is None:
            counts.append(slot)
        else:
            by_column.setdefault(index, []).append((func, slot))

    body = [f"state[{slot}] += 1" for slot in counts]
    for index, uses in by_column.items():
        value = f"v{index}"
        body += [f"{value} = row[{index}]", f"if {value} is not None:"]
        for func, slot in uses:
            if func == "COUNT":
                body.append(f"    state[{slot}] += 1")
            elif func == "AVG":
                body += [f"    state[{slot}] += {value}",
                         f"    state[{slot + 1}] += 1"]
        ordered = [(func, slot) for func, slot in uses
                   if func in ("SUM", "MIN", "MAX")]
        if not ordered:
            continue
        body.append(f"    if state[{ordered[0][1]}] is None:")
        body += [f"        state[{slot}] = {value}" for _, slot in ordered]
        body.append("    else:")
        for func, slot in ordered:
            if func == "SUM":
                body.append(f"        state[{slot}] += {value}")
            else:
                test = "<" if func == "MIN" else ">"
                body += [f"        if {value} {test} state[{slot}]:",
                         f"            state[{slot}] = {value}"]

    key = "".join(f"row[{index}]," for index in group_indexes)
    source = "\n".join([
        "def fold(rows, groups, limit, flush):",
        "    get = groups.get",
        "    for row in rows:",
        f"        key = ({key})",
        "        state = get(key)",
        "        if state is None:",
        "            if len(groups) >= limit:",
        "                groups = flush(groups)",
        "                get = groups.get",
        f"            state = groups[key] = {initial!r}",
        *("        " + line for line in body),
        "    return groups",
        "",
    ])
    namespace: dict = {}
    exec(compile(source, "<group-fold>", "exec"), namespace)
    return namespace["fold"], tuple(initial)


class GroupedAggregate(Operator):
    """Hash aggregation for GROUP BY / aggregate queries, fused into
    external-sort run generation.

    Standard SQL semantics: aggregates skip NULL inputs (``COUNT(*)``
    counts rows), an all-NULL group yields ``None`` for
    SUM/MIN/MAX/AVG and ``0`` for COUNT, NULL group keys form one
    group, and a global aggregate (no GROUP BY) emits exactly one row
    even on empty input.  Output rows are emitted in group-key order
    (NULLs last) so the result is deterministic without an ORDER BY.
    SUM and AVG take numeric columns only (INT64, FLOAT64, DECIMAL);
    anything else is a :class:`~repro.errors.PlanError` at construction.

    ``select`` fixes the output column order: each item is either a
    group-by column name or the canonical name of an aggregate
    (``SUM(V)``, ``COUNT(*)``).

    The input is read a batch at a time through ``child.batches()`` and
    folded by one generated function per (group columns, aggregates)
    (:func:`_compile_fold`).  Each group's state is one flat list laid
    out like the tail of a spilled partial row — COUNT/SUM/MIN/MAX one
    slot each, AVG an exact ``(total, count)`` pair — so a spill writes
    ``key + tuple(state)`` and output rows come from that same layout.

    Memory governance (``memory_rows`` set): every aggregate function
    here is associative-mergeable, so duplicate group keys collapse
    into in-buffer state *during run generation* — when the buffer holds
    ``memory_rows`` distinct groups and a new one arrives, it spills one
    run of partial-aggregate rows sorted by group key, and the final
    merge re-combines partials of the same key across run boundaries in
    run creation order.  Memory and spill volume scale with distinct
    groups per run, not input rows.  SUM/AVG totals over int columns
    stay in exact int arithmetic with one division at emit, so the
    merged result is bit-identical to the single-pass one.  With
    ``memory_rows=None`` (default) the same loop never spills: a plain
    unbounded in-memory hash pass.
    """

    def __init__(
        self,
        child: Operator,
        group_columns: Sequence[str],
        aggregates: Sequence,  # of repro.engine.sql.Aggregate
        select: Sequence[str],
        memory_rows: int | None = None,
        spill_manager: SpillManager | None = None,
    ):
        if memory_rows is not None and memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        self.child = child
        self.group_columns = tuple(group_columns)
        self.aggregates = tuple(aggregates)
        self.select = tuple(select)
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self._group_indexes = tuple(child.schema.index_of(name)
                                    for name in self.group_columns)
        self._agg_indexes = tuple(
            None if agg.column is None
            else child.schema.index_of(child.schema.resolve(agg.column))
            for agg in self.aggregates)
        self._specs = tuple((agg.func, index)
                            for agg, index in zip(self.aggregates,
                                                  self._agg_indexes))
        self.schema = self._output_schema(child.schema)
        # The function owning each state slot (AVG owns two), and each
        # output column as a ``(partial-row index, is_avg)`` pick.
        width = len(self.group_columns)
        slot_funcs: list[str] = []
        picks = {name: (pos, False)
                 for pos, name in enumerate(self.group_columns)}
        for agg in self.aggregates:
            picks.setdefault(agg.name, (width + len(slot_funcs),
                                        agg.func == "AVG"))
            slot_funcs += [agg.func] * (2 if agg.func == "AVG" else 1)
        self._slot_funcs = tuple(slot_funcs)
        self._picks = tuple(picks[name] for name in self.select)
        self._fold, self._empty_state = _compile_fold(self._group_indexes,
                                                      self._specs)
        self.stats = OperatorStats()
        #: Distinct groups produced on the most recent execution.
        self.groups_out = 0
        #: Input rows absorbed into an existing in-buffer group during
        #: run generation (the fused path's collapse count).
        self.groups_collapsed_rungen = 0

    def _output_schema(self, child_schema: Schema) -> Schema:
        by_name: dict[str, Column] = {}
        for name in self.group_columns:
            by_name[name] = child_schema.column(name)
        for agg, index in zip(self.aggregates, self._agg_indexes):
            source = None if index is None else child_schema.columns[index]
            if (agg.func in ("SUM", "AVG")
                    and source.type not in NUMERIC_TYPES):
                raise PlanError(
                    f"{agg.name}: column {source.name} is "
                    f"{source.type.name}; SUM and AVG take INT64, "
                    f"FLOAT64 or DECIMAL columns")
            if agg.func == "COUNT":
                column = Column(agg.name, ColumnType.INT64, nullable=False)
            elif agg.func == "AVG":
                column = Column(agg.name, ColumnType.FLOAT64, nullable=True)
            else:  # SUM / MIN / MAX keep the source type, made nullable
                column = Column(agg.name, source.type, nullable=True)
            by_name[agg.name] = column
        return Schema(by_name[name] for name in self.select)

    @property
    def fusion(self) -> str:
        """Always ``"rungen"``: aggregation is fused into run generation."""
        return "rungen"

    def rows(self) -> Iterator[tuple]:
        self.stats = OperatorStats()
        self.groups_out = 0
        self.groups_collapsed_rungen = 0
        return self._aggregated(self.stats)

    def _emit(self, partial: tuple, stats: OperatorStats) -> tuple:
        """The output row of one group's partial row ``key + state``."""
        stats.rows_output += 1
        self.groups_out += 1
        return tuple(
            (partial[pos] / partial[pos + 1] if partial[pos + 1] else None)
            if is_avg else partial[pos]
            for pos, is_avg in self._picks)

    @staticmethod
    def _normalized(key: tuple) -> tuple:
        # NULL group keys sort last within each column, like ORDER BY.
        return tuple((v is None, v) for v in key)

    # -- partial-aggregate rows (the fused path's spill currency) ----------
    #
    # A spilled partial row is ``group values + flat state``.  Every
    # function is associative and commutes with partitioning the input,
    # so partials combine across run boundaries in any grouping — the
    # merge combines them in run creation order, keeping the fold
    # deterministic.

    def _combine_partials(self, earlier: tuple, later: tuple) -> tuple:
        width = len(self._group_indexes)
        parts = list(earlier[:width])
        for pos, func in enumerate(self._slot_funcs, width):
            mine, theirs = earlier[pos], later[pos]
            if func in ("COUNT", "AVG"):  # counts and totals: never NULL
                parts.append(mine + theirs)
            elif mine is None:
                parts.append(theirs)
            elif theirs is None:
                parts.append(mine)
            elif func == "SUM":
                parts.append(mine + theirs)
            elif func == "MIN":
                parts.append(theirs if theirs < mine else mine)
            else:  # MAX
                parts.append(theirs if theirs > mine else mine)
        return tuple(parts)

    def _flush_partials(self, groups: dict, manager: SpillManager,
                        run_id: int):
        """Spill the resident groups as one key-ordered partial run."""
        ordered = sorted(groups.items(),
                         key=lambda item: self._normalized(item[0]))
        writer = RunWriter(manager, run_id)
        for key, state in ordered:
            writer.write(self._normalized(key), key + tuple(state))
        return writer.close()

    # -- run-generation-fused aggregation ----------------------------------

    def _aggregated(self, stats: OperatorStats) -> Iterator[tuple]:
        fold = self._fold
        limit = self.memory_rows if self.memory_rows is not None else inf
        manager = self.spill_manager or SpillManager()
        stats.io = manager.stats
        runs = []

        def flush(full: dict) -> dict:
            # Memory holds ``memory_rows`` distinct groups and a new one
            # arrived: spill the collapsed partials as a run.  Rows of
            # resident groups never trigger this — they fold in place.
            runs.append(self._flush_partials(full, manager, len(runs)))
            return {}

        groups: dict[tuple, list] = {}
        for batch in self.child.batches():
            stats.rows_consumed += len(batch.rows)
            groups = fold(batch.rows, groups, limit, flush)
        # Every consumed row either opened a group or folded into one.
        opened = len(groups) + sum(run.row_count for run in runs)
        self.groups_collapsed_rungen = stats.rows_consumed - opened
        if not runs:
            if not groups and not self.group_columns:
                # Global aggregate over an empty input still emits one row.
                groups[()] = list(self._empty_state)
            ordered = sorted(groups.items(),
                             key=lambda item: self._normalized(item[0]))
            for key, state in ordered:
                yield self._emit(key + tuple(state), stats)
            return
        if groups:
            flush(groups)
        width = len(self._group_indexes)
        merger = Merger(
            sort_key=lambda partial: self._normalized(partial[:width]),
            spill_manager=manager, stats=stats)
        for _key, partial in merger.merge_aggregated(
                runs, self._combine_partials):
            yield self._emit(partial, stats)

    def analyze_details(self) -> dict:
        details = {"aggregate_groups_out": self.groups_out}
        if self.memory_rows is not None:
            details["groups_collapsed_rungen"] = self.groups_collapsed_rungen
        return details

    def label(self) -> str:
        keys = ", ".join(self.group_columns) or "<global>"
        aggs = ", ".join(agg.name for agg in self.aggregates)
        return f"GroupedAggregate by [{keys}] agg [{aggs}]"

    def children(self) -> list[Operator]:
        return [self.child]


#: Algorithm registry for the TopK physical operator.
TOPK_ALGORITHMS = ("histogram", "optimized", "traditional", "priority_queue")


class SegmentedTopKOperator(Operator):
    """Physical segmented top-k for partially sorted inputs (Section 4.2).

    The input arrives clustered (and ordered) on ``segment_columns`` — a
    prefix of the query's ORDER BY — so the operator sorts segment by
    segment on the remaining columns and stops after ``k`` rows; later
    segments are never sorted or spilled.
    """

    def __init__(
        self,
        child: Operator,
        segment_columns: Sequence[str],
        remainder_spec: SortSpec | None,
        k: int,
        memory_rows: int = 100_000,
        spill_manager: SpillManager | None = None,
    ):
        self.child = child
        self.schema = child.schema
        self.segment_columns = tuple(segment_columns)
        indexes = tuple(child.schema.index_of(name)
                        for name in self.segment_columns)
        if len(indexes) == 1:
            index = indexes[0]
            self._segment_key = lambda row: row[index]
        else:
            self._segment_key = lambda row: tuple(row[i] for i in indexes)
        self.remainder_spec = remainder_spec
        self.k = k
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self.stats = OperatorStats()

    def rows(self) -> Iterator[tuple]:
        from repro.extensions.segmented import SegmentedTopK

        self.stats = OperatorStats()
        remainder = (self.remainder_spec.key if self.remainder_spec
                     else (lambda _row: 0))
        operator = SegmentedTopK(
            segment_key=self._segment_key,
            remainder_key=remainder,
            k=self.k,
            memory_rows=self.memory_rows,
            spill_manager=self.spill_manager,
            stats=self.stats,
        )
        return operator.execute(self.child.rows())

    def label(self) -> str:
        remainder = (repr(self.remainder_spec) if self.remainder_spec
                     else "-")
        return (f"SegmentedTopK k={self.k} "
                f"segments=({', '.join(self.segment_columns)}) "
                f"remainder={remainder}")

    def children(self) -> list["Operator"]:
        return [self.child]


class GroupedTopKOperator(Operator):
    """Physical ``LIMIT k PER <column>`` (Section 4.3 grouped top-k).

    Keeps the top ``k`` rows within each distinct value of the group
    column, each group's rows in sort order, groups contiguous.
    """

    def __init__(
        self,
        child: Operator,
        sort_spec: SortSpec,
        group_column: str,
        k: int,
        memory_rows: int = 100_000,
        spill_manager: SpillManager | None = None,
    ):
        self.child = child
        self.schema = child.schema
        self.sort_spec = sort_spec
        self.group_column = group_column
        self.group_index = child.schema.index_of(group_column)
        self.k = k
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        # The binary composite-key lowering: group bytes ‖ sort-key
        # bytes, merged by the OVC loser tree.
        self.group_encoder = compile_keycodec(
            SortSpec(child.schema, [group_column])).encode
        self.value_encoder = compile_keycodec(sort_spec).encode
        self.stats = OperatorStats()

    def rows(self) -> Iterator[tuple]:
        from repro.extensions.grouped import GroupedTopK

        self.stats = OperatorStats()
        index = self.group_index
        operator = GroupedTopK(
            group_key=lambda row: row[index],
            sort_key=self.sort_spec,
            k=self.k,
            memory_rows=self.memory_rows,
            spill_manager=self.spill_manager,
            stats=self.stats,
            group_encoder=self.group_encoder,
            value_encoder=self.value_encoder,
        )
        return (row for _group, row in operator.execute(self.child.rows()))

    def label(self) -> str:
        return (f"GroupedTopK k={self.k} per {self.group_column} "
                f"[{self.sort_spec!r}]")

    def children(self) -> list["Operator"]:
        return [self.child]


class TopK(Operator):
    """Physical top-k: ORDER BY + LIMIT [+ OFFSET], algorithm-pluggable.

    The default algorithm is the paper's adaptive histogram operator, which
    subsumes the in-memory priority queue; the baselines remain selectable
    for comparison (``algorithm=`` in the session, or per query via the
    planner).
    """

    def __init__(
        self,
        child: Operator,
        sort_spec: SortSpec,
        k: int,
        offset: int = 0,
        algorithm: str = "histogram",
        memory_rows: int = 100_000,
        spill_manager: SpillManager | None = None,
        algorithm_options: dict | None = None,
        cutoff_seed: Any = None,
        tracer=None,
    ):
        if algorithm not in TOPK_ALGORITHMS:
            raise ConfigurationError(
                f"unknown top-k algorithm {algorithm!r}; "
                f"choose from {TOPK_ALGORITHMS}")
        self.child = child
        self.schema = child.schema
        self.sort_spec = sort_spec
        self.k = k
        self.offset = offset
        self.algorithm = algorithm
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self.algorithm_options = algorithm_options or {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Only the histogram algorithm understands cutoff seeding; the
        #: seed is silently ignored for the baselines.
        self.cutoff_seed = cutoff_seed
        #: The planner's costed decision for this operator, when the
        #: cost-based planner produced it (``None`` for hand-built
        #: plans).  Read by ``EXPLAIN`` / ``EXPLAIN ANALYZE``.
        self.decision = None
        #: Optional per-bucket sink harvesting the run-generation
        #: histogram into the statistics catalog (histogram algorithm
        #: only; attached by the session when a catalog is present).
        self.histogram_sink = None
        #: Optional observer of admission-bound refinements (histogram
        #: algorithm only; attached by the planner when a cutoff is
        #: pushed below a join — see :class:`CutoffPushdownFilter`).
        self.cutoff_listener = None
        #: The algorithm instance of the most recent ``rows()`` call —
        #: lets callers read execution artifacts (``final_cutoff``,
        #: ``cutoff_filter``, ``runs``) after materializing the output.
        self.last_impl = None
        self.stats = OperatorStats()

    def _make_impl(self):
        options = dict(self.algorithm_options)
        self.stats = OperatorStats()
        common = dict(k=self.k, offset=self.offset, stats=self.stats)
        if self.algorithm == "priority_queue":
            return PriorityQueueTopK(
                self.sort_spec, memory_rows=None, **common, **options)
        manager = self.spill_manager or SpillManager()
        if self.tracer.enabled:
            manager.tracer = self.tracer
        common["memory_rows"] = self.memory_rows
        common["spill_manager"] = manager
        if self.algorithm == "histogram":
            if self.cutoff_seed is not None:
                options.setdefault("cutoff_seed", self.cutoff_seed)
            if self.histogram_sink is not None:
                options.setdefault("histogram_sink", self.histogram_sink)
            if self.cutoff_listener is not None:
                options.setdefault("cutoff_listener", self.cutoff_listener)
            return HistogramTopK(self.sort_spec, tracer=self.tracer,
                                 **common, **options)
        if self.algorithm == "optimized":
            return OptimizedMergeSortTopK(self.sort_spec, **common, **options)
        return TraditionalMergeSortTopK(self.sort_spec, **common, **options)

    def rows(self) -> Iterator[tuple]:
        impl = self._make_impl()
        self.last_impl = impl
        return impl.execute_batches(self.child.batches())

    def label(self) -> str:
        return (f"TopK k={self.k} offset={self.offset} "
                f"[{self.sort_spec!r}] algorithm={self.algorithm}")

    def children(self) -> list[Operator]:
        return [self.child]


class VectorizedTopK(TopK):
    """Top-k lowered onto the vectorized numpy kernels.

    The planner substitutes this operator for a plain histogram
    :class:`TopK` when the ORDER BY key is a single non-nullable numeric
    column: each input batch's key column is extracted once as a float64
    array and fed to
    :class:`~repro.vectorized.topk.VectorizedHistogramTopK` together with
    late-binding row ids into a payload store.  Batches are pre-filtered
    against the kernel's live cutoff before their rows are stored, so the
    payload store holds only rows that were still candidates on arrival
    (late materialization), and the kernel itself only ever moves numpy
    arrays.

    The lowering is exact: output rows and spill accounting match the row
    engine (see ``tests/test_batch_lowering.py``).
    """

    def __init__(
        self,
        child: Operator,
        sort_spec: SortSpec,
        k: int,
        offset: int = 0,
        memory_rows: int = 100_000,
        tracer=None,
    ):
        super().__init__(child, sort_spec, k, offset=offset,
                         algorithm="histogram", memory_rows=memory_rows,
                         spill_manager=None, tracer=tracer)
        key = numeric_key_column(sort_spec)
        if key is None:
            raise ConfigurationError(
                "VectorizedTopK requires numpy and a single non-nullable "
                "numeric ORDER BY column")
        self.key_index, self.negate = key

    def _batch_keys(self, batch: RowBatch):
        keys = batch.key_array(self.key_index)
        if keys is None:
            index = self.key_index
            try:
                keys = np.fromiter(
                    map(float_key, map(itemgetter(index), batch.rows)),
                    dtype=np.float64, count=len(batch))
            except OverflowError as exc:
                raise KeyEncodingError(
                    f"a {self.schema.names[index]} value is beyond float64"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise KeyEncodingError(
                    f"a {self.schema.names[index]} value is not a number: "
                    f"{exc}") from exc
        return -keys if self.negate else keys

    def rows(self) -> Iterator[tuple]:
        from repro.vectorized.topk import VectorizedHistogramTopK

        self.stats = OperatorStats()
        impl = VectorizedHistogramTopK(
            k=self.k,
            memory_rows=self.memory_rows,
            offset=self.offset,
            stats=self.stats,
            tracer=self.tracer,
            histogram_sink=self.histogram_sink,
            cutoff_listener=self.cutoff_listener,
        )
        self.last_impl = impl
        store: list[tuple] = []
        stats = self.stats

        def chunks():
            for batch in self.child.batches():
                keys = self._batch_keys(batch)
                positions = range(len(batch))
                # Arrival-side pre-filter (Algorithm 1 line 4) against
                # the kernel's live cutoff: rows that are already out of
                # contention are never stored (nor, from a join, built).
                # The kernel would drop their keys anyway; doing it here
                # keeps the payload store proportional to surviving rows.
                # Eliminations are charged at this site so counters match
                # an unfiltered feed.
                cutoff = impl.live_cutoff
                if cutoff is not None:
                    mask = keys <= cutoff
                    kept = int(mask.sum())
                    dropped = len(positions) - kept
                    if dropped:
                        stats.rows_consumed += dropped
                        stats.cutoff_comparisons += dropped
                        stats.rows_eliminated_on_arrival += dropped
                        keys = keys[mask]
                        positions = np.flatnonzero(mask)
                if not len(positions):
                    continue
                rows = batch.take(positions)
                ids = np.arange(len(store), len(store) + len(rows),
                                dtype=np.int64)
                store.extend(rows)
                yield keys, ids

        _keys, out_ids = impl.execute(chunks())
        # ``out_ids`` is None only when the input was empty (the kernel
        # never saw a chunk, so it cannot know ids were intended).
        output = (list(map(store.__getitem__, out_ids.tolist()))
                  if out_ids is not None else [])
        del store
        return iter(output)

    def label(self) -> str:
        return (f"VectorizedTopK k={self.k} offset={self.offset} "
                f"[{self.sort_spec!r}] key_column="
                f"{self.schema.names[self.key_index]}")
