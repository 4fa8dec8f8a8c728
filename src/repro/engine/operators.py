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

import heapq
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.baselines.optimized_topk import OptimizedMergeSortTopK
from repro.baselines.priority_queue_topk import PriorityQueueTopK
from repro.baselines.traditional_topk import TraditionalMergeSortTopK
from repro.core.topk import HistogramTopK
from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER
from repro.rows.batch import (
    DEFAULT_BATCH_ROWS,
    RowBatch,
    batches_from_rows,
    flatten,
    numeric_key_column,
)
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortSpec
from repro.sorting.external_sort import StreamingSorter
from repro.sorting.keycodec import compile_keycodec
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
        work); callable sources stream through :meth:`rows`, so they get
        the same row-count learning.
        """
        if callable(self._source):
            return batches_from_rows(self.rows(), self.schema, batch_rows)
        return batches_from_rows(self._source, self.schema, batch_rows)


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

        Nodes chosen by the cost-based planner carry a
        ``PlanDecision`` (see :mod:`repro.engine.planner`); its costed
        summary renders indented under the node's label.
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
            rows = batch.rows
            start = 0
            if skipped < self.offset:
                start = min(self.offset - skipped, len(rows))
                skipped += start
                if start >= len(rows):
                    continue
            end = len(rows)
            if self.limit is not None:
                end = min(end, start + self.limit - produced)
            produced += end - start
            if start == 0 and end == len(rows):
                yield batch  # untouched: pass the child's batch through
            elif end > start:
                yield RowBatch(self.schema, rows[start:end])
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
    consumer establishes a bound, everything passes.  ``key_of`` must
    produce keys in the consumer's active key space (normalized tuples,
    encoded bytes, or normalized floats, depending on the chosen top-k
    lowering).
    """

    def __init__(
        self,
        child: Operator,
        key_of: Callable[[tuple], Any],
        bound: SharedCutoffBound,
        description: str = "",
    ):
        self.child = child
        self.schema = child.schema
        self.key_of = key_of
        self.bound = bound
        self.description = description
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
        key_of = self.key_of
        bound = self.bound
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
            kept = [row for row in rows if not key_of(row) > cutoff]
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


class _ReverseKey:
    """Inverts ``<`` so ``heapq``'s min-heap tracks a running maximum."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.value < self.value


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
                self.bound.publish(heap[0].value)
        elif key < heap[0].value:
            heapq.heapreplace(heap, _ReverseKey(key))
            self.publications += 1
            self.bound.publish(heap[0].value)


class _JoinBase(Operator):
    """Shared surface of the two equi-join physical operators.

    Output rows are ``left_row + right_row`` under ``schema`` (built by
    the planner; column names de-duplicated there).  SQL semantics:
    ``NULL`` join keys never match, and a LEFT join pads the right
    columns of unmatched (or NULL-key) left rows with ``None``.
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
    """

    def rows(self) -> Iterator[tuple]:
        stats = self._reset()
        return self._joined(stats)

    def _joined(self, stats: OperatorStats) -> Iterator[tuple]:
        left_index = self.left_index
        right_index = self.right_index
        left_outer = self.join_type == "left"
        with self.tracer.span("join.hash.build"):
            table: dict[Any, list[tuple]] = {}
            build = 0
            for row in self.right.rows():
                build += 1
                key = row[right_index]
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            self.rows_build = build
            stats.rows_consumed += build
        pad = self._pad()
        with self.tracer.span("join.hash.probe"):
            for row in self.left.rows():
                self.rows_probe += 1
                stats.rows_consumed += 1
                key = row[left_index]
                matches = table.get(key) if key is not None else None
                if matches:
                    self.rows_matched += len(matches)
                    for match in matches:
                        stats.rows_output += 1
                        yield row + match
                elif left_outer:
                    stats.rows_output += 1
                    yield row + pad


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
        codec = compile_keycodec(
            SortSpec(node.schema, [node.schema.names[index]]))
        if codec is not None and codec.preferred:
            return codec.encode
        return None

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
            compute_codes=left_encode is not None)
        right_sorter = StreamingSorter(
            sort_key=(right_encode if right_encode is not None
                      else lambda row: row[right_index]),
            memory_rows=self.memory_rows, spill_manager=manager,
            stats=stats, fan_in=self.fan_in,
            compute_codes=right_encode is not None)

        def left_pairs() -> Iterator[tuple]:
            observe = (publisher.observe if publisher is not None
                       and publisher.side == "left" else None)
            gate = (publisher.add_gate_key if publisher is not None
                    and publisher.side == "right" else None)
            for row in self.left.rows():
                self.rows_probe += 1
                stats.rows_consumed += 1
                key = row[left_index]
                if key is None:
                    if left_outer:
                        null_left.append(row)
                        # A preserved NULL-key row still emits (padded)
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
                if key is None:
                    continue  # NULL keys never match; pads are left-only
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


class GroupedAggregate(Operator):
    """Hash aggregation for GROUP BY / aggregate queries, optionally
    fused into external-sort run generation.

    Standard SQL semantics: aggregates skip NULL inputs (``COUNT(*)``
    counts rows), an all-NULL group yields ``None`` for
    SUM/MIN/MAX/AVG and ``0`` for COUNT, NULL group keys form one
    group, and a global aggregate (no GROUP BY) emits exactly one row
    even on empty input.  Output rows are emitted in group-key order
    (NULLs last) so the result is deterministic without an ORDER BY.

    ``select`` fixes the output column order: each item is either a
    group-by column name or the canonical name of an aggregate
    (``SUM(V)``, ``COUNT(*)``).

    Memory governance (``memory_rows`` set): every aggregate function
    here is associative-mergeable, so duplicate group keys collapse
    into in-buffer accumulators *during run generation* — when the
    buffer reaches ``memory_rows`` distinct groups, it spills one run
    of partial-aggregate rows (AVG as an exact ``(sum, count)`` pair)
    sorted by group key, and the final merge re-combines partials of
    the same key across run boundaries.  Memory and spill volume scale
    with distinct groups per run, not input rows.  SUM/AVG totals over
    int columns stay in exact int arithmetic with one division at emit,
    so the merged result is bit-identical to the single-pass one.
    ``fusion="postsort"`` instead externally sorts the raw rows by
    group key and aggregates adjacent groups in a post-pass — the
    Do/Graefe/Naughton baseline the fused mode is measured against.
    With ``memory_rows=None`` (default) aggregation is a plain
    unbounded in-memory hash pass.
    """

    FUSION_MODES = ("rungen", "postsort")

    def __init__(
        self,
        child: Operator,
        group_columns: Sequence[str],
        aggregates: Sequence,  # of repro.engine.sql.Aggregate
        select: Sequence[str],
        memory_rows: int | None = None,
        spill_manager: SpillManager | None = None,
        fusion: str = "rungen",
    ):
        if fusion not in self.FUSION_MODES:
            raise ConfigurationError(
                f"unknown aggregate fusion mode {fusion!r}; "
                f"choose from {self.FUSION_MODES}")
        if memory_rows is not None and memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        self.child = child
        self.group_columns = tuple(group_columns)
        self.aggregates = tuple(aggregates)
        self.select = tuple(select)
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self.fusion = fusion
        self._group_indexes = tuple(child.schema.index_of(name)
                                    for name in self.group_columns)
        self._agg_indexes = tuple(
            None if agg.column is None
            else child.schema.index_of(child.schema.resolve(agg.column))
            for agg in self.aggregates)
        self._specs = tuple((agg.func, index)
                            for agg, index in zip(self.aggregates,
                                                  self._agg_indexes))
        group_names = {name: pos
                       for pos, name in enumerate(self.group_columns)}
        agg_names = {agg.name: pos
                     for pos, agg in enumerate(self.aggregates)}
        self._picks = tuple(
            (True, group_names[name]) if name in group_names
            else (False, agg_names[name])
            for name in self.select)
        self.schema = self._output_schema(child.schema)
        self.stats = OperatorStats()
        #: Distinct groups produced on the most recent execution.
        self.groups_out = 0
        #: Input rows absorbed into an existing in-buffer accumulator
        #: during run generation (the fused path's collapse count).
        self.groups_collapsed_rungen = 0

    def _output_schema(self, child_schema: Schema) -> Schema:
        by_name: dict[str, Column] = {}
        for name in self.group_columns:
            by_name[name] = child_schema.column(name)
        for agg, index in zip(self.aggregates, self._agg_indexes):
            if agg.func == "COUNT":
                column = Column(agg.name, ColumnType.INT64, nullable=False)
            elif agg.func == "AVG":
                column = Column(agg.name, ColumnType.FLOAT64, nullable=True)
            else:  # SUM / MIN / MAX keep the source type, made nullable
                source = child_schema.columns[index]
                column = Column(agg.name, source.type, nullable=True)
            by_name[agg.name] = column
        return Schema(by_name[name] for name in self.select)

    def rows(self) -> Iterator[tuple]:
        self.stats = OperatorStats()
        self.groups_out = 0
        self.groups_collapsed_rungen = 0
        if self.memory_rows is None:
            return self._aggregated(self.stats)
        if self.fusion == "postsort":
            return self._aggregated_postsort(self.stats)
        return self._aggregated_fused(self.stats)

    # -- accumulator plumbing (shared by all three paths) ------------------

    def _new_accs(self) -> list:
        # Accumulator per aggregate: COUNT → int; SUM → number | None;
        # MIN/MAX → value | None; AVG → [total, count].  AVG's total
        # starts at integer 0 (0 is the exact additive identity for
        # every numeric type), so int columns accumulate in exact int
        # arithmetic and divide exactly once at emit — which also makes
        # the fused partial-aggregate merge bit-identical to the
        # single-pass result.
        return [[0, 0] if func == "AVG"
                else (0 if func == "COUNT" else None)
                for func, _ in self._specs]

    def _accumulate(self, accs: list, row: tuple) -> None:
        for pos, (func, index) in enumerate(self._specs):
            if func == "COUNT":
                if index is None or row[index] is not None:
                    accs[pos] += 1
                continue
            value = row[index]
            if value is None:
                continue
            if func == "AVG":
                accs[pos][0] += value
                accs[pos][1] += 1
            elif accs[pos] is None:
                accs[pos] = value
            elif func == "SUM":
                accs[pos] = accs[pos] + value
            elif func == "MIN":
                if value < accs[pos]:
                    accs[pos] = value
            else:  # MAX
                if value > accs[pos]:
                    accs[pos] = value

    def _finalize(self, accs: list) -> list:
        return [(acc[0] / acc[1] if acc[1] else None)
                if func == "AVG" else acc
                for (func, _), acc in zip(self._specs, accs)]

    def _emit(self, key: tuple, accs: list, stats: OperatorStats) -> tuple:
        finals = self._finalize(accs)
        stats.rows_output += 1
        self.groups_out += 1
        return tuple(key[pos] if is_group else finals[pos]
                     for is_group, pos in self._picks)

    @staticmethod
    def _normalized(key: tuple) -> tuple:
        # NULL group keys sort last within each column, like ORDER BY.
        return tuple((v is None, v) for v in key)

    # -- the unbounded in-memory pass --------------------------------------

    def _aggregated(self, stats: OperatorStats) -> Iterator[tuple]:
        group_indexes = self._group_indexes
        groups: dict[tuple, list] = {}
        for row in self.child.rows():
            stats.rows_consumed += 1
            key = tuple(row[i] for i in group_indexes)
            accs = groups.get(key)
            if accs is None:
                accs = groups[key] = self._new_accs()
            self._accumulate(accs, row)
        if not groups and not self.group_columns:
            # Global aggregate over an empty input still emits one row.
            groups[()] = self._new_accs()
        ordered = sorted(groups.items(),
                         key=lambda item: self._normalized(item[0]))
        for key, accs in ordered:
            yield self._emit(key, accs, stats)

    # -- partial-aggregate rows (the fused path's spill currency) ----------
    #
    # A spilled partial row is ``group values + flattened accumulator
    # state``: COUNT/SUM/MIN/MAX one slot each, AVG two (exact total,
    # count).  Every function is associative and commutes with
    # partitioning the input, so partials combine across run boundaries
    # in any grouping — the merge combines them in run creation order,
    # keeping the fold deterministic.

    def _partial_row(self, key: tuple, accs: list) -> tuple:
        parts = list(key)
        for (func, _), acc in zip(self._specs, accs):
            if func == "AVG":
                parts.append(acc[0])
                parts.append(acc[1])
            else:
                parts.append(acc)
        return tuple(parts)

    def _accs_from_partial(self, partial: tuple) -> list:
        accs = []
        pos = len(self._group_indexes)
        for func, _ in self._specs:
            if func == "AVG":
                accs.append([partial[pos], partial[pos + 1]])
                pos += 2
            else:
                accs.append(partial[pos])
                pos += 1
        return accs

    def _combine_partials(self, earlier: tuple, later: tuple) -> tuple:
        width = len(self._group_indexes)
        parts = list(earlier[:width])
        pos = width
        for func, _ in self._specs:
            if func == "AVG":
                parts.append(earlier[pos] + later[pos])
                parts.append(earlier[pos + 1] + later[pos + 1])
                pos += 2
                continue
            mine, theirs = earlier[pos], later[pos]
            if func == "COUNT":
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
            pos += 1
        return tuple(parts)

    def _flush_partials(self, groups: dict, manager: SpillManager,
                        run_id: int):
        """Spill the resident groups as one key-ordered partial run."""
        ordered = sorted(groups.items(),
                         key=lambda item: self._normalized(item[0]))
        writer = RunWriter(manager, run_id)
        for key, accs in ordered:
            writer.write(self._normalized(key),
                         self._partial_row(key, accs))
        return writer.close()

    # -- run-generation-fused aggregation ----------------------------------

    def _aggregated_fused(self, stats: OperatorStats) -> Iterator[tuple]:
        group_indexes = self._group_indexes
        limit = self.memory_rows
        manager = self.spill_manager or SpillManager()
        stats.io = manager.stats
        groups: dict[tuple, list] = {}
        runs = []
        next_run_id = 0
        for row in self.child.rows():
            stats.rows_consumed += 1
            key = tuple(row[i] for i in group_indexes)
            accs = groups.get(key)
            if accs is None:
                if len(groups) >= limit:
                    # Memory holds ``memory_rows`` distinct groups and a
                    # new one arrived: spill the collapsed partials as a
                    # run.  Rows of resident groups never trigger this —
                    # they fold into their accumulator in place.
                    runs.append(self._flush_partials(groups, manager,
                                                     next_run_id))
                    next_run_id += 1
                    groups = {}
                accs = groups[key] = self._new_accs()
            else:
                self.groups_collapsed_rungen += 1
            self._accumulate(accs, row)
        if not runs:
            if not groups and not self.group_columns:
                groups[()] = self._new_accs()
            ordered = sorted(groups.items(),
                             key=lambda item: self._normalized(item[0]))
            for key, accs in ordered:
                yield self._emit(key, accs, stats)
            return
        if groups:
            runs.append(self._flush_partials(groups, manager, next_run_id))
        width = len(group_indexes)
        merger = Merger(
            sort_key=lambda partial: self._normalized(partial[:width]),
            spill_manager=manager, stats=stats)
        for _key, partial in merger.merge_aggregated(
                runs, self._combine_partials):
            yield self._emit(tuple(partial[:width]),
                             self._accs_from_partial(partial), stats)

    # -- the post-sort baseline --------------------------------------------

    def _aggregated_postsort(self, stats: OperatorStats) -> Iterator[tuple]:
        group_indexes = self._group_indexes
        manager = self.spill_manager or SpillManager()
        stats.io = manager.stats
        normalized = self._normalized
        sorter = StreamingSorter(
            sort_key=lambda row: normalized(
                tuple(row[i] for i in group_indexes)),
            memory_rows=self.memory_rows, spill_manager=manager,
            stats=stats)

        def pairs() -> Iterator[tuple]:
            for row in self.child.rows():
                stats.rows_consumed += 1
                yield normalized(tuple(row[i] for i in group_indexes)), row

        sorter.consume_keyed(pairs())
        stream = sorter.stream()
        current_key = no_group = object()
        current_raw: tuple = ()
        accs: list = []
        try:
            for key, row in stream:
                if key != current_key:
                    if current_key is not no_group:
                        yield self._emit(current_raw, accs, stats)
                    current_key = key
                    current_raw = tuple(row[i] for i in group_indexes)
                    accs = self._new_accs()
                self._accumulate(accs, row)
            if current_key is not no_group:
                yield self._emit(current_raw, accs, stats)
            elif not self.group_columns:
                yield self._emit((), self._new_accs(), stats)
        finally:
            stream.close()

    def analyze_details(self) -> dict:
        details = {"aggregate_groups_out": self.groups_out}
        if self.memory_rows is not None and self.fusion == "rungen":
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
        key_encoding: str = "auto",
    ):
        if key_encoding not in ("auto", "ovc", "tuple"):
            raise ConfigurationError(
                f"unknown key encoding {key_encoding!r} "
                "(expected 'auto', 'ovc' or 'tuple')")
        self.child = child
        self.schema = child.schema
        self.sort_spec = sort_spec
        self.group_column = group_column
        self.group_index = child.schema.index_of(group_column)
        self.k = k
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager
        self.key_encoding = key_encoding
        # The binary composite-key lowering (group bytes ‖ sort-key
        # bytes) engages when both the group column and the sort spec
        # compile to order-preserving byte encoders.  ``"auto"`` falls
        # back to tuple keys when they don't; ``"ovc"`` insists.
        self.group_encoder = None
        self.value_encoder = None
        if key_encoding != "tuple":
            from repro.sorting.keycodec import compile_keycodec

            group_codec = compile_keycodec(
                SortSpec(child.schema, [group_column]))
            value_codec = compile_keycodec(sort_spec)
            if group_codec is not None and value_codec is not None:
                self.group_encoder = group_codec.encode
                self.value_encoder = value_codec.encode
            elif key_encoding == "ovc":
                raise ConfigurationError(
                    "key_encoding='ovc' requires binary key encoders for "
                    "the group column and every sort column")
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
        encoding = "ovc" if self.group_encoder is not None else "tuple"
        return (f"GroupedTopK k={self.k} per {self.group_column} "
                f"[{self.sort_spec!r}] encoding={encoding}")

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
        buckets_per_run: int = 50,
        tracer=None,
        store=None,
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
        self.buckets_per_run = buckets_per_run
        #: Optional :class:`~repro.vectorized.runs.VectorRunStore` — lets
        #: callers route spilled runs to real storage
        #: (:class:`~repro.vectorized.runs.VectorRunDisk`); lifecycle
        #: (``close``) stays with the caller.
        self.run_store = store

    def _batch_keys(self, batch: RowBatch):
        keys = batch.key_array(self.key_index)
        if keys is None:
            index = self.key_index
            keys = np.fromiter((float(row[index]) for row in batch.rows),
                               dtype=np.float64, count=len(batch.rows))
        return -keys if self.negate else keys

    def rows(self) -> Iterator[tuple]:
        from repro.vectorized.topk import VectorizedHistogramTopK

        self.stats = OperatorStats()
        impl = VectorizedHistogramTopK(
            k=self.k,
            memory_rows=self.memory_rows,
            buckets_per_run=self.buckets_per_run,
            offset=self.offset,
            store=self.run_store,
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
                rows = batch.rows
                # Arrival-side pre-filter (Algorithm 1 line 4) against
                # the kernel's live cutoff: rows that are already out of
                # contention are never stored.  The kernel would drop
                # their keys anyway; doing it here keeps the payload
                # store proportional to surviving rows.  Eliminations are
                # charged at this site so counters match an unfiltered
                # feed.
                cutoff = impl.live_cutoff
                if cutoff is not None:
                    mask = keys <= cutoff
                    kept = int(mask.sum())
                    dropped = len(rows) - kept
                    if dropped:
                        stats.rows_consumed += dropped
                        stats.cutoff_comparisons += dropped
                        stats.rows_eliminated_on_arrival += dropped
                        keys = keys[mask]
                        rows = [rows[i] for i in np.flatnonzero(mask)]
                if not rows:
                    continue
                ids = np.arange(len(store), len(store) + len(rows),
                                dtype=np.int64)
                store.extend(rows)
                yield keys, ids

        _keys, out_ids = impl.execute(chunks())
        # ``out_ids`` is None only when the input was empty (the kernel
        # never saw a chunk, so it cannot know ids were intended).
        output = ([store[int(i)] for i in out_ids]
                  if out_ids is not None else [])
        del store
        return iter(output)

    def label(self) -> str:
        return (f"VectorizedTopK k={self.k} offset={self.offset} "
                f"[{self.sort_spec!r}] key_column="
                f"{self.schema.names[self.key_index]}")
