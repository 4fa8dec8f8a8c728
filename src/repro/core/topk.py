"""The adaptive histogram-guided top-k operator (the paper's Algorithm 1).

Behavior by regime:

* **Output fits in memory** (``k + offset`` rows fit in the operator's
  budget): behaves exactly like the in-memory priority-queue algorithm of
  Section 2.3 — the k-th smallest key seen so far is the cutoff and almost
  the entire input is eliminated on arrival.  No a-priori algorithm choice
  is needed; this operator *is* both algorithms.
* **Output exceeds memory**: run generation starts and the cutoff filter
  logic builds a concise model of the input from per-run histograms.  Rows
  are tested against the cutoff key twice — on arrival (Algorithm 1 line 4)
  and again immediately before being spilled (line 11), because the cutoff
  may have sharpened while the row sat in memory.  When the input is
  exhausted, runs are merged (lowest keys first) until k rows are produced.

The operator is deliberately built from the same substrates as the
baselines (run generators, merger, spill manager) so that measured
differences isolate the contribution: eager input filtering.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from typing import Any, Callable, Iterable, Iterator

try:  # numpy powers the vectorized batch admission; optional.
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None

from repro.core.cutoff import (
    ABOVE_CUTOFF,
    CutoffFilter,
    _HeapEntry,
    leading_column_prefilter,
)
from repro.core.histogram import Bucket, RunHistogramBuilder
from repro.core.rank_index import RankIndex
from repro.core.policies import SizingPolicy, TargetBucketsPolicy
from repro.errors import ConfigurationError, StaleCutoffSeed
from repro.obs.timeline import CutoffTimeline
from repro.obs.trace import NULL_TRACER
from repro.rows.batch import RowBatch, batches_from_rows, numeric_key_column
from repro.rows.sortspec import SortSpec
from repro.sorting.keycodec import binary_key_codec
from repro.sorting.merge import Merger, MergePolicy
from repro.sorting.quicksort_runs import QuicksortRunGenerator
from repro.sorting.replacement_selection import (
    ReplacementSelectionRunGenerator,
)
from repro.sorting.runs import SortedRun
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats

logger = logging.getLogger(__name__)


class HistogramTopK:
    """Top-k operator with histogram-guided eager input filtering.

    The comparison substrate follows from ``sort_key`` alone
    (:func:`~repro.sorting.keycodec.binary_key_codec`): a composite spec
    (several columns, a nullable column, or a descending non-numeric
    one) runs on order-preserving binary keys plus offset-value coded
    merging; a bare-primitive spec or a callable runs on tuple keys.
    ``cutoff_seed`` and :attr:`final_cutoff` live in that key space.

    Args:
        sort_key: A :class:`~repro.rows.sortspec.SortSpec` or a plain
            key-extraction callable.  A callable's scalar NaN keys are
            eliminated on arrival; a tuple key holding NaN is out of
            scope (see :meth:`execute_batches`).
        k: Requested output row count (``LIMIT``).
        memory_rows: Operator memory capacity in rows.
        spill_manager: Secondary-storage substrate; a private in-memory one
            is created when omitted.
        sizing_policy: Histogram sizing policy (default: the production
            target of ~50 buckets per run).
        offset: Rows to skip before producing output (``OFFSET``); the
            filter preserves ``offset + k`` rows (Section 2.7).
        run_generation: ``"quicksort"`` (the default: batch-native
            load-sort-store, see :mod:`repro.sorting.quicksort_runs`) or
            ``"replacement_selection"`` (the paper's configuration,
            Section 5.1.2).
        run_size_limit: Per-run row cap; defaults to ``offset + k`` per the
            paper's production implementation.  Pass ``None`` explicitly
            for unlimited runs.
        fan_in: Optional merge fan-in limit.
        merge_policy: Intermediate merge-step selection policy.
        histogram_bucket_capacity: Bucket-queue budget before consolidation
            (models the paper's 1 MB histogram allocation).
        expected_run_rows: Best-effort run-length estimate handed to the
            sizing policy; derived from the configuration when omitted.
        double_filter: When True (the algorithm as published), rows are
            re-checked against the cutoff right before being spilled
            (Algorithm 1 line 11) in addition to the arrival check (line
            4).  False disables the spill-time re-check — an ablation
            knob quantifying what the second filter site contributes.
        build_rank_index: ``None`` (default) builds the Section 4.1 rank
            index automatically when an offset is requested; ``True``
            forces it (e.g. for a paginator that merges with offsets
            later); ``False`` disables it.
        cutoff_seed: Optional initial cutoff bound (cutoff reuse).  The
            caller asserts that at least ``k + offset`` input rows sort at
            or below this key — typically the :attr:`final_cutoff` of an
            earlier run over the same table version and predicates.  The
            external regime then eliminates rows from the very first one
            instead of waiting for histogram coverage.  If the assertion
            turns out false (a stale or over-tight seed), the operator
            detects the underflow once the input is exhausted and raises
            :class:`~repro.errors.StaleCutoffSeed` rather than emit too
            few rows; replay-capable callers re-execute without the seed.
        memory_bytes: Optional byte budget on top of ``memory_rows``.
            With variable-size rows the row-count prediction can be
            wrong in either direction — the exact robustness problem
            Section 2.3 raises for the pure priority-queue algorithm.
            When set, the operator adapts at *runtime*: it starts in the
            priority-queue regime and switches to histogram-filtered run
            generation the moment resident bytes exceed the budget.
        row_size: Byte estimator used with ``memory_bytes``.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When enabled,
            execution phases open spans, run lifecycle and cutoff
            refinements become trace events, and the sharpening
            trajectory is recorded into :attr:`timeline`.  ``None`` (the
            default) uses the no-op tracer: untraced executions pay a
            single attribute-load-and-branch per *phase*, never per row.
        late_materialization: Merge spilled runs as key-only *skeletons*
            (``(file, page, slot)`` references) and re-read the payload
            pages of the ≤ k winners in a final stitch step.  Effective
            only when the binary key codec is active and every run file's
            storage supports skeleton reads (a disk backend whose page
            codec writes key/payload-split pages); silently falls back to
            eager materialization otherwise.  Output is identical either
            way.
    """

    _AUTO = object()

    def __init__(
        self,
        sort_key: SortSpec | Callable[[tuple], Any],
        k: int,
        memory_rows: int,
        spill_manager: SpillManager | None = None,
        sizing_policy: SizingPolicy | None = None,
        offset: int = 0,
        run_generation: str = "quicksort",
        run_size_limit: int | None | object = _AUTO,
        fan_in: int | None = None,
        merge_policy: MergePolicy = MergePolicy.LOWEST_KEYS_FIRST,
        histogram_bucket_capacity: int | None = None,
        expected_run_rows: int | None = None,
        double_filter: bool = True,
        memory_bytes: int | None = None,
        row_size: Callable[[tuple], int] | None = None,
        build_rank_index: bool | None = None,
        trace_cutoff: bool = False,
        stats: OperatorStats | None = None,
        cutoff_seed: Any = None,
        tracer=None,
        histogram_sink: Callable[[Any], None] | None = None,
        cutoff_listener: Callable[[Any], None] | None = None,
        late_materialization: bool = False,
    ):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if offset < 0:
            raise ConfigurationError("offset must be non-negative")
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        if run_generation not in ("replacement_selection", "quicksort"):
            raise ConfigurationError(
                f"unknown run generation {run_generation!r}")
        self.sort_key = (sort_key.key if isinstance(sort_key, SortSpec)
                         else sort_key)
        #: The originating spec, when one was given — the batch path
        #: tests its leading column in numpy when that is numeric.
        self.sort_spec = sort_key if isinstance(sort_key, SortSpec) else None
        self._batch_key = (numeric_key_column(self.sort_spec)
                           if self.sort_spec is not None else None)
        #: The compiled binary key codec, or ``None`` when the operator
        #: runs on tuple keys.  With a codec, ``sort_key`` *is* the
        #: encoder: every key in the operator (runs, histograms, cutoff,
        #: seeds) is an order-preserving byte string; a bare numeric key
        #: stays a tuple key.
        self.key_codec = binary_key_codec(sort_key)
        if self.key_codec is not None:
            self.sort_key = self.key_codec.encode
            self._batch_key = None
        #: ``rows -> keys``: the codec's batch form
        #: (:attr:`~repro.sorting.keycodec.KeyCodec.encode_batch`), or one
        #: ``sort_key`` call per row on tuple keys.
        self._keys_of = (self.key_codec.encode_batch
                         if self.key_codec is not None
                         else lambda rows: list(map(self.sort_key, rows)))
        self._prefilter = leading_column_prefilter(
            self.sort_spec, binary=self.key_codec is not None)
        self.k = k
        self.offset = offset
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager or SpillManager()
        self.sizing_policy = sizing_policy or TargetBucketsPolicy(capped=False)
        self.run_generation = run_generation
        self.fan_in = fan_in
        self.merge_policy = merge_policy
        self.double_filter = double_filter
        if memory_bytes is not None and memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        self.memory_bytes = memory_bytes
        self.row_size = row_size or (lambda row: 16 + 8 * len(row))
        self.late_materialization = late_materialization
        self.switched_to_external = False
        self.stats = stats or OperatorStats()
        self.stats.io = self.spill_manager.stats

        needed = self.k + self.offset
        if run_size_limit is self._AUTO:
            self.run_size_limit: int | None = needed
        else:
            self.run_size_limit = run_size_limit  # may be None

        if expected_run_rows is not None:
            self.expected_run_rows = expected_run_rows
        else:
            base = (memory_rows if run_generation == "quicksort"
                    else 2 * memory_rows)
            if self.run_size_limit is not None:
                base = min(base, self.run_size_limit)
            self.expected_run_rows = max(1, base)

        #: When tracing, every cutoff refinement is recorded as
        #: ``(rows_consumed_so_far, new_cutoff_key)`` — the live version
        #: of the paper's Table 1 trajectory.
        self.cutoff_trace: list[tuple[int, Any]] = []
        self._trace_cutoff = trace_cutoff
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The ``rows_seen → cutoff key`` event stream; built only when a
        #: live tracer is attached (``None`` on untraced executions).
        self.timeline: CutoffTimeline | None = (
            CutoffTimeline() if self.tracer.enabled else None)
        #: Optional observer of every admission-bound refinement, in the
        #: operator's active key space — the cutoff-pushdown channel: a
        #: pre-join :class:`~repro.engine.operators.CutoffPushdownFilter`
        #: subscribes so input rows are dropped *below* the join.  Both
        #: regimes publish (the external cutoff filter's refinements and
        #: the in-memory heap's live bound).
        self.cutoff_listener = cutoff_listener
        record = (self._record_refinement
                  if trace_cutoff or self.timeline is not None else None)
        if record is not None and cutoff_listener is not None:
            def on_refine(key, _record=record, _listen=cutoff_listener):
                _record(key)
                _listen(key)
        else:
            on_refine = record if record is not None else cutoff_listener
        self.cutoff_filter = CutoffFilter(
            k=needed, bucket_capacity=histogram_bucket_capacity,
            on_refine=on_refine)
        # Seeds live in the active key space (byte strings with a codec,
        # tuples/raw values without).  A caller-supplied seed from the
        # other space is dropped rather than letting ``bytes``-vs-tuple
        # comparisons blow up mid-scan.
        if cutoff_seed is not None \
                and isinstance(cutoff_seed, bytes) \
                != (self.key_codec is not None):
            cutoff_seed = None
        self.cutoff_seed = cutoff_seed
        if cutoff_seed is not None:
            self.cutoff_filter.seed(cutoff_seed)
        #: Optional observer of every emitted histogram bucket — the
        #: statistics-catalog harvest hook (zero-cost when ``None``).
        #: Buckets are in *normalized key space*: whatever ``sort_key``
        #: produces (tuple keys or encoded byte keys); the harvester is
        #: responsible for mapping keys back to column values.
        self.histogram_sink = histogram_sink
        self._last_output_row: tuple | None = None
        self.build_rank_index = build_rank_index
        self.rank_index: RankIndex | None = None
        self.offset_rows_skipped = 0
        self.runs: list[SortedRun] = []

    # -- public API ---------------------------------------------------------

    @property
    def output_fits_in_memory(self) -> bool:
        """Whether the priority-queue regime applies."""
        return self.k + self.offset <= self.memory_rows

    @property
    def final_cutoff(self) -> Any:
        """The exact cutoff this execution achieved, or ``None``.

        When the full ``k`` output rows were produced (and consumed), the
        last output row has overall rank ``k + offset``, so its key is a
        bound known to cover ``k + offset`` input rows — the tightest seed
        a repeat of this query (same table version and predicates) can be
        given via ``cutoff_seed``.  ``None`` when the output fell short or
        was not fully consumed.
        """
        if self._last_output_row is not None \
                and self.stats.rows_output >= self.k:
            return self.sort_key(self._last_output_row)
        return None

    def execute(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Consume ``rows`` and yield the top ``k`` rows (after ``offset``).

        Output rows appear in the requested sort order.  A row-iterable
        adapter: the rows are chunked into batches for
        :meth:`execute_batches`, whose output and counters do not depend
        on the chunking.
        """
        schema = self.sort_spec.schema if self.sort_spec is not None \
            else None
        return self.execute_batches(batches_from_rows(rows, schema))

    def execute_batches(self, batches: Iterable[RowBatch]) -> Iterator[tuple]:
        """Consume a :class:`~repro.rows.batch.RowBatch` stream and yield
        the top ``k`` rows (after ``offset``), in sort order.

        Every arrival is tested against the *live* cutoff, interleaved
        with run generation exactly as Algorithm 1 prescribes.  When the
        leading sort column is a non-nullable numeric one (or, on binary
        keys, a string), one comparison of that column against the bound
        current at the batch boundary first drops the rows that cannot
        survive (:func:`~repro.core.cutoff.leading_column_prefilter`,
        exact); only the remaining rows pay for a key, computed in one
        call per batch, and a per-row test.  NaN keys are eliminated on
        arrival, as the vectorized kernel eliminates them: a single
        numeric column's, and a callable's scalar key that is not equal
        to itself.  A tuple key holding NaN is out of scope (a tuple
        compares its items by identity first, so it equals itself); a
        composite spec's binary keys order NaN.
        """
        batches = iter(batches)
        if self._batch_key is not None:
            batches = self._drop_nan_keys(batches)
        elif self.sort_spec is None:
            batches = self._drop_unequal_keys(batches)
        if self.output_fits_in_memory:
            logger.debug("k+offset=%d fits in %d memory rows: "
                         "priority-queue regime", self.k + self.offset,
                         self.memory_rows)
            output = self._execute_in_memory(batches)
        else:
            logger.debug("k+offset=%d exceeds %d memory rows: "
                         "histogram-filtered external regime",
                         self.k + self.offset, self.memory_rows)
            output = self._execute_external(batches)
        return self._emit(output)

    def _emit(self, output: Iterator[tuple]) -> Iterator[tuple]:
        """Count output rows and remember the last one (cutoff reuse)."""
        row = None
        for row in output:
            self.stats.rows_output += 1
            yield row
        self._last_output_row = row

    def _drop_nan_keys(
            self, batches: Iterator[RowBatch]) -> Iterator[RowBatch]:
        """Drop NaN-keyed rows: NaN is unordered, so it is never a winner,
        and one inside the heap or a sorted load misorders the output."""
        index = self._batch_key[0]
        stats = self.stats
        for batch in batches:
            keys = batch.key_array(index)
            if keys is not None:
                nan = np.isnan(keys)
                dropped = int(np.count_nonzero(nan))
                if dropped:
                    stats.rows_consumed += dropped
                    stats.rows_eliminated_on_arrival += dropped
                    batch = batch.take_mask(~nan)
            yield batch

    def _drop_unequal_keys(
            self, batches: Iterator[RowBatch]) -> Iterator[RowBatch]:
        """:meth:`_drop_nan_keys` for a callable key: a row whose key is
        not equal to itself (a scalar NaN) is dropped and counted the
        same way.  The key is computed here once more per row."""
        sort_key = self.sort_key
        stats = self.stats
        for batch in batches:
            keep = [key == key for key in map(sort_key, batch.rows)]
            if False in keep:
                dropped = keep.count(False)
                stats.rows_consumed += dropped
                stats.rows_eliminated_on_arrival += dropped
                batch = batch.take_mask(keep)
            yield batch

    # -- in-memory regime ----------------------------------------------------

    def _execute_in_memory(
            self, batches: Iterator[RowBatch]) -> Iterator[tuple]:
        """Priority-queue top-k (Section 2.3) for outputs that fit.

        Once the heap holds ``k + offset`` rows, every arrival registers
        one comparison and one elimination (a replacement eliminates its
        victim).  With a byte budget configured, resident bytes are
        tracked and a budget overrun triggers a live switch to the
        external regime — the adaptivity that makes an a-priori
        algorithm choice (and its failure modes on variable-size rows)
        unnecessary.
        """
        needed = self.k + self.offset
        sort_key = self.sort_key
        keys_of = self._keys_of
        row_size = self.row_size
        budget = self.memory_bytes
        stats = self.stats
        listener = self.cutoff_listener
        # Max-heap of the ``needed`` smallest keys seen so far.
        heap: list[_HeapEntry] = []
        bytes_used = 0
        seq = 0
        for batch in batches:
            rows = batch.rows
            stats.rows_consumed += len(rows)
            index = 0
            while index < len(rows) and len(heap) < needed:
                row = rows[index]
                index += 1
                seq += 1
                heapq.heappush(heap, _HeapEntry(sort_key(row), seq, row))
                if budget is not None:
                    bytes_used += row_size(row)
                    if bytes_used > budget:
                        yield from self._switch_to_external(
                            heap, batch, index, batches)
                        return
            # Rows above the batch-start maximum can never enter the heap
            # (the maximum only falls).  The rest are keyed in one call.
            flags = (self._prefilter(batch, heap[0].key, index)
                     if self._prefilter is not None and index < len(rows)
                     else None)
            candidates = rows[index:] if index else rows
            positions = range(index, len(rows))
            if flags is not None:
                candidates = list(itertools.compress(candidates, flags))
                positions = itertools.compress(positions, flags)
            for i, row, key in zip(positions, candidates,
                                   keys_of(candidates)):
                if key < heap[0].key:
                    seq += 1
                    if budget is not None:
                        bytes_used += row_size(row) - row_size(heap[0].row)
                    heapq.heapreplace(heap, _HeapEntry(key, seq, row))
                    if budget is not None and bytes_used > budget:
                        stats.cutoff_comparisons += i + 1 - index
                        stats.rows_eliminated_on_arrival += i + 1 - index
                        yield from self._switch_to_external(
                            heap, batch, i + 1, batches)
                        return
            stats.cutoff_comparisons += len(rows) - index
            stats.rows_eliminated_on_arrival += len(rows) - index
            # Downstream sees this batch's consequences only after the
            # loop yields control, so one publication per batch is as
            # sharp as per-replacement publication.
            if listener is not None and len(heap) == needed:
                listener(heap[0].key)
        survivors = sorted(heap, key=lambda entry: (entry.key, entry.seq))
        for entry in survivors[self.offset:]:
            yield entry.row

    def _switch_to_external(self, heap: list, batch: RowBatch, index: int,
                            batches: Iterator[RowBatch]) -> Iterator[tuple]:
        """Hand the resident rows, the rest of ``batch`` from ``index``
        on, and the remaining stream to the external regime."""
        logger.info(
            "priority queue exceeded %d bytes at %d resident rows: "
            "switching to the external regime",
            self.memory_bytes, len(heap))
        self.switched_to_external = True
        resident = [entry.row for entry in heap]
        tail = batch.rows[index:]
        # These rows were already counted on their first arrival;
        # compensate before they re-enter the pipeline.
        self.stats.rows_consumed -= len(resident) + len(tail)
        return self._execute_external(itertools.chain(
            (RowBatch(batch.schema, resident + tail),), batches))

    # -- external regime -----------------------------------------------------

    def _spill_eliminate(self, key: Any) -> bool:
        """Algorithm 1 line 11: re-check a row right before spilling it."""
        return self.cutoff_filter.eliminate(key)

    def _record_refinement(self, new_cutoff: Any) -> None:
        if self._trace_cutoff:
            self.cutoff_trace.append((self.stats.rows_consumed, new_cutoff))
        if self.timeline is not None:
            self.timeline.record(self.stats.rows_consumed, new_cutoff)
            self.tracer.event("cutoff.refine",
                              rows_seen=self.stats.rows_consumed,
                              cutoff_key=new_cutoff)

    def _external_machinery(self):
        """Run generator wired to per-run histograms → the cutoff filter:
        its spill callbacks grow the histogram model that sharpens the
        cutoff while runs are still being written.
        """
        want_index = (self.build_rank_index
                      if self.build_rank_index is not None
                      else bool(self.offset))
        if want_index and self.rank_index is None:
            # Deep offsets benefit from rank bounds (Section 4.1): keep
            # every bucket in a side index so the merge can skip pages.
            self.rank_index = RankIndex()

        def observe(bucket) -> None:
            if self.rank_index is not None:
                self.rank_index.add_bucket(bucket)
            if self.histogram_sink is not None:
                self.histogram_sink(bucket)

        def sink(bucket) -> None:
            self.cutoff_filter.insert(bucket)
            observe(bucket)

        def insert_sorted(boundaries, size: int, stop: bool) -> int:
            inserted = self.cutoff_filter.insert_sorted(boundaries, size,
                                                        stop)
            if self.rank_index is not None \
                    or self.histogram_sink is not None:
                for key in boundaries[:inserted]:
                    observe(Bucket(boundary_key=key, size=size))
            return inserted

        histogram_builder = RunHistogramBuilder(
            policy=self.sizing_policy,
            expected_run_rows=self.expected_run_rows,
            sink=sink,
            insert_sorted=insert_sorted,
        )

        def on_run_closed(run: SortedRun) -> None:
            if self.rank_index is not None:
                self.rank_index.end_run(run.row_count)
            if self.tracer.enabled:
                self.tracer.event("run.closed", run_id=run.run_id,
                                  rows=run.row_count)

        common = dict(
            sort_key=self.sort_key,
            memory_rows=self.memory_rows,
            spill_manager=self.spill_manager,
            run_size_limit=self.run_size_limit,
            memory_bytes=self.memory_bytes,
            row_size=self.row_size if self.memory_bytes is not None
            else None,
            stats=self.stats,
        )
        if self.run_generation == "quicksort":
            return QuicksortRunGenerator(
                spill_filter=self.cutoff_filter if self.double_filter
                else None,
                histogram=histogram_builder,
                on_run_closed=on_run_closed,
                **common)

        def on_replacement_run_closed(run: SortedRun) -> None:
            histogram_builder.close()
            on_run_closed(run)

        return ReplacementSelectionRunGenerator(
            spill_filter=self._spill_eliminate if self.double_filter
            else None,
            on_spill=lambda key, _row: histogram_builder.add(key),
            on_run_closed=on_replacement_run_closed,
            **common)

    def _external_finish(self, generator) -> Iterator[tuple]:
        """Close run generation, validate any seed, and merge the runs."""
        self.runs = generator.finish()
        if self.cutoff_seed is not None:
            # A seeded bound is an *assertion* the filter cannot check up
            # front.  Here it becomes checkable: if fewer rows survived
            # than the output needs while the seed eliminated input, the
            # seed was stale/over-tight and the output would be wrong.
            # (Without a seed this cannot happen — an established cutoff
            # always has >= k+offset spilled rows at or below it.)
            survivors = sum(run.row_count for run in self.runs)
            if (survivors < self.k + self.offset
                    and self.stats.rows_eliminated > 0):
                raise StaleCutoffSeed(
                    f"seeded cutoff {self.cutoff_seed!r} left only "
                    f"{survivors} rows for a top-{self.k}"
                    f"{f'+{self.offset}' if self.offset else ''} output; "
                    f"re-execute without the seed")
        # Late materialization applies when every run file can deliver
        # key-only skeletons: original run files are flipped to skeleton
        # reads and retained through the merge (intermediate runs hold
        # references into them), then the stitch resolves the winners
        # and deletes the payload files itself.
        lazy = (self.late_materialization and self.key_codec is not None
                and bool(self.runs)
                and all(run.file.supports_lazy for run in self.runs))
        payload_files = {}
        if lazy:
            payload_files = {run.file.file_id: run.file
                             for run in self.runs}
            for run in self.runs:
                run.file.lazy_reads = True
        merger = Merger(
            sort_key=self.sort_key,
            spill_manager=self.spill_manager,
            fan_in=self.fan_in,
            policy=self.merge_policy,
            tracer=self.tracer,
            ovc=self.key_codec is not None,
            stats=self.stats,
            retain_files=set(payload_files) if lazy else None,
            keys_of=self._keys_of,
        )
        with self.tracer.span("topk.merge", runs=len(self.runs)) as span:
            output = merger.merge_topk(
                self.runs,
                self.k,
                offset=self.offset,
                cutoff=self.cutoff_filter.cutoff_key,
                rank_index=self.rank_index,
            )
            if lazy:
                output = self._stitch(output, payload_files)
            yield from output
            if self.tracer.enabled:
                span.set_attribute("rows_output", self.stats.rows_output)
        self.offset_rows_skipped = merger.offset_rows_skipped

    def _stitch(self, output: Iterator[tuple],
                payload_files: dict) -> Iterator[tuple]:
        """Resolve skeleton winners back to full rows.

        The merge delivered ``(file_id, page_index, slot)`` references;
        each referenced payload page is re-read (and fully decoded) at
        most once, then the retained original run files are deleted.
        """
        winners = list(output)
        started = time.perf_counter()
        pages: dict[tuple[int, int], Any] = {}
        rows = []
        for file_id, page_index, slot in winners:
            page = pages.get((file_id, page_index))
            if page is None:
                page = payload_files[file_id].read_page(page_index)
                pages[(file_id, page_index)] = page
            rows.append(page.rows[slot])
        self.stats.io.payload_stitch_seconds += (
            time.perf_counter() - started)
        for spill_file in payload_files.values():
            self.spill_manager.delete_file(spill_file)
        yield from rows

    def _execute_external(
            self, batches: Iterator[RowBatch]) -> Iterator[tuple]:
        """Histogram-filtered external merge sort (Algorithm 1)."""
        stats = self.stats
        sort_key = self.sort_key
        budget = self.memory_bytes

        # Consume up to one memory-load first: if the whole input fits in
        # memory, no histogram or spill machinery is needed at all.
        buffered: list[tuple] = []
        buffered_bytes = 0
        pending: tuple[tuple[RowBatch, int], ...] = ()
        exhausted = False
        while (len(buffered) < self.memory_rows
               and (budget is None or buffered_bytes < budget)):
            batch = next(batches, None)
            if batch is None:
                exhausted = True
                break
            rows = batch.rows
            take = min(len(rows), self.memory_rows - len(buffered))
            if budget is not None:
                for i in range(take):
                    if buffered_bytes >= budget:
                        take = i
                        break
                    buffered_bytes += self.row_size(rows[i])
            stats.rows_consumed += take
            if take < len(rows):
                buffered.extend(rows[:take])
                pending = ((batch, take),)
                break
            buffered.extend(rows)
        if exhausted:
            buffered.sort(key=sort_key)
            yield from buffered[self.offset:self.offset + self.k]
            return

        generator = self._external_machinery()
        with self.tracer.span("topk.run_generation",
                              algorithm=self.run_generation) as span:
            # The first load was buffered before the regime was known, so
            # it enters without the arrival test.
            generator.consume_batch(buffered, self._keys_of(buffered))
            del buffered
            stream = itertools.chain(
                pending, ((batch, 0) for batch in batches))
            if self.run_generation == "quicksort":
                for batch, start in stream:
                    rows = batch.rows[start:] if start else batch.rows
                    generator.consume_batch(
                        rows, self._arrival_keys(batch, rows, start),
                        arrival_filter=self.cutoff_filter)
            else:
                for batch, start in stream:
                    self._admit_batch(generator, batch, start)
            if self.tracer.enabled:
                span.set_attribute("rows_consumed", stats.rows_consumed)
                span.set_attribute("rows_eliminated_on_arrival",
                                   stats.rows_eliminated_on_arrival)
        yield from self._external_finish(generator)

    def _arrival_keys(self, batch: RowBatch, rows: list[tuple],
                      start: int) -> list:
        """Keys of ``rows``, which are ``batch.rows[start:]``, for
        load-sort-store, computed in one call: ``ABOVE_CUTOFF`` stands
        in for each row the prefilter drops."""
        cutoff = self.cutoff_filter.cutoff_key
        flags = (self._prefilter(batch, cutoff, start)
                 if self._prefilter is not None and cutoff is not None
                 else None)
        if flags is None or False not in flags:
            return self._keys_of(rows)
        kept = iter(self._keys_of(list(itertools.compress(rows, flags))))
        return [next(kept) if keep else ABOVE_CUTOFF for keep in flags]

    def _admit_batch(self, generator, batch: RowBatch, start: int) -> None:
        """Algorithm 1 line 4 over ``batch.rows[start:]`` for replacement
        selection: eager elimination on arrival, interleaved with run
        generation.  (Load-sort-store runs the test inside
        :meth:`~repro.sorting.quicksort_runs.QuicksortRunGenerator.consume_batch`.)

        Survivors reach the generator through a lazy ``(key, row)``
        stream, so each row is tested against the cutoff as sharpened by
        the spills of every row before it — and the key computed for the
        test is the one the generator sorts by.
        """
        stats = self.stats
        sort_key = self.sort_key
        cutoff_filter = self.cutoff_filter
        rows = batch.rows[start:] if start else batch.rows
        consumed = stats.rows_consumed
        stats.cutoff_comparisons += len(rows)
        candidates = enumerate(rows)
        flags = (cutoff_filter.admit_batch(self._prefilter, batch, start)
                 if self._prefilter is not None else None)
        if flags is not None:
            stats.rows_eliminated_on_arrival += flags.count(False)
            candidates = itertools.compress(candidates, flags)

        def admitted() -> Iterator[tuple[Any, tuple]]:
            for i, row in candidates:
                key = sort_key(row)
                if cutoff_filter.eliminate(key):
                    stats.rows_eliminated_on_arrival += 1
                    continue
                # Refinements triggered by this row's admission see the
                # exact arrival count (cutoff trace and timeline).
                stats.rows_consumed = consumed + i + 1
                yield key, row

        generator.consume_keyed(admitted())
        stats.rows_consumed = consumed + len(rows)


def topk(
    rows: Iterable[tuple],
    k: int,
    sort_key: SortSpec | Callable[[tuple], Any],
    memory_rows: int,
    **kwargs,
) -> list[tuple]:
    """One-call convenience wrapper returning the top-k rows as a list."""
    operator = HistogramTopK(sort_key, k, memory_rows, **kwargs)
    return list(operator.execute(rows))
