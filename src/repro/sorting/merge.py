"""Multiway merging of sorted runs.

The merge phase produces the final top-k output: runs are scanned
sequentially and merged until ``k`` rows (after an optional ``OFFSET``)
have been produced.  Two of the paper's merge-specific optimizations are
implemented (Section 4.1):

* **Early termination** — a merge step ends when the desired row count is
  reached or when the latest merged key exceeds the cutoff key; for
  intermediate steps the output run is also capped at ``offset + k`` rows,
  since no single merged subset can contribute more rows to the final
  answer.
* **Lowest-keys-first policy** — when the fan-in is limited and multiple
  merge steps are needed, a top operation should merge the runs with the
  lowest keys (the most recently produced ones) rather than the classic
  smallest-runs-first choice.

Two merge substrates are available.  :func:`merge_keyed` is the classic
binary heap over precomputed (tuple or binary) keys.  When the engine
runs on binary keys, ``Merger(ovc=True)`` substitutes the offset-value
coded tree of losers (:func:`repro.sorting.ovc.merge_coded`), which
decides most tournaments with one integer comparison.  Its codes are
computed by the run scans, one page at a time as each page is delivered
(:meth:`~repro.sorting.runs.SortedRun.coded_rows`); no run stores them,
and both substrates yield the same ``(key, row)`` stream, so every
intermediate step and final merge runs one loop over either.  Both
report into the ``full_key_comparisons`` / ``code_comparisons``
counters of :class:`~repro.storage.stats.OperatorStats` (the heap's
count is a per-operation ``2 * log2(fan-in)`` estimate validated
against instrumented comparison counts; see :func:`merge_keyed`).
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Any, Callable, Iterator

from repro.errors import ConfigurationError, MergeError
from repro.obs.trace import NULL_TRACER
from repro.sorting.ovc import merge_coded
from repro.sorting.runs import RunWriter, SortedRun
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats


class MergePolicy(Enum):
    """How to pick runs for an intermediate merge step."""

    #: Merge the runs with the lowest first keys (best for top-k).
    LOWEST_KEYS_FIRST = "lowest_keys_first"
    #: Merge the smallest runs (the classic external-sort policy).
    SMALLEST_FIRST = "smallest_first"


def merge_keyed(
    runs: list[SortedRun],
    sort_key: Callable[[tuple], Any],
    sources: list[Iterator[tuple[Any, tuple]]] | None = None,
    stats: OperatorStats | None = None,
    cutoff: Any = None,
) -> Iterator[tuple[Any, tuple]]:
    """Yield ``(key, row)`` pairs from ``runs`` in global sort order.

    Uses a heap of per-run cursors over *keyed* scans
    (:meth:`~repro.sorting.runs.SortedRun.keyed_rows`): keys cached at
    write time — or recomputed page-at-a-time — are compared directly, so
    the heap never invokes the comparator per row.  Run order within
    equal keys follows run position, making the merge stable with respect
    to run creation order.  ``sources`` substitutes a custom ``(key,
    row)`` iterator per run (used by offset skipping, which starts each
    run mid-file).  Run scans read ahead on backends with real I/O
    (:meth:`~repro.sorting.runs.SortedRun.keyed_rows`); per-run iterators
    are closed on exit, so an early-terminated merge closes its runs'
    files immediately.

    ``stats``, when given, accumulates ``full_key_comparisons`` — a
    ``2 * log2(heap size)``-per-operation estimate of the key
    comparisons one heap replacement performs: ``heapreplace`` descends
    the tree comparing the two children of each vacated slot (one entry
    comparison per level) and then sifts the new entry back up, and each
    *entry* comparison touches the key up to twice (tuple comparison
    probes ``==`` before ``<``).  Instrumented runs with a counting key
    wrapper measure ~2.2 key touches per level, so ``2 * depth`` is a
    close, slightly conservative model.
    """
    heap: list[tuple] = []
    iterators = []
    full = 0
    try:
        for order, run in enumerate(runs):
            if sources is not None:
                iterator = iter(sources[order])
            else:
                iterator = run.keyed_rows(sort_key, cutoff=cutoff)
            iterators.append(iterator)
            first = next(iterator, None)
            if first is not None:
                heap.append((first[0], order, first[1]))
        heapq.heapify(heap)
        depth = 2 * max(1, len(heap).bit_length())
        full += len(heap) * depth  # heapify cost
        while heap:
            key, order, row = heap[0]
            yield key, row
            full += depth
            following = next(iterators[order], None)
            if following is None:
                heapq.heappop(heap)
                depth = 2 * max(1, len(heap).bit_length())
            else:
                heapq.heapreplace(
                    heap, (following[0], order, following[1]))
    finally:
        if stats is not None:
            stats.full_key_comparisons += full
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


class Merger:
    """Merges sorted runs, honoring fan-in limits and top-k early stops.

    Args:
        sort_key: Normalized key extractor.  With ``ovc=True`` this must
            be a binary key encoder
            (:attr:`repro.sorting.keycodec.KeyCodec.encode`).
        spill_manager: Needed only when intermediate merge steps must write
            new runs (fan-in smaller than the number of runs).
        fan_in: Maximum runs merged at once (``None`` = unlimited).
        policy: Run-selection policy for intermediate steps.
        tracer: Optional :class:`repro.obs.trace.Tracer`; when enabled,
            every intermediate merge step and the final merge open spans
            annotated with full/code-only comparison counts.
        ovc: Merge with the offset-value coded tree of losers instead of
            the binary heap (binary-key engines only).
        stats: Operator counters receiving ``full_key_comparisons`` /
            ``code_comparisons``; a private record is kept when omitted.
        retain_files: Spill-file ids the merger must *not* delete after
            consuming (or pruning) them.  The late-materialization path
            uses this: original run files hold the payload sections that
            skeleton rows in intermediate runs still reference, so they
            must outlive the merge — the stitch deletes them itself.
    """

    def __init__(
        self,
        sort_key: Callable[[tuple], Any],
        spill_manager: SpillManager | None = None,
        fan_in: int | None = None,
        policy: MergePolicy = MergePolicy.LOWEST_KEYS_FIRST,
        tracer=None,
        ovc: bool = False,
        stats: OperatorStats | None = None,
        retain_files: set[int] | None = None,
    ):
        if fan_in is not None and fan_in < 2:
            raise ConfigurationError("merge fan-in must be at least 2")
        self._sort_key = sort_key
        self._spill_manager = spill_manager
        self._fan_in = fan_in
        self._policy = policy
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._merge = merge_coded if ovc else merge_keyed
        self._skipping = (SortedRun.coded_rows_skipping if ovc
                          else SortedRun.keyed_rows_skipping)
        self._stats = stats if stats is not None else OperatorStats()
        self._retain_files = retain_files if retain_files else set()
        self._next_intermediate_id = 1_000_000  # distinct from run-gen ids
        #: Rows skipped unread by the last offset-optimized merge.
        self.offset_rows_skipped = 0

    def _release_run(self, run: SortedRun) -> None:
        """Delete a consumed run's file unless it is retained."""
        if run.file.file_id in self._retain_files:
            return
        self._spill_manager.delete_file(run.file)

    # -- intermediate steps ------------------------------------------------

    def _rank(self, runs: list[SortedRun]) -> list[SortedRun]:
        """Order runs for intermediate merging per the configured policy."""
        if self._policy is MergePolicy.SMALLEST_FIRST:
            return sorted(runs, key=lambda run: run.row_count)
        return sorted(runs, key=lambda run: (run.first_key, run.run_id))

    def _select_inputs(self, runs: list[SortedRun],
                       count: int) -> list[SortedRun]:
        """Pick ``count`` runs to merge next, per the configured policy."""
        return self._rank(runs)[:count]

    def _prune(self, runs: list[SortedRun], cutoff: Any
               ) -> list[SortedRun]:
        """Drop (and reclaim) runs that lie entirely above the cutoff.

        A run whose first key already exceeds the cutoff cannot
        contribute a single output row; it is deleted without being read.
        """
        if cutoff is None:
            return runs
        surviving = []
        for run in runs:
            if run.first_key is not None and run.first_key > cutoff:
                if self._spill_manager is not None:
                    self._release_run(run)
                continue
            surviving.append(run)
        return surviving

    def _set_comparison_attributes(self, span, full_before: int,
                                   code_before: int) -> None:
        span.set_attribute("comparisons_full",
                           self._stats.full_key_comparisons - full_before)
        span.set_attribute("comparisons_code_only",
                           self._stats.code_comparisons - code_before)

    def merge_step(
        self,
        runs: list[SortedRun],
        row_limit: int | None = None,
        cutoff: Any = None,
        on_spill: Callable[[Any, tuple], None] | None = None,
    ) -> SortedRun:
        """Merge ``runs`` into one new run, truncated per top-k rules.

        The inputs are deleted after the step (their storage is reclaimed),
        matching an external sort's behavior.
        """
        if self._spill_manager is None:
            raise MergeError("intermediate merge steps need a spill manager")
        with self._tracer.span("merge.step", fan_in=len(runs)) as span:
            full_before = self._stats.full_key_comparisons
            code_before = self._stats.code_comparisons
            writer = RunWriter(self._spill_manager,
                               self._next_intermediate_id,
                               on_spill=on_spill)
            self._next_intermediate_id += 1
            for key, row in self._merge(runs, self._sort_key,
                                        stats=self._stats, cutoff=cutoff):
                if cutoff is not None and key > cutoff:
                    writer.truncated = True
                    break
                if row_limit is not None and writer.row_count >= row_limit:
                    writer.truncated = True
                    break
                writer.write(key, row)
            merged = writer.close()
            for run in runs:
                self._release_run(run)
            if self._tracer.enabled:
                span.set_attribute("rows_written", merged.row_count)
                span.set_attribute("truncated", writer.truncated)
                self._set_comparison_attributes(span, full_before,
                                                code_before)
            return merged

    # -- final merge ---------------------------------------------------------

    def merge_topk(
        self,
        runs: list[SortedRun],
        k: int | None,
        offset: int = 0,
        cutoff: Any = None,
        rank_index=None,
    ) -> Iterator[tuple]:
        """Yield up to ``k`` output rows (after ``offset``) from ``runs``.

        Performs intermediate merge steps as needed to respect the fan-in
        limit, then streams the final merge, stopping early at the row
        limit or as soon as a key exceeds the cutoff.  An optional
        :class:`~repro.core.rank_index.RankIndex` lets deep offsets skip
        run pages without reading them.
        """
        if offset < 0:
            raise ConfigurationError("offset must be non-negative")
        runs = [run for run in runs if run.row_count > 0]
        budget = None if k is None else offset + k
        if self._fan_in is not None:
            # Level-based merge plan: each level merges disjoint groups
            # of at most ``fan_in`` runs, so no run is rewritten more
            # than once per level (a naive re-rank-and-merge loop keeps
            # re-selecting the freshly merged run and rewrites the same
            # rows over and over).
            while len(runs) > self._fan_in:
                ranked = self._prune(self._rank(runs), cutoff)
                next_level: list[SortedRun] = []
                for start in range(0, len(ranked), self._fan_in):
                    group = ranked[start:start + self._fan_in]
                    if len(group) == 1:
                        next_level.append(group[0])
                        continue
                    merged = self.merge_step(group, row_limit=budget,
                                             cutoff=cutoff)
                    if merged.row_count == 0:
                        # Fully truncated by the cutoff: nothing to keep.
                        if self._spill_manager is not None:
                            self._spill_manager.delete_file(merged.file)
                        continue
                    next_level.append(merged)
                    # Section 4.1: "Each merge step can also reduce the
                    # cutoff key."  A merged run holding ``offset + k``
                    # rows proves that many rows sort at or below its
                    # last key: a sound, usually sharper cutoff for every
                    # later group and level.
                    if (budget is not None
                            and merged.row_count >= budget
                            and (cutoff is None
                                 or merged.last_key < cutoff)):
                        cutoff = merged.last_key
                runs = next_level
            runs = self._prune(runs, cutoff)

        # Section 4.1 offset optimization: with rank bounds from the run
        # histograms, whole leading pages of every run can be skipped
        # unread — they are guaranteed to lie inside the OFFSET region.
        sources = None
        self.offset_rows_skipped = 0
        if offset > 0 and rank_index is not None:
            skip_key = rank_index.skip_key_for_offset(offset)
            if skip_key is not None:
                sources = []
                for run in runs:
                    skipped_rows, iterator = self._skipping(
                        run, self._sort_key, skip_key, cutoff=cutoff)
                    self.offset_rows_skipped += skipped_rows
                    sources.append(iterator)
        remaining_offset = offset - self.offset_rows_skipped

        produced = 0
        skipped = 0
        with self._tracer.span("merge.final", runs=len(runs)) as span:
            full_before = self._stats.full_key_comparisons
            code_before = self._stats.code_comparisons
            for key, row in self._merge(runs, self._sort_key,
                                        sources=sources, stats=self._stats,
                                        cutoff=cutoff):
                if cutoff is not None and key > cutoff:
                    break
                if skipped < remaining_offset:
                    skipped += 1
                    continue
                yield row
                produced += 1
                if budget is not None and produced >= k:
                    break
            if self._tracer.enabled:
                span.set_attribute("rows_output", produced)
                span.set_attribute("offset_rows_skipped",
                                   self.offset_rows_skipped)
                self._set_comparison_attributes(span, full_before,
                                                code_before)

    def merge_stream(self, runs: list[SortedRun], cutoff: Any = None
                     ) -> Iterator[tuple[Any, tuple]]:
        """Fully merge ``runs``, yielding every ``(key, row)`` in order.

        The streaming-consumer counterpart of :meth:`merge_topk`: no row
        budget, keys exposed to the caller (merge joins group on them,
        aggregate merges combine on them), and the final-level run files
        are reclaimed when the stream ends — including early
        ``close()``/``GeneratorExit`` from a short-circuiting consumer —
        so a caller that owns its spill manager never leaks run storage.
        Ties between runs resolve by run position (creation order), so
        equal keys emerge in the order their loads were generated: the
        merge is stable with respect to the original input sequence.
        """
        runs = [run for run in runs if run.row_count > 0]
        if self._fan_in is not None:
            # Same level-based plan as merge_topk, minus cutoffs: every
            # level merges disjoint groups of at most ``fan_in`` runs in
            # position order, which preserves stability across levels.
            while len(runs) > self._fan_in:
                next_level: list[SortedRun] = []
                for start in range(0, len(runs), self._fan_in):
                    group = runs[start:start + self._fan_in]
                    if len(group) == 1:
                        next_level.append(group[0])
                        continue
                    next_level.append(self.merge_step(group))
                runs = next_level
        try:
            yield from self._merge(runs, self._sort_key, stats=self._stats,
                                   cutoff=cutoff)
        finally:
            if self._spill_manager is not None:
                for run in runs:
                    self._release_run(run)

    def merge_aggregated(
        self,
        runs: list[SortedRun],
        combine: Callable[[tuple, tuple], tuple],
    ) -> Iterator[tuple[Any, tuple]]:
        """Merge ``runs``, collapsing adjacent equal-key rows.

        The merge surface of run-generation-fused grouped aggregation:
        each run holds at most one partial-aggregate row per group key,
        and ``combine(accumulated, arriving)`` folds two partial rows of
        the same key into one.  Because the underlying merge is ordered,
        all partials of one key are adjacent, so one combine buffer
        suffices regardless of group count.  Combination order follows
        run creation order (the merge's tie-break), keeping the fold
        deterministic.
        """
        current_key = current_row = _NO_GROUP = object()
        for key, row in self.merge_stream(runs):
            if current_key is _NO_GROUP:
                current_key, current_row = key, row
            elif key == current_key:
                current_row = combine(current_row, row)
            else:
                yield current_key, current_row
                current_key, current_row = key, row
        if current_key is not _NO_GROUP:
            yield current_key, current_row
