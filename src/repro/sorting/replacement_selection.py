"""Run generation by replacement selection.

Replacement selection (Knuth's "snow plow") keeps the operator's memory full
of rows organized as a heap and emits the smallest eligible row whenever a
new row arrives and memory is full.  Rows smaller than the last row written
to the current run are *deferred* to the next run.  Two properties make it
the paper's run generator of choice (Sections 2.5, 5.1.2):

* it is pipelined — the operator never stops consuming input to sort a
  memory-load, and
* on random input it produces runs about twice the memory size, and when a
  cutoff filter truncates runs early, deferment sharpens the filter faster.

This implementation supports all the hooks the histogram algorithm needs:

* ``spill_filter`` — re-checks every row against the (live) cutoff key right
  before it is written (Algorithm 1, line 11); eliminated rows free memory
  without being written;
* ``on_spill`` — fires after each physical write (line 13) so the cutoff
  filter can grow its histogram while the run is being produced;
* ``run_size_limit`` — caps each run at the requested output size ``k``,
  one of the optimizations of Graefe's earlier top-k sort work.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError
from repro.sorting.runs import RunWriter, SortedRun
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats


class ReplacementSelectionRunGenerator:
    """Generates sorted runs from a row stream via replacement selection.

    Args:
        sort_key: Callable extracting the normalized sort key from a row.
        memory_rows: Operator memory capacity in rows (heap size), or
            ``None`` when only a byte budget applies.
        spill_manager: Secondary-storage substrate.
        run_size_limit: Optional cap on rows per run (the paper limits runs
            to ``k``).
        spill_filter: Optional predicate ``key -> bool``; ``True`` means the
            row is *eliminated* instead of written.  Evaluated at spill time
            with whatever the filter knows *now*.
        spill_filter_keyed: Like ``spill_filter`` but called as
            ``(key, row) -> bool`` — for filters that need the row to
            route the key (grouped top-k looks up the row's group's
            cutoff filter).  Takes precedence over ``spill_filter``.
        on_spill: Optional ``(key, row)`` callback after each written row.
        on_run_closed: Optional ``SortedRun -> None`` callback as each run
            is sealed.
        memory_bytes: Optional byte budget; with variable-size rows this is
            the honest capacity limit (Section 2.3's robustness concern).
            At least one of ``memory_rows`` / ``memory_bytes`` is required.
        row_size: Byte estimator used with ``memory_bytes``.
        stats: Operator work counters to update (optional).
    """

    def __init__(
        self,
        sort_key: Callable[[tuple], Any],
        memory_rows: int | None,
        spill_manager: SpillManager,
        run_size_limit: int | None = None,
        spill_filter: Callable[[Any], bool] | None = None,
        spill_filter_keyed: Callable[[Any, tuple], bool] | None = None,
        on_spill: Callable[[Any, tuple], None] | None = None,
        on_run_closed: Callable[[SortedRun], None] | None = None,
        memory_bytes: int | None = None,
        row_size: Callable[[tuple], int] | None = None,
        stats: OperatorStats | None = None,
    ):
        if memory_rows is None and memory_bytes is None:
            raise ConfigurationError(
                "a row and/or byte memory capacity is required")
        if memory_rows is not None and memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        if memory_bytes is not None and memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if run_size_limit is not None and run_size_limit <= 0:
            raise ConfigurationError("run_size_limit must be positive")
        self._sort_key = sort_key
        self._memory_rows = memory_rows
        self._memory_bytes = memory_bytes
        self._row_size = row_size or (lambda row: 16 + 8 * len(row))
        self._bytes_used = 0
        self._spill_manager = spill_manager
        self._run_size_limit = run_size_limit
        self._spill_filter = spill_filter
        self._spill_filter_keyed = spill_filter_keyed
        self._on_spill = on_spill
        self._on_run_closed = on_run_closed
        self._stats = stats or OperatorStats()
        # Heap entries: (epoch, key, seq, size, row).  ``seq`` breaks ties
        # so rows never get compared directly.
        self._heap: list[tuple] = []
        self._seq = 0
        self._epoch = 0
        self._writer: RunWriter | None = None
        self._next_run_id = 0
        self._last_written_key: Any = None
        self.runs: list[SortedRun] = []

    # -- internals --------------------------------------------------------

    def _open_writer(self) -> RunWriter:
        writer = RunWriter(self._spill_manager, self._next_run_id,
                           on_spill=self._on_spill)
        self._next_run_id += 1
        return writer

    def _close_writer(self) -> None:
        if self._writer is None:
            return
        if self._writer.row_count == 0:
            self._writer.abandon()
        else:
            run = self._writer.close()
            self.runs.append(run)
            if self._on_run_closed is not None:
                self._on_run_closed(run)
        self._writer = None

    def _spill_smallest(self) -> None:
        """Evict the smallest resident row: write it or eliminate it."""
        epoch, key, _seq, size, row = heapq.heappop(self._heap)
        self._bytes_used -= size
        if epoch != self._epoch:
            # The current run has no eligible rows left: seal it and start
            # the next one.
            self._close_writer()
            self._epoch = epoch
            self._last_written_key = None
        if self._spill_filter_keyed is not None:
            self._stats.cutoff_comparisons += 1
            if self._spill_filter_keyed(key, row):
                self._stats.rows_eliminated_at_spill += 1
                return
        elif self._spill_filter is not None:
            self._stats.cutoff_comparisons += 1
            if self._spill_filter(key):
                # Eliminated at spill time (Algorithm 1, line 11): the
                # cutoff sharpened after this row was admitted.
                self._stats.rows_eliminated_at_spill += 1
                return
        if self._writer is None:
            self._writer = self._open_writer()
        self._writer.write(key, row)
        self._last_written_key = key
        if (self._run_size_limit is not None
                and self._writer.row_count >= self._run_size_limit):
            # Run-size cap reached (runs limited to k): seal and continue
            # the same epoch into a new file — the output stays sorted.
            self._close_writer()
            # ``_last_written_key`` is kept: deferment decisions must still
            # compare against the last key actually emitted in this epoch.

    def _admit(self, row: tuple, size: int, key: Any = None) -> None:
        if key is None:
            key = self._sort_key(row)
        if (self._last_written_key is not None
                and key < self._last_written_key):
            # Too small for the current run: defer to the next epoch.
            epoch = self._epoch + 1
        else:
            epoch = self._epoch
        self._seq += 1
        heapq.heappush(self._heap, (epoch, key, self._seq, size, row))
        self._bytes_used += size
        self._stats.sort_comparisons += self._heap_depth()

    def _memory_full(self, incoming_bytes: int) -> bool:
        """Would admitting ``incoming_bytes`` more exceed any budget?"""
        if (self._memory_rows is not None
                and len(self._heap) >= self._memory_rows):
            return True
        if (self._memory_bytes is not None and self._heap
                and self._bytes_used + incoming_bytes > self._memory_bytes):
            return True
        return False

    def _heap_depth(self) -> int:
        """Approximate comparisons for one heap operation (log2 size)."""
        return max(1, len(self._heap).bit_length())

    # -- public API -------------------------------------------------------

    def consume(self, rows: Iterable[tuple]) -> None:
        """Feed rows through the generator (can be called repeatedly)."""
        track_bytes = self._memory_bytes is not None
        for row in rows:
            size = self._row_size(row) if track_bytes else 0
            while self._memory_full(size):
                self._spill_smallest()
            self._admit(row, size)

    def consume_keyed(self, keyed_rows: Iterable[tuple]) -> None:
        """Feed ``(key, row)`` pairs from a caller that already computed
        the keys (the arrival-side cutoff check does), sparing the
        admission-time key computation."""
        track_bytes = self._memory_bytes is not None
        for key, row in keyed_rows:
            size = self._row_size(row) if track_bytes else 0
            while self._memory_full(size):
                self._spill_smallest()
            self._admit(row, size, key)

    def consume_batch(self, rows: list[tuple],
                      keys: list | None = None) -> None:
        """Batch-feeding surface; replacement selection is inherently
        row-at-a-time (each admission can evict), so this delegates to
        :meth:`consume` / :meth:`consume_keyed`."""
        if keys is not None:
            self.consume_keyed(zip(keys, rows))
        else:
            self.consume(rows)

    def finish(self) -> list[SortedRun]:
        """Drain memory, seal the final run(s) and return all runs."""
        while self._heap:
            self._spill_smallest()
        self._close_writer()
        self._last_written_key = None
        return self.runs

    def generate(self, rows: Iterable[tuple]) -> list[SortedRun]:
        """Convenience: consume all of ``rows`` and finish."""
        self.consume(rows)
        return self.finish()

    @property
    def resident_rows(self) -> int:
        """Rows currently held in operator memory."""
        return len(self._heap)
