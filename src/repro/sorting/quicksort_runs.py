"""Run generation by load-sort-store (quicksort runs).

The production run generator of :class:`~repro.core.topk.HistogramTopK`:
fill operator memory with input rows, sort the load, write it as one
run, repeat.  This is what PostgreSQL's top-k path does (Section 5.2) and
the simplified model the paper's Section 3.2 analysis uses; the paper's
own configuration, replacement selection, lives in
:mod:`repro.sorting.replacement_selection`.

The generator is batch-native end to end, and two facts keep every batch
decision equal to a row-at-a-time loop's:

* **Arrival (Algorithm 1 line 4).**  The cutoff moves only while a load
  is written.  So :meth:`QuicksortRunGenerator.consume_batch` computes a
  batch's keys once and tests them against one cutoff, in C, up to the
  row that fills the load; the rest of the batch meets the cutoff that
  flush left behind.
* **Spill (line 11).**  While a sorted load is written, the cutoff moves
  only when the run histogram emits a bucket.  So the load goes out in
  segments that end at the next bucket boundary or at the run-size cap,
  and the re-check of a segment is one ``bisect_right`` for the first key
  above the cutoff.  Because the load is sorted, that key *truncates* the
  run: every later row is at least as large and is eliminated wholesale.
  This reproduces the paper's "Writing run 8 ends immediately after
  writing the key value equal to or higher than the new cutoff key".
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, islice, repeat
from operator import le
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.sorting.runs import RunWriter, SortedRun
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats

#: Rows taken at a time from a row stream when only a byte budget bounds
#: the load (a row budget cuts the stream at the load's free room).
_STREAM_CHUNK_ROWS = 1_024


class QuicksortRunGenerator:
    """Generates sorted runs by repeatedly sorting memory-loads.

    Args:
        sort_key: Callable extracting the normalized sort key from a row.
        memory_rows: Load capacity in rows, or ``None`` when only a byte
            budget applies.
        spill_manager: Secondary-storage substrate.
        run_size_limit: Optional cap on rows per run; a longer load is
            written as several runs.
        spill_filter: Optional cutoff filter re-checked right before rows
            are written (Algorithm 1 line 11): a
            :class:`~repro.core.cutoff.CutoffFilter`, or anything with a
            ``cutoff_key`` and a ``count_eliminated(rows)``.
        histogram: Optional :class:`~repro.core.histogram.RunHistogramBuilder`
            fed every written segment (the paper's ``rowSpilled``, line
            13) and closed with every run.  Its buckets are what move the
            cutoff while a load is being written.
        on_run_closed: Optional ``SortedRun -> None`` callback as each run
            is sealed.
        memory_bytes: Optional byte budget: a load is flushed at the row
            that brings its byte total to the budget.  At least one of
            ``memory_rows`` / ``memory_bytes`` is required.
        row_size: Byte estimator used with ``memory_bytes``.
        stats: Operator work counters to update (optional).
    """

    def __init__(
        self,
        sort_key: Callable[[tuple], Any],
        memory_rows: int | None,
        spill_manager: SpillManager,
        run_size_limit: int | None = None,
        spill_filter: Any = None,
        histogram: Any = None,
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
        self._buffer_bytes = 0
        self._spill_manager = spill_manager
        self._run_size_limit = run_size_limit
        self._spill_filter = spill_filter
        self._histogram = histogram
        self._on_run_closed = on_run_closed
        self._stats = stats or OperatorStats()
        # Rows and their sort keys, parallel.  Keys are computed exactly
        # once per row, on admission (or handed over by the caller), and
        # reused for the arrival test, the load sort, the spill-time
        # re-check and the run write.
        self._buffer: list[tuple] = []
        self._buffer_keys: list = []
        self._next_run_id = 0
        self.runs: list[SortedRun] = []

    # -- admission ----------------------------------------------------------

    def consume_batch(self, rows: list[tuple], keys: list | None = None,
                      arrival_filter: Any = None) -> None:
        """Feed a batch of rows; a run is written every time memory fills.

        This is the generator's one admission path.  ``keys``, when given,
        parallels ``rows``; otherwise the batch's keys are computed once
        here.  ``arrival_filter`` (the operator's cutoff filter, when
        given) is Algorithm 1's arrival test: a row sorting above its
        cutoff is eliminated before it takes memory.  The rows up to the
        one that fills the load are tested against one cutoff, and the
        rest of the batch against the cutoff that flush left behind —
        exactly the outcome of testing each row against the live cutoff.
        With an arrival filter the generator also advances
        ``stats.rows_consumed`` to the filling row before each flush, so
        a refinement records the arrival count of the row that caused
        it.
        """
        total = len(rows)
        if keys is None:
            keys = list(map(self._sort_key, rows))
        stats = self._stats
        if arrival_filter is not None:
            consumed = stats.rows_consumed
            stats.cutoff_comparisons += total
        position = 0
        while position < total:
            room = (None if self._memory_rows is None
                    else self._memory_rows - len(self._buffer))
            cutoff = (None if arrival_filter is None
                      else arrival_filter.cutoff_key)
            candidates = range(position, total)
            if cutoff is not None:
                candidates = compress(candidates,
                                      map(le, islice(keys, position, None),
                                          repeat(cutoff)))
            if room is not None:
                candidates = islice(candidates, room)
            if self._memory_bytes is None:
                taken = list(candidates)
                full = len(taken) == room
            else:
                taken, full = self._take_within_budget(rows, candidates)
                full = full or len(taken) == room
            self._buffer.extend(map(rows.__getitem__, taken))
            self._buffer_keys.extend(map(keys.__getitem__, taken))
            end = taken[-1] + 1 if full else total
            if arrival_filter is not None:
                eliminated = end - position - len(taken)
                if eliminated:
                    stats.rows_eliminated_on_arrival += eliminated
                    arrival_filter.count_eliminated(eliminated)
                if full:
                    stats.rows_consumed = consumed + end
            position = end
            if full:
                self._flush()
        if arrival_filter is not None:
            stats.rows_consumed = consumed + total

    def _take_within_budget(self, rows: list[tuple],
                            candidates: Iterable[int]
                            ) -> tuple[list[int], bool]:
        """Take candidate positions until the load's bytes reach
        ``memory_bytes``; also say whether they did."""
        taken: list[int] = []
        for index in candidates:
            taken.append(index)
            self._buffer_bytes += self._row_size(rows[index])
            if self._buffer_bytes >= self._memory_bytes:
                return taken, True
        return taken, False

    def consume(self, rows: Iterable[tuple]) -> None:
        """Feed a row stream (can be called repeatedly)."""
        for chunk in self._chunks(iter(rows)):
            self.consume_batch(chunk)

    def consume_keyed(self, keyed_rows: Iterable[tuple]) -> None:
        """Feed ``(key, row)`` pairs from a caller that already computed
        the keys."""
        for chunk in self._chunks(iter(keyed_rows)):
            keys, rows = zip(*chunk)
            self.consume_batch(list(rows), list(keys))

    def _chunks(self, iterator: Iterator) -> Iterator[list]:
        """Cut a stream into lists no longer than the load's free room, so
        a stream is never held beyond one memory load."""
        while True:
            room = (_STREAM_CHUNK_ROWS if self._memory_rows is None
                    else self._memory_rows - len(self._buffer))
            chunk = list(islice(iterator, room))
            if not chunk:
                return
            yield chunk

    # -- writing ------------------------------------------------------------

    def _flush(self) -> None:
        """Sort the buffered load (in C, stable) and write it out."""
        keys, rows = self._buffer_keys, self._buffer
        self._buffer, self._buffer_keys, self._buffer_bytes = [], [], 0
        n = len(rows)
        if not n:
            return
        order = sorted(range(n), key=keys.__getitem__)
        # ~n log n comparisons for the sort, as a CPU-effort proxy.
        self._stats.sort_comparisons += n * max(1, n.bit_length())
        self._write_load(list(map(keys.__getitem__, order)),
                         list(map(rows.__getitem__, order)))

    def _write_load(self, keys: list, rows: list[tuple]) -> None:
        """Write one sorted load as runs of at most ``run_size_limit`` rows.

        Each run piece is first walked in segments within which the
        cutoff cannot move — a segment ends where the histogram's next
        bucket falls — re-checking each segment with one bisection and
        feeding it to the histogram; the piece is then written with one
        :meth:`~repro.sorting.runs.RunWriter.write_batch`.  A full piece
        is sealed once the row after it has been re-checked: a load
        eliminated exactly at a run boundary marks the full run
        truncated, and a load eliminated at its first row opens no file.
        """
        n = len(keys)
        check = self._spill_filter
        histogram = self._histogram
        limit = self._run_size_limit or n

        def survivors_end(start: int, stop: int) -> int:
            """First position in ``[start, stop)`` above the cutoff."""
            cutoff = None if check is None else check.cutoff_key
            if cutoff is None:
                return stop
            return bisect_right(keys, cutoff, start, stop)

        position = 0
        cut = n
        while position < n and cut == n:
            piece_end = min(n, position + limit)
            stop = position
            while stop < piece_end:
                end = piece_end
                if check is not None and histogram is not None:
                    step = histogram.rows_to_bucket()
                    if step is not None:
                        end = min(end, stop + step)
                survivors = survivors_end(stop, end)
                if histogram is not None:
                    histogram.extend(keys, stop, survivors)
                stop = survivors
                if survivors < end:
                    cut = survivors
                    break
            if cut == n and stop < n \
                    and survivors_end(stop, stop + 1) == stop:
                cut = stop
            if stop > position:
                writer = RunWriter(self._spill_manager, self._next_run_id)
                self._next_run_id += 1
                writer.write_batch(keys[position:stop], rows[position:stop])
                writer.truncated = cut < n
                self._close_run(writer)
            position = stop
        if check is not None:
            # One comparison per row re-checked, the eliminating one too.
            self._stats.cutoff_comparisons += min(cut + 1, n)
            if cut < n:
                self._stats.rows_eliminated_at_spill += n - cut
                check.count_eliminated(n - cut)

    def _close_run(self, writer: RunWriter) -> None:
        run = writer.close()
        self.runs.append(run)
        if self._histogram is not None:
            self._histogram.close()
        if self._on_run_closed is not None:
            self._on_run_closed(run)

    # -- completion ---------------------------------------------------------

    def finish(self) -> list[SortedRun]:
        """Flush the final partial load and return all runs."""
        self._flush()
        return self.runs

    def generate(self, rows: Iterable[tuple]) -> list[SortedRun]:
        """Convenience: consume all of ``rows`` and finish."""
        self.consume(rows)
        return self.finish()

    @property
    def resident_rows(self) -> int:
        """Rows currently buffered in operator memory."""
        return len(self._buffer)
