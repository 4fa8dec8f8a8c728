"""Vectorized histogram top-k over numpy key chunks.

Same algorithm as :class:`repro.core.topk.HistogramTopK` — admission
filter, load-sort-store run generation with histogram buckets created as
rows are written, spill-time truncation against the live cutoff, merge of
the filtered survivors — but every step operates on numpy arrays, making
multi-ten-million-row workloads practical in Python.  Payload travels as
a parallel ``row_id`` array (late-binding indices into the caller's
storage), or is omitted entirely for keys-only analysis.

The operator is exact: its output equals ``np.sort(all_keys)[:k]`` and
its spill accounting uses the same counters as the row engine, so the two
engines can be cross-checked (see ``tests/test_vectorized.py``).

**Comparison substrate.**  This kernel's float64 key arrays already *are*
machine-word comparisons — numpy sorts and merges never re-enter the
interpreter per key — so the binary key codec and offset-value coding
(:mod:`repro.sorting.keycodec`, :mod:`repro.sorting.ovc`) have nothing to
win here and deliberately stay off: the planner only lowers
single-numeric-column specs, exactly the specs on which
``KeyCodec.preferred`` is ``False``.  The codec and this kernel are the
same idea at two granularities — replace interpreted tuple comparisons
with hardware comparisons — one per-row (any spec), one per-column-array
(numeric specs).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.cutoff import CutoffFilter
from repro.core.histogram import Bucket
from repro.errors import ConfigurationError
from repro.obs.timeline import CutoffTimeline
from repro.obs.trace import NULL_TRACER
from repro.storage.stats import OperatorStats
from repro.vectorized.runs import VectorRunStore


def _stable_smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` smallest keys, ties resolved toward the
    earliest positions, returned in ascending position order.

    ``np.argpartition`` alone picks arbitrary members of the tie group at
    the selection boundary; resolving ties by position keeps this engine's
    output byte-identical to the row engine, whose priority queue and
    merge both retain the earliest-arriving row among equal keys.
    """
    if keys.size <= count:
        return np.arange(keys.size)
    rough = np.argpartition(keys, count - 1)[:count]
    boundary = keys[rough].max()
    below = np.flatnonzero(keys < boundary)
    ties = np.flatnonzero(keys == boundary)[:count - below.size]
    return np.sort(np.concatenate([below, ties]))


class VectorizedHistogramTopK:
    """Histogram-filtered top-k over chunked numpy keys.

    Args:
        k: Requested output size.
        memory_rows: Operator memory budget in rows (one sort load).
        buckets_per_run: Histogram boundaries per run (``B`` boundaries on
            the ``j/(B+1)`` quantiles of a full load; 0 disables
            filtering).
        offset: Rows to skip before the output (pagination).
        store: Vector run store (fresh one if omitted).
        tracer: Optional :class:`repro.obs.trace.Tracer`; when enabled,
            run flushes and the merge phase open spans and cutoff
            refinements are recorded into :attr:`timeline`.
    """

    def __init__(
        self,
        k: int,
        memory_rows: int,
        buckets_per_run: int = 50,
        offset: int = 0,
        store: VectorRunStore | None = None,
        stats: OperatorStats | None = None,
        tracer=None,
        histogram_sink=None,
        cutoff_listener=None,
    ):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        if offset < 0:
            raise ConfigurationError("offset must be non-negative")
        if buckets_per_run < 0:
            raise ConfigurationError("buckets_per_run must be >= 0")
        self.k = k
        self.offset = offset
        self.memory_rows = memory_rows
        self.buckets_per_run = buckets_per_run
        self.store = store or VectorRunStore()
        self.stats = stats or OperatorStats()
        self.stats.io = self.store.stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Cutoff refinement stream, mirroring the row engine's
        #: attribute; built only when a live tracer is attached.
        self.timeline: CutoffTimeline | None = (
            CutoffTimeline() if self.tracer.enabled else None)
        #: Optional observer of admission-bound refinements (normalized
        #: float key space) — the cutoff-pushdown channel, mirroring the
        #: row engine's ``HistogramTopK.cutoff_listener``.
        self.cutoff_listener = cutoff_listener
        record = (self._record_refinement if self.timeline is not None
                  else None)
        if record is not None and cutoff_listener is not None:
            def on_refine(key, _record=record, _listen=cutoff_listener):
                _record(key)
                _listen(key)
        else:
            on_refine = record if record is not None else cutoff_listener
        self.cutoff_filter = CutoffFilter(k=k + offset, on_refine=on_refine)
        #: Optional observer of every emitted histogram bucket — the
        #: statistics-catalog harvest hook.  Keys are normalized floats
        #: (descending specs arrive negated).
        self.histogram_sink = histogram_sink
        #: In-memory-regime admission bound (the external regime's bound
        #: lives in the cutoff filter); see :attr:`live_cutoff`.
        self._live_cutoff: float | None = None
        #: Key of the last output row when the full ``k`` rows were
        #: produced (rank ``k + offset``) — the tightest valid
        #: ``cutoff_seed`` for a repeat of the same query; ``None`` when
        #: the output fell short.  Mirrors the row engine's attribute.
        self.final_cutoff: float | None = None
        #: A sorted load's histogram boundaries: every ``_stride``-th key
        #: among its first ``_histogram_rows``.
        self._stride = max(1, memory_rows // (buckets_per_run + 1))
        self._histogram_rows = self._stride * min(
            buckets_per_run, memory_rows // self._stride)

    def _record_refinement(self, new_cutoff) -> None:
        if self.timeline is not None:
            self.timeline.record(self.stats.rows_consumed,
                                 float(new_cutoff))
            self.tracer.event("cutoff.refine",
                              rows_seen=self.stats.rows_consumed,
                              cutoff_key=float(new_cutoff))

    # -- regime selection ---------------------------------------------------

    @property
    def output_fits_in_memory(self) -> bool:
        """Whether the vectorized priority-queue-equivalent regime applies."""
        return self.k + self.offset <= self.memory_rows

    @property
    def live_cutoff(self) -> float | None:
        """The current admission bound, in either regime, or ``None``.

        Producers that feed chunks incrementally (the engine's batch
        pipeline) use this to pre-filter payload rows before storing
        them — the late-materialization trick that keeps the row store
        proportional to surviving rows, not input rows.
        """
        if self.output_fits_in_memory:
            return self._live_cutoff
        return self.cutoff_filter.cutoff_key

    # -- public API -----------------------------------------------------------

    def execute(
        self,
        chunks: Iterable[np.ndarray | tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Consume key chunks and return ``(keys, row_ids)`` of the top k.

        Each chunk is either a key array or a ``(keys, row_ids)`` pair;
        mixing forms is not allowed.  Returned keys are sorted ascending;
        ``row_ids`` is ``None`` for keys-only input.
        """
        normalized = self._normalize(chunks)
        if self.output_fits_in_memory:
            keys, ids = self._execute_in_memory(normalized)
        else:
            keys, ids = self._execute_external(normalized)
        self.stats.rows_output += int(keys.size)
        self.final_cutoff = (float(keys[-1]) if int(keys.size) == self.k
                             else None)
        return keys, ids

    def execute_keys(self, chunks: Iterable[np.ndarray]) -> np.ndarray:
        """Keys-only convenience wrapper."""
        keys, _ids = self.execute(chunks)
        return keys

    # -- internals -------------------------------------------------------------

    def _normalize(self, chunks) -> Iterator[tuple[np.ndarray,
                                                   np.ndarray | None]]:
        for chunk in chunks:
            if isinstance(chunk, tuple):
                keys, ids = chunk
                yield (np.asarray(keys),
                       np.asarray(ids) if ids is not None else None)
            else:
                yield (np.asarray(chunk), None)

    def _take(self, keys: np.ndarray, ids: np.ndarray | None,
              selector) -> tuple[np.ndarray, np.ndarray | None]:
        return keys[selector], (ids[selector] if ids is not None else None)

    def _drop_nan(self, keys: np.ndarray, ids: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """The arrival test before any cutoff exists: drop NaN keys.

        NaN is unordered, so it is never a winner, and a NaN sorted
        into a load could become a histogram boundary and then the
        cutoff, which no key passes.  Once a cutoff exists the arrival
        test (``keys <= cutoff``) drops NaN with the other losers.
        """
        nan = np.isnan(keys)
        if not nan.any():
            return keys, ids
        self.stats.rows_eliminated_on_arrival += int(np.count_nonzero(nan))
        return self._take(keys, ids, ~nan)

    # -- in-memory regime -----------------------------------------------------

    def _execute_in_memory(self, chunks) -> tuple[np.ndarray,
                                                  np.ndarray | None]:
        """Vector equivalent of the priority-queue algorithm: keep the
        ``k`` best candidates, compacting with ``np.partition`` whenever
        the candidate buffer outgrows a small multiple of k."""
        needed = self.k + self.offset
        compact_at = max(4 * needed, 16_384)
        buffer_keys: list[np.ndarray] = []
        buffer_ids: list[np.ndarray] = []
        buffered = 0
        has_ids: bool | None = None
        cutoff = None

        def compact(final: bool):
            nonlocal buffer_keys, buffer_ids, buffered, cutoff
            keys = np.concatenate(buffer_keys) if buffer_keys \
                else np.empty(0)
            ids = np.concatenate(buffer_ids) if has_ids else None
            if keys.size > needed:
                # Keep the selection in position (arrival) order so that
                # later compactions and the final sort stay tie-stable.
                keep = _stable_smallest(keys, needed)
                keys, ids = self._take(keys, ids, keep)
                cutoff = float(np.max(keys))
                if cutoff != self._live_cutoff:
                    if self.timeline is not None:
                        self._record_refinement(cutoff)
                    if self.cutoff_listener is not None:
                        self.cutoff_listener(cutoff)
                self._live_cutoff = cutoff
            if final and keys.size:
                order = np.argsort(keys, kind="stable")
                keys, ids = self._take(keys, ids, order)
            buffer_keys = [keys]
            buffer_ids = [ids] if has_ids else []
            buffered = int(keys.size)
            return keys, ids

        for keys, ids in chunks:
            if has_ids is None:
                has_ids = ids is not None
            self.stats.rows_consumed += int(keys.size)
            if cutoff is not None:
                self.stats.cutoff_comparisons += int(keys.size)
                mask = keys <= cutoff
                dropped = int(keys.size - mask.sum())
                if dropped:
                    self.stats.rows_eliminated_on_arrival += dropped
                    keys, ids = self._take(keys, ids, mask)
            else:
                keys, ids = self._drop_nan(keys, ids)
            buffer_keys.append(keys)
            if has_ids:
                buffer_ids.append(ids)
            buffered += int(keys.size)
            if buffered >= compact_at:
                compact(final=False)
        keys, ids = compact(final=True)
        # ``compact`` keeps only the first ``needed``; the final sort may
        # include ties beyond position k — the slice resolves them.
        return self._take(keys, ids, slice(self.offset,
                                           self.offset + self.k))

    # -- external regime ----------------------------------------------------------

    def _flush_run(self, keys: np.ndarray, ids: np.ndarray | None) -> None:
        """Sort one memory load and write it, sharpening as we go."""
        if self.tracer.enabled:
            with self.tracer.span("vectorized.flush_run",
                                  rows=int(keys.size)) as span:
                self._flush_run_inner(keys, ids, span)
        else:
            self._flush_run_inner(keys, ids, None)

    def _flush_run_inner(self, keys: np.ndarray, ids: np.ndarray | None,
                         span) -> None:
        order = np.argsort(keys, kind="stable")
        keys, ids = self._take(keys, ids, order)
        stride = self._stride
        boundaries = keys[stride - 1:min(keys.size, self._histogram_rows):
                          stride].astype(np.float64).tolist()
        inserted = self.cutoff_filter.insert_sorted(boundaries, stride)
        if self.histogram_sink is not None:
            for key in boundaries[:inserted]:
                self.histogram_sink(Bucket(boundary_key=key, size=stride))
        # The run ends in the first refused boundary's segment, or in the
        # rows after the last boundary.
        start = inserted * stride
        end = (start + stride if inserted < len(boundaries)
               else int(keys.size))
        cutoff = self.cutoff_filter.cutoff_key
        written = end if cutoff is None else start + int(
            np.searchsorted(keys[start:end], cutoff, side="right"))
        dropped = int(keys.size) - written
        if dropped:
            self.stats.rows_eliminated_at_spill += dropped
        self.store.write_run(keys[:written],
                             ids[:written] if ids is not None else None)
        if span is not None:
            span.set_attribute("rows_written", written)
            span.set_attribute("rows_eliminated_at_spill", dropped)

    def _execute_external(self, chunks) -> tuple[np.ndarray,
                                                 np.ndarray | None]:
        pending_keys: list[np.ndarray] = []
        pending_ids: list[np.ndarray] = []
        pending = 0
        has_ids: bool | None = None

        def assemble_load() -> bool:
            """Flush one full memory load; False when, after re-filtering,
            not enough admitted rows remain (gather more input first)."""
            nonlocal pending_keys, pending_ids, pending
            keys = np.concatenate(pending_keys)
            ids = np.concatenate(pending_ids) if has_ids else None
            # Rows buffered before the cutoff sharpened still "arrive" at
            # the sort one load at a time: re-filter with the live cutoff
            # (this is what the per-row admission check does naturally in
            # the row engine).
            cutoff = self.cutoff_filter.cutoff_key
            if cutoff is not None:
                mask = keys <= cutoff
                dropped = int(keys.size - mask.sum())
                if dropped:
                    self.stats.rows_eliminated_on_arrival += dropped
                    keys, ids = self._take(keys, ids, mask)
            if keys.size < self.memory_rows:
                pending_keys = [keys] if keys.size else []
                pending_ids = [ids] if has_ids and keys.size else []
                pending = int(keys.size)
                return False
            load_keys, rest_keys = keys[:self.memory_rows], \
                keys[self.memory_rows:]
            if ids is not None:
                load_ids, rest_ids = ids[:self.memory_rows], \
                    ids[self.memory_rows:]
            else:
                load_ids = rest_ids = None
            pending_keys = [rest_keys] if rest_keys.size else []
            pending_ids = [rest_ids] if has_ids and rest_keys.size else []
            pending = int(rest_keys.size)
            self._flush_run(load_keys, load_ids)
            return True

        for keys, ids in chunks:
            if has_ids is None:
                has_ids = ids is not None
            self.stats.rows_consumed += int(keys.size)
            cutoff = self.cutoff_filter.cutoff_key
            if cutoff is not None:
                self.stats.cutoff_comparisons += int(keys.size)
                mask = keys <= cutoff
                dropped = int(keys.size - mask.sum())
                if dropped:
                    self.stats.rows_eliminated_on_arrival += dropped
                    keys, ids = self._take(keys, ids, mask)
            else:
                keys, ids = self._drop_nan(keys, ids)
            if keys.size:
                pending_keys.append(keys)
                if has_ids:
                    pending_ids.append(ids)
                pending += int(keys.size)
            while pending >= self.memory_rows:
                if not assemble_load():
                    break
        if pending:
            keys = np.concatenate(pending_keys)
            ids = np.concatenate(pending_ids) if has_ids else None
            cutoff = self.cutoff_filter.cutoff_key
            if cutoff is not None:
                mask = keys <= cutoff
                dropped = int(keys.size - mask.sum())
                if dropped:
                    self.stats.rows_eliminated_on_arrival += dropped
                    keys, ids = self._take(keys, ids, mask)
            if keys.size:
                self._flush_run(keys, ids)

        return self._select(has_ids=bool(has_ids))

    def _select(self, has_ids: bool) -> tuple[np.ndarray,
                                              np.ndarray | None]:
        """Merge phase: read the filtered survivors and take the top k."""
        with self.tracer.span("vectorized.select",
                              runs=len(self.store.runs)):
            return self._select_inner(has_ids)

    def _select_inner(self, has_ids: bool) -> tuple[np.ndarray,
                                                    np.ndarray | None]:
        needed = self.k + self.offset
        all_keys: list[np.ndarray] = []
        all_ids: list[np.ndarray] = []
        cutoff = self.cutoff_filter.cutoff_key
        for run in list(self.store.runs):
            if cutoff is not None and run.first_key is not None \
                    and run.first_key > cutoff:
                # Entirely above the cutoff: skipped without reading.
                self.store.delete_run(run)
                continue
            keys, ids = self.store.read_run(run, max_key=cutoff)
            if cutoff is not None:
                end = int(np.searchsorted(keys, cutoff, side="right"))
                keys = keys[:end]
                ids = ids[:end] if ids is not None else None
            all_keys.append(keys)
            if has_ids:
                all_ids.append(ids)
        if not all_keys:
            empty = np.empty(0)
            return empty, (np.empty(0, dtype=np.int64) if has_ids
                           else None)
        keys = np.concatenate(all_keys)
        ids = np.concatenate(all_ids) if has_ids else None
        if keys.size > needed:
            keep = _stable_smallest(keys, needed)
            keys, ids = self._take(keys, ids, keep)
        order = np.argsort(keys, kind="stable")
        keys, ids = self._take(keys, ids, order)
        return self._take(keys, ids, slice(self.offset,
                                           self.offset + self.k))
