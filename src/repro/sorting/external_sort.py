"""A complete external merge sort operator.

This is the substrate the baseline top-k algorithms build on (Sections 2.4
and 2.5): consume the entire input into sorted runs, then merge.  It has no
input filtering of its own — that is exactly the deficiency the paper's
histogram algorithm fixes — but it supports both run-generation algorithms,
fan-in-limited multi-step merges, and top-k/offset-aware final merges.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER
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

#: Run-generation algorithm names accepted by :class:`ExternalSort`.
RUN_GENERATORS = {
    "replacement_selection": ReplacementSelectionRunGenerator,
    "quicksort": QuicksortRunGenerator,
}


class ExternalSort:
    """External merge sort over an arbitrary row stream.

    The comparison substrate follows from ``sort_key``
    (:func:`~repro.sorting.keycodec.binary_key_codec`): binary keys plus
    the offset-value coded tree-of-losers merge for a composite
    :class:`~repro.rows.sortspec.SortSpec`, tuple keys otherwise.

    Args:
        sort_key: A :class:`~repro.rows.sortspec.SortSpec` or a
            normalized sort-key extractor callable.
        memory_rows: Operator memory capacity in rows.
        spill_manager: Secondary-storage substrate.
        run_generation: ``"replacement_selection"`` or ``"quicksort"``.
        run_size_limit: Optional per-run row cap.
        fan_in: Optional merge fan-in limit.
        merge_policy: Run-selection policy for intermediate merges.
        stats: Shared operator counters.
        tracer: Optional :class:`repro.obs.trace.Tracer`; when enabled,
            run generation and the merge phase open spans.
    """

    def __init__(
        self,
        sort_key: SortSpec | Callable[[tuple], Any],
        memory_rows: int,
        spill_manager: SpillManager,
        run_generation: str = "replacement_selection",
        run_size_limit: int | None = None,
        fan_in: int | None = None,
        merge_policy: MergePolicy = MergePolicy.LOWEST_KEYS_FIRST,
        stats: OperatorStats | None = None,
        tracer=None,
    ):
        try:
            generator_cls = RUN_GENERATORS[run_generation]
        except KeyError:
            raise ConfigurationError(
                f"unknown run generation algorithm {run_generation!r}; "
                f"choose from {sorted(RUN_GENERATORS)}"
            ) from None
        resolved_key = (sort_key.key if isinstance(sort_key, SortSpec)
                        else sort_key)
        self.key_codec = binary_key_codec(sort_key)
        if self.key_codec is not None:
            resolved_key = self.key_codec.encode
        self.stats = stats or OperatorStats()
        self._sort_key = resolved_key
        self._spill_manager = spill_manager
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._generator = generator_cls(
            sort_key=resolved_key,
            memory_rows=memory_rows,
            spill_manager=spill_manager,
            run_size_limit=run_size_limit,
            stats=self.stats,
        )
        self._merger = Merger(
            sort_key=resolved_key,
            spill_manager=spill_manager,
            fan_in=fan_in,
            policy=merge_policy,
            tracer=self.tracer,
            ovc=self.key_codec is not None,
            stats=self.stats,
            keys_of=(self.key_codec.encode_batch
                     if self.key_codec is not None else None),
        )
        self.runs: list[SortedRun] = []

    def sort(
        self,
        rows: Iterable[tuple],
        limit: int | None = None,
        offset: int = 0,
    ) -> Iterator[tuple]:
        """Fully sort ``rows``, yielding at most ``limit`` rows after
        ``offset``.

        The entire input is consumed and spilled before the first output row
        is produced — the "traditional" behavior whose cost the paper's
        algorithm avoids.
        """
        def counted(stream: Iterable[tuple]) -> Iterator[tuple]:
            for row in stream:
                self.stats.rows_consumed += 1
                yield row

        with self.tracer.span("external_sort.run_generation") as span:
            self.runs = self._generator.generate(counted(rows))
            if self.tracer.enabled:
                span.set_attribute("runs", len(self.runs))
                span.set_attribute("rows_consumed",
                                   self.stats.rows_consumed)
        for row in self._merger.merge_topk(self.runs, limit, offset=offset):
            self.stats.rows_output += 1
            yield row


class StreamingSorter:
    """Bounded-memory sort of a pre-keyed row stream.

    The building block the streaming sort-merge join sides run on: feed
    ``(key, row)`` pairs with :meth:`consume_keyed`, read them back in
    key order from :meth:`stream`.  While the input fits in
    ``memory_rows`` the sort is one stable in-memory pass and storage is
    never touched; the first overflowing row hands everything buffered
    so far to quicksort run generation on the spill substrate, and the
    output becomes a fan-in-limited multiway merge of the spilled runs
    (whose files are reclaimed as the stream ends).

    Both paths are stable — the in-memory positional sort, the run
    loads (arrival order within each load), and the merge's
    run-position tie-break all preserve arrival order among equal keys —
    so the output sequence is exactly ``sorted(pairs, key=first)``.

    Args:
        sort_key: Key extractor matching the keys fed in (only used
            when spilled runs must be re-read and merged).
        memory_rows: Rows the sorter may hold before spilling.
        spill_manager: Secondary-storage substrate (shared managers are
            fine; the sorter deletes only its own run files and never
            closes the manager).
        stats: Shared operator counters (sort/merge comparisons; spill
            I/O lands on the manager's :class:`IOStats`).
        fan_in: Optional merge fan-in limit.
        ovc: Merge via the OVC tree of losers (binary-key feeds only).
    """

    def __init__(
        self,
        sort_key: Callable[[tuple], Any],
        memory_rows: int,
        spill_manager: SpillManager,
        stats: OperatorStats | None = None,
        fan_in: int | None = None,
        ovc: bool = False,
    ):
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        self._sort_key = sort_key
        self._memory_rows = memory_rows
        self._spill_manager = spill_manager
        self.stats = stats or OperatorStats()
        self._fan_in = fan_in
        self._ovc = ovc
        self._keys: list = []
        self._rows: list[tuple] = []
        self._generator: QuicksortRunGenerator | None = None
        #: Whether the input exceeded memory and runs were written.
        self.spilled = False

    def consume_keyed(self, keyed_rows: Iterable[tuple]) -> None:
        """Drain ``(key, row)`` pairs into the sorter (eagerly)."""
        iterator = iter(keyed_rows)
        if self._generator is None:
            keys, rows = self._keys, self._rows
            limit = self._memory_rows
            for pair in iterator:
                if len(rows) >= limit:
                    # Overflow: switch to run generation, seeded with the
                    # buffered load, and stream the rest straight through.
                    self.spilled = True
                    self._generator = QuicksortRunGenerator(
                        sort_key=self._sort_key,
                        memory_rows=limit,
                        spill_manager=self._spill_manager,
                        stats=self.stats,
                    )
                    self._generator.consume_keyed(zip(keys, rows))
                    self._keys, self._rows = [], []
                    iterator = chain([pair], iterator)
                    break
                keys.append(pair[0])
                rows.append(pair[1])
            else:
                return
        self._generator.consume_keyed(iterator)

    def stream(self) -> Iterator[tuple[Any, tuple]]:
        """Yield all consumed ``(key, row)`` pairs in key order."""
        if self._generator is None:
            keys, rows = self._keys, self._rows
            n = len(rows)
            if n > 1:
                order = sorted(range(n), key=keys.__getitem__)
                # Same n log n CPU-effort proxy as a run-buffer sort.
                self.stats.sort_comparisons += n * max(1, n.bit_length())
                for position in order:
                    yield keys[position], rows[position]
            elif n:
                yield keys[0], rows[0]
            return
        runs = self._generator.finish()
        merger = Merger(
            sort_key=self._sort_key,
            spill_manager=self._spill_manager,
            fan_in=self._fan_in,
            ovc=self._ovc,
            stats=self.stats,
        )
        yield from merger.merge_stream(runs)
