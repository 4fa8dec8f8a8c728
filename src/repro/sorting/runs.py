"""Sorted runs on secondary storage.

A *run* is a sorted sequence of rows written once and scanned sequentially
during merging.  :class:`RunWriter` streams rows into pages on a spill file
while verifying sort order and collecting metadata; the sealed result is a
:class:`SortedRun`.

Run writers expose an ``on_spill`` hook invoked *after* each row is
physically appended — this is exactly the paper's ``rowSpilled`` call
(Algorithm 1, line 13) through which the cutoff-filter logic builds its
histogram while the run is still being written.

Each run also records the first key of every page — a tiny page index
(the "linear partitioned b-tree" idea of Section 4.1) that lets deep
``OFFSET`` merges skip whole pages without reading them, while knowing
exactly how many rows were skipped.

When the engine runs on binary keys (:mod:`repro.sorting.keycodec`),
:meth:`SortedRun.coded_rows` hands the merge ``(key, row, code)``
triples.  The offset-value codes exist only there: the scan computes
each page's codes as it delivers the page, so no writer computes them
and no page stores them.  The early-terminating merge reads a fraction
of the spilled rows, and only those rows are ever coded.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import lt
from typing import Any, Callable, Iterator

from repro.errors import SpillError
from repro.sorting.ovc import code_sequence
from repro.storage.pages import Page, PageBuilder
from repro.storage.spill import SpillFile, SpillManager


def _ensure_keys(sort_key: Callable[[tuple], Any]
                 ) -> Callable[[Page], Page]:
    """Page transform that populates the key cache when absent.

    Pages written through :class:`RunWriter` already carry their keys on
    the in-memory backend; disk pages come back without them, and this
    transform recomputes them one page at a time, as the scan loads the
    page.
    """
    def transform(page: Page) -> Page:
        if page.keys is None:
            page.keys = [sort_key(row) for row in page.rows]
        return page
    return transform


@dataclass(slots=True)
class SortedRun:
    """Metadata and reader for one sealed sorted run."""

    run_id: int
    file: SpillFile
    row_count: int
    first_key: Any = None
    last_key: Any = None
    truncated: bool = False
    #: First key of each page — the page index used by offset skipping.
    page_first_keys: list = field(default_factory=list)

    def rows(self, cutoff: Any = None) -> Iterator[tuple]:
        """Sequentially scan the run's rows in sort order."""
        return self.file.rows(cutoff=cutoff)

    def keyed_rows(self, sort_key: Callable[[tuple], Any],
                   start_page: int = 0,
                   cutoff: Any = None) -> Iterator[tuple[Any, tuple]]:
        """Scan ``(key, row)`` pairs using the page-level key cache.

        Keys cached at write time are reused; otherwise they are computed
        one page at a time.  This is the merge's scan, so it reads ahead
        on backends with real I/O: the next
        :data:`~repro.storage.spill.READ_AHEAD_PAGES` pages are decoded
        and keyed before they are needed.  ``cutoff`` (binary keys only)
        enables zone-map pruning: the scan stops at the first page whose
        min key exceeds it, before decoding the page.
        """
        transform = _ensure_keys(sort_key)
        for page in self.file.pages(start_page=start_page,
                                    prefetch=True,
                                    transform=transform,
                                    cutoff=cutoff):
            yield from zip(page.keys, page.rows)

    def coded_rows(self, encode: Callable[[tuple], bytes],
                   start_page: int = 0, cutoff: Any = None
                   ) -> Iterator[tuple[bytes, tuple, int]]:
        """Scan ``(key, row, code)`` triples for the OVC merge.

        Keys are reused or recomputed as in :meth:`keyed_rows`.  Each
        page's codes come from one
        :func:`~repro.sorting.ovc.code_sequence` over its keys as the
        page is delivered; they are yielded, never stored on the page.
        A page's base is the previous page's last key, and the scan's
        first row gets :data:`~repro.sorting.ovc.INITIAL_CODE`, also
        when the scan starts mid-file (``start_page > 0``).  ``cutoff``
        as in :meth:`keyed_rows`.
        """
        base = None
        for page in self.file.pages(start_page=start_page,
                                    prefetch=True,
                                    transform=_ensure_keys(encode),
                                    cutoff=cutoff):
            keys = page.keys
            yield from zip(keys, page.rows, code_sequence(base, keys))
            base = keys[-1]

    def _skip_start(self, skip_key: Any) -> tuple[int, int]:
        """The shared page-skip rule: ``(start_page, rows_skipped)``.

        A page's rows are all <= the next page's first key, so every
        page whose successor starts strictly below ``skip_key`` holds
        only keys < ``skip_key`` and can be skipped wholesale.  The
        first delivered page may still contain keys below ``skip_key``
        — callers with OFFSET semantics count those against the offset
        like any other leading row.
        """
        if not self.page_first_keys or skip_key is None:
            return 0, 0
        start = bisect.bisect_left(self.page_first_keys, skip_key)
        start = max(0, start - 1)
        return start, sum(self.file.page_row_counts[:start])

    def keyed_rows_skipping(
        self, sort_key: Callable[[tuple], Any], skip_key: Any,
        cutoff: Any = None,
    ) -> tuple[int, Iterator[tuple[Any, tuple]]]:
        """Keyed variant of :meth:`rows_skipping` (same skip rule)."""
        start, skipped = self._skip_start(skip_key)
        return skipped, self.keyed_rows(sort_key, start_page=start,
                                        cutoff=cutoff)

    def coded_rows_skipping(
        self, encode: Callable[[tuple], bytes], skip_key: Any,
        cutoff: Any = None,
    ) -> tuple[int, Iterator[tuple[bytes, tuple, int]]]:
        """Coded variant of :meth:`rows_skipping` (same skip rule)."""
        start, skipped = self._skip_start(skip_key)
        return skipped, self.coded_rows(encode, start_page=start,
                                        cutoff=cutoff)

    def rows_skipping(self, skip_key: Any, cutoff: Any = None
                      ) -> tuple[int, Iterator[tuple]]:
        """Scan the run, skipping leading pages that end below
        ``skip_key`` — without reading them (see :meth:`_skip_start`
        for the rule; ``cutoff`` additionally prunes the scan's *tail*
        via zone maps).
        """
        start, skipped = self._skip_start(skip_key)
        return skipped, self.file.rows(start_page=start, cutoff=cutoff)

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        keys = f"[{self.first_key!r} .. {self.last_key!r}]"
        flag = " truncated" if self.truncated else ""
        return f"SortedRun(#{self.run_id}, {self.row_count} rows, {keys}{flag})"


class RunWriter:
    """Streams sorted rows into a spill file.

    Args:
        spill_manager: Storage substrate providing the file and accounting.
        run_id: Identifier recorded in the resulting :class:`SortedRun`.
        on_spill: Optional callback ``(key, row)`` fired after each row
            :meth:`write` appends — the paper's ``rowSpilled`` hook.
        check_order: Verify keys are non-decreasing (cheap; on by default).
    """

    __slots__ = ("_manager", "_file", "_builder", "_on_spill",
                 "_check_order", "run_id", "row_count", "first_key",
                 "last_key", "truncated", "page_first_keys", "_closed")

    def __init__(
        self,
        spill_manager: SpillManager,
        run_id: int,
        on_spill: Callable[[Any, tuple], None] | None = None,
        check_order: bool = True,
    ):
        self._manager = spill_manager
        self._file = spill_manager.create_file()
        self._builder: PageBuilder = spill_manager.new_page_builder()
        self._on_spill = on_spill
        self._check_order = check_order
        self.run_id = run_id
        self.row_count = 0
        self.first_key: Any = None
        self.last_key: Any = None
        self.truncated = False
        self.page_first_keys: list = []
        self._closed = False

    def write(self, key: Any, row: tuple) -> None:
        """Append one row (must not sort before the previous row)."""
        if self._closed:
            raise SpillError("run writer is already closed")
        if self._check_order and self.row_count and key < self.last_key:
            raise SpillError(
                f"run #{self.run_id} order violation: {key!r} after "
                f"{self.last_key!r}"
            )
        if self._builder.pending_rows == 0:
            # This row opens a new page: index its key.
            self.page_first_keys.append(key)
        page = self._builder.add(row, key)
        if page is not None:
            self._file.append_page(page)
        if self.row_count == 0:
            self.first_key = key
        self.last_key = key
        self.row_count += 1
        if self._on_spill is not None:
            self._on_spill(key, row)

    def write_batch(self, keys: list, rows: list[tuple]) -> None:
        """Append one sorted batch of rows (the batch form of :meth:`write`).

        ``keys`` parallels ``rows`` and must be non-decreasing, also
        against the run's last key; the whole batch is checked, pairwise
        in C.  Run metadata is updated once per batch instead of once per
        row.  Page boundaries and the page-first-key index are identical
        to per-row writes.  ``on_spill`` is a per-row hook, so a writer
        that has one takes rows through :meth:`write` only.
        """
        count = len(rows)
        if count == 0:
            return
        if self._closed:
            raise SpillError("run writer is already closed")
        if self._on_spill is not None:
            raise SpillError("a writer with on_spill takes rows one by one")
        first = keys[0]
        if self._check_order and (
                (self.row_count and first < self.last_key)
                or any(map(lt, islice(keys, 1, None), keys))):
            self._raise_order_violation(keys)
        # ``boundary`` walks the page-opening positions in batch-local
        # coordinates; a carried partial page opened before this batch
        # (negative start) was already indexed.
        boundary = -self._builder.pending_rows
        pages = self._builder.extend(rows, keys)
        for page in pages:
            if boundary >= 0:
                self.page_first_keys.append(keys[boundary])
            boundary += len(page)
            self._file.append_page(page)
        if self._builder.pending_rows and 0 <= boundary < count:
            self.page_first_keys.append(keys[boundary])
        if self.row_count == 0:
            self.first_key = first
        self.last_key = keys[count - 1]
        self.row_count += count

    def _raise_order_violation(self, keys: list) -> None:
        pairs = zip(keys, islice(keys, 1, None))
        if self.row_count:
            pairs = chain(((self.last_key, keys[0]),), pairs)
        for earlier, key in pairs:
            if key < earlier:
                raise SpillError(
                    f"run #{self.run_id} order violation: {key!r} after "
                    f"{earlier!r}")

    def close(self) -> SortedRun:
        """Flush, seal and return the finished :class:`SortedRun`."""
        if self._closed:
            raise SpillError("run writer is already closed")
        page = self._builder.flush()
        if page is not None:
            self._file.append_page(page)
        self._file.seal()
        self._closed = True
        self._manager.stats.runs_written += 1
        return SortedRun(
            run_id=self.run_id,
            file=self._file,
            row_count=self.row_count,
            first_key=self.first_key,
            last_key=self.last_key,
            truncated=self.truncated,
            page_first_keys=self.page_first_keys,
        )

    def abandon(self) -> None:
        """Discard the partially-written run (e.g. it became empty)."""
        if not self._closed:
            self._file.seal()
            self._manager.delete_file(self._file)
            self._closed = True


def write_run(
    spill_manager: SpillManager,
    run_id: int,
    keyed_rows,
    on_spill: Callable[[Any, tuple], None] | None = None,
) -> SortedRun:
    """Write an iterable of ``(key, row)`` pairs as one run (test helper)."""
    writer = RunWriter(spill_manager, run_id, on_spill=on_spill)
    for key, row in keyed_rows:
        writer.write(key, row)
    return writer.close()
