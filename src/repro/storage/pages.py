"""Page layout for spilled rows.

Runs are written to secondary storage in fixed-capacity pages so that the
number of storage requests (the expensive unit in a disaggregated setting)
is proportional to bytes, not rows.  A :class:`Page` holds a batch of rows
plus its estimated byte size; :class:`PageBuilder` packs consecutive rows
until the byte capacity is reached.

Serialization lives in :mod:`repro.storage.codec` (typed columnar format
with a pickle fallback); the in-memory backend keeps the row lists
directly and only uses the byte accounting.

A page can also carry the *normalized sort keys* of its rows (populated
by :class:`~repro.sorting.runs.RunWriter` at write time, or recomputed
page-at-a-time on the merge read path).  Cached keys are derivable, so
only the codec's optional key section ever stores them, but they let the
merge heap compare precomputed keys instead of invoking the comparator
once per row.  Offset-value codes are not page state at all: the
binary-key merge's run scan computes them per page as it delivers the
page (:meth:`~repro.sorting.runs.SortedRun.coded_rows`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

from repro.errors import SpillError

#: Default page capacity: 64 KiB, a common unit for log-structured writes.
DEFAULT_PAGE_BYTES = 64 * 1024


def default_row_size(row: Sequence[Any]) -> int:
    """The default byte estimate of one row: 16 bytes plus 8 per column."""
    return 16 + 8 * len(row)


@dataclass
class Page:
    """A batch of rows with byte-size accounting.

    ``keys``, when present, parallels ``rows`` with each row's normalized
    sort key (a merge-side cache; serialized only in the codec's key
    section).
    """

    rows: list[tuple]
    byte_size: int
    keys: list | None = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class PageBuilder:
    """Packs rows into pages of bounded byte size.

    Args:
        page_bytes: Byte capacity per page.
        row_size: Callable estimating the byte footprint of one row;
            defaults to :func:`default_row_size`, a cheap
            length-insensitive constant suitable for synthetic keys-only
            workloads.
    """

    page_bytes: int = DEFAULT_PAGE_BYTES
    row_size: Callable[[Sequence[Any]], int] = default_row_size

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise SpillError("page capacity must be positive")
        self._rows: list[tuple] = []
        self._keys: list = []
        self._bytes = 0

    @property
    def pending_rows(self) -> int:
        """Rows buffered but not yet emitted as a page."""
        return len(self._rows)

    def add(self, row: tuple, key: Any = None) -> Page | None:
        """Buffer ``row``; return a completed page when capacity is reached.

        A single row larger than the page capacity still gets its own page —
        oversized variable-length rows must remain spillable (this is one of
        the robustness problems of the pure priority-queue algorithm that
        Section 2.3 calls out).

        ``key``, when given, is the row's normalized sort key; a page whose
        every row carried one is emitted with its key cache populated.
        """
        size = self.row_size(row)
        self._rows.append(row)
        if key is not None:
            self._keys.append(key)
        self._bytes += size
        if self._bytes >= self.page_bytes:
            return self.flush()
        return None

    def extend(self, rows: Sequence[tuple],
               keys: Sequence | None = None) -> list[Page]:
        """Buffer a batch of rows; return every page completed on the way.

        The batch equivalent of repeated :meth:`add` calls (identical
        page boundaries), amortizing the per-call overhead over a whole
        spill batch.  A trailing partial page stays buffered as usual.
        ``keys``, when given, parallels ``rows``.
        """
        # ``running[i]``: bytes of the open page plus the first ``i`` rows.
        # A page ends at the first row that brings its bytes to the
        # capacity, found by bisection; whole slices move into it.
        running = self._running_bytes(rows)
        total = len(rows)
        pages: list[Page] = []
        opened = 0  # ``running`` value where the open page began
        start = 0
        while True:
            end = bisect_left(running, opened + self.page_bytes, start + 1)
            self._rows.extend(rows[start:end])
            if keys is not None:
                self._keys.extend(keys[start:end])
            if end > total:
                self._bytes = running[total] - opened
                return pages
            self._bytes = running[end] - opened
            pages.append(self.flush())
            opened = running[end]
            start = end

    def _running_bytes(self, rows: Sequence[tuple]) -> Sequence[int]:
        """The open page's bytes, then that plus each prefix of ``rows``.

        Under :func:`default_row_size`, rows of one width cost the same,
        so a ``range`` holds the sums without a call per row; any other
        estimator is called once per row.
        """
        if self.row_size is default_row_size:
            widths = set(map(len, rows))
            if len(widths) == 1:
                size = default_row_size(rows[0])
                return range(self._bytes,
                             self._bytes + (len(rows) + 1) * size, size)
        return list(accumulate(map(self.row_size, rows),
                               initial=self._bytes))

    def flush(self) -> Page | None:
        """Emit whatever is buffered as a page, or ``None`` if empty."""
        if not self._rows:
            return None
        keys = self._keys if len(self._keys) == len(self._rows) else None
        page = Page(rows=self._rows, byte_size=self._bytes, keys=keys)
        self._rows = []
        self._keys = []
        self._bytes = 0
        return page
