"""Baseline: in-memory top-k with a priority queue (Section 2.3).

The standard algorithm for small ``k``: a max-heap tracks the k smallest
keys seen so far; its top is the cutoff key and almost the entire input is
eliminated on arrival.  It is "perfectly suitable for the easiest cases but
... neither scalable nor robust": the moment ``k + offset`` rows do not fit
in the operator's memory it simply cannot run — which this implementation
reports honestly by raising :class:`MemoryBudgetExceeded` unless the caller
explicitly provisions unbounded memory (as the Figure 6 cost comparison
does).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

from repro.core.cutoff import _HeapEntry
from repro.errors import ConfigurationError, MemoryBudgetExceeded
from repro.rows.batch import flatten
from repro.rows.sortspec import SortSpec
from repro.storage.stats import OperatorStats


class PriorityQueueTopK:
    """In-memory priority-queue top-k operator.

    Args:
        sort_key: A :class:`SortSpec` or key-extraction callable.
        k: Requested output size.
        memory_rows: Operator memory capacity in rows; ``None`` provisions
            memory for the entire output (the resource-wasteful strategy
            Section 2.1 argues against, quantified by Figure 6).
        offset: Rows to skip before producing output.
    """

    def __init__(
        self,
        sort_key: SortSpec | Callable[[tuple], Any],
        k: int,
        memory_rows: int | None = None,
        offset: int = 0,
        stats: OperatorStats | None = None,
    ):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if offset < 0:
            raise ConfigurationError("offset must be non-negative")
        self.sort_key = (sort_key.key if isinstance(sort_key, SortSpec)
                         else sort_key)
        self.k = k
        self.offset = offset
        needed = k + offset
        if memory_rows is not None and needed > memory_rows:
            raise MemoryBudgetExceeded(
                f"priority-queue top-k needs memory for {needed} rows but "
                f"only {memory_rows} fit; use HistogramTopK instead"
            )
        self.memory_rows = memory_rows if memory_rows is not None else needed
        self.stats = stats or OperatorStats()

    def execute_batches(self, batches) -> Iterator[tuple]:
        """Batch-pipeline adapter: flattens and runs row-at-a-time."""
        return self.execute(flatten(batches))

    def execute(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Consume ``rows`` and yield the top k rows in sort order."""
        needed = self.k + self.offset
        sort_key = self.sort_key
        stats = self.stats
        heap: list[_HeapEntry] = []
        seq = 0
        for row in rows:
            stats.rows_consumed += 1
            key = sort_key(row)
            if len(heap) < needed:
                seq += 1
                heapq.heappush(heap, _HeapEntry(key, seq, row))
                stats.sort_comparisons += max(1, len(heap).bit_length())
                continue
            stats.cutoff_comparisons += 1
            if key < heap[0].key:
                seq += 1
                heapq.heapreplace(heap, _HeapEntry(key, seq, row))
                stats.sort_comparisons += max(1, len(heap).bit_length())
            stats.rows_eliminated_on_arrival += 1
        survivors = sorted(heap, key=lambda entry: (entry.key, entry.seq))
        for entry in survivors[self.offset:]:
            stats.rows_output += 1
            yield entry.row

    @property
    def peak_memory_rows(self) -> int:
        """Rows of memory the operator actually needs resident."""
        return self.k + self.offset
