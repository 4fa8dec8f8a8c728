"""Alternative strategy: range partitioning for top-k (Sections 2.1, 3.3).

Route each input row into a range partition by its key; as soon as the
low-key partitions together hold ``k`` rows, every higher partition can be
discarded wholesale.  The paper notes this is conceptually close to its
histogram filter — "range partitions and histogram buckets are very
similar concepts" — with one decisive difference: **effective range
partitioning requires foreknowledge of the key distribution** (approximate
quantiles), while the histogram filter learns the distribution during run
generation.

:class:`RangePartitionTopK` implements the strategy honestly:

* partition boundaries must be supplied (or sampled via
  :func:`repro.shard.partition.boundaries_from_sample`, which models a
  prior statistics pass);
* partitions spill to storage as they fill (the output exceeds memory);
* once the cumulative count in low partitions reaches ``k``, later rows
  belonging to higher partitions are dropped on arrival;
* the final answer sorts only the retained partitions.

With well-placed boundaries it performs comparably to the histogram
filter; with boundaries from a stale or skewed sample it degrades — the
trade the strategy benchmarks quantify.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.topk import HistogramTopK
from repro.errors import ConfigurationError
from repro.rows.sortspec import SortSpec
from repro.sorting.runs import RunWriter, SortedRun
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats


class RangePartitionTopK:
    """Top-k via range partitioning with known boundaries.

    Args:
        sort_key: :class:`SortSpec` or key extractor.
        k: Requested output size.
        memory_rows: Total memory budget in rows (shared by the partition
            buffers).
        boundaries: Ascending partition boundary keys; rows with
            ``key <= boundaries[i]`` (and above the previous boundary)
            land in partition ``i``; the last partition is unbounded.
    """

    def __init__(
        self,
        sort_key: SortSpec | Callable[[tuple], Any],
        k: int,
        memory_rows: int,
        boundaries: Sequence[Any],
        spill_manager: SpillManager | None = None,
        stats: OperatorStats | None = None,
    ):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        ordered = list(boundaries)
        if ordered != sorted(ordered):
            raise ConfigurationError("boundaries must be ascending")
        if not ordered:
            raise ConfigurationError("at least one boundary is required")
        self.sort_key = (sort_key.key if isinstance(sort_key, SortSpec)
                         else sort_key)
        self.k = k
        self.memory_rows = memory_rows
        self.boundaries = ordered
        self.spill_manager = spill_manager or SpillManager()
        self.stats = stats or OperatorStats()
        self.stats.io = self.spill_manager.stats
        partition_count = len(ordered) + 1
        self._buffers: list[list[tuple]] = [[] for _ in range(partition_count)]
        self._buffered_rows = 0
        self._spilled: list[list[SortedRun]] = [[] for _ in
                                                range(partition_count)]
        self._counts = [0] * partition_count
        self._cut_partition = partition_count  # first discarded partition
        self._next_run_id = 0

    # -- internals -------------------------------------------------------

    def _partition_of(self, key: Any) -> int:
        return bisect.bisect_left(self.boundaries, key)

    def _update_cut(self) -> None:
        """Advance the discard frontier: the first partition index whose
        lower partitions already hold >= k rows."""
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= self.k:
                new_cut = index + 1
                if new_cut < self._cut_partition:
                    self._discard_from(new_cut)
                return

    def _discard_from(self, partition: int) -> None:
        self._cut_partition = partition
        for index in range(partition, len(self._buffers)):
            dropped = len(self._buffers[index])
            if dropped:
                self.stats.rows_eliminated_at_spill += dropped
                self._buffered_rows -= dropped
                self._buffers[index] = []
            for run in self._spilled[index]:
                self.spill_manager.delete_file(run.file)
            self._spilled[index] = []

    def _spill_largest_buffer(self) -> None:
        index = max(range(self._cut_partition),
                    key=lambda i: len(self._buffers[i]),
                    default=None)
        if index is None or not self._buffers[index]:
            # Everything buffered belongs to discarded partitions.
            return
        buffer = self._buffers[index]
        self._buffers[index] = []
        self._buffered_rows -= len(buffer)
        buffer.sort(key=self.sort_key)
        writer = RunWriter(self.spill_manager, self._next_run_id)
        self._next_run_id += 1
        for row in buffer:
            writer.write(self.sort_key(row), row)
        self._spilled[index].append(writer.close())

    # -- public API ----------------------------------------------------------

    def execute(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Consume ``rows`` and yield the top k in sort order."""
        sort_key = self.sort_key
        stats = self.stats
        for row in rows:
            stats.rows_consumed += 1
            key = sort_key(row)
            partition = self._partition_of(key)
            if partition >= self._cut_partition:
                stats.rows_eliminated_on_arrival += 1
                continue
            self._buffers[partition].append(row)
            self._buffered_rows += 1
            self._counts[partition] += 1
            if self._counts[partition] == self.k \
                    or stats.rows_consumed % 256 == 0:
                self._update_cut()
            if self._buffered_rows >= self.memory_rows:
                self._spill_largest_buffer()

        self._update_cut()
        produced = 0
        for index in range(self._cut_partition):
            if produced >= self.k:
                break
            remaining = self.k - produced
            partition_rows = self._partition_rows(index)
            inner = HistogramTopK(
                sort_key,
                k=remaining,
                memory_rows=self.memory_rows,
                spill_manager=self.spill_manager,
            )
            for row in inner.execute(partition_rows):
                produced += 1
                stats.rows_output += 1
                yield row

    def _partition_rows(self, index: int) -> Iterator[tuple]:
        for run in self._spilled[index]:
            yield from run.rows()
        yield from self._buffers[index]

    @property
    def partitions_discarded(self) -> int:
        """Partitions dropped wholesale by the cumulative-count rule."""
        return len(self._buffers) - self._cut_partition
