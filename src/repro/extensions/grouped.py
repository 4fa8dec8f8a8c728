"""Grouped top-k: the top rows *within each group* (Section 4.3).

Example: "the 10 million most active customers from each country".  The
principal difficulty is bookkeeping: instead of a single cutoff key, the
operator tracks one histogram priority queue and one cutoff key per group.
Rows are eliminated on arrival / at spill against **their own group's**
filter; groups too small to ever exceed ``k`` rows simply never establish a
cutoff.

Implementation notes:

* Run generation is shared: one replacement-selection generator sorted on
  the composite key ``(group, sort key)``, so each run is clustered by
  group and the merge produces group-contiguous output.
* Histograms are built per group from each run's spilled rows; per the
  paper, bucket sizing is decided independently per group (small groups
  get what they get — a partial tail bucket is discarded as usual).
* The final merge emits at most ``k`` rows per group and skips rows of
  groups that are already complete.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.cutoff import CutoffFilter
from repro.core.histogram import RunHistogramBuilder
from repro.core.policies import SizingPolicy, TargetBucketsPolicy
from repro.errors import ConfigurationError
from repro.rows.sortspec import SortSpec
from repro.sorting.merge import Merger
from repro.sorting.replacement_selection import (
    ReplacementSelectionRunGenerator,
)
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats


class GroupedTopK:
    """Top-k within each group of an unsorted, ungrouped input stream.

    Args:
        group_key: Callable extracting a hashable group identifier.
        sort_key: :class:`SortSpec` or key extractor for the in-group order.
        k: Rows to keep per group.
        memory_rows: Shared memory budget in rows.
        spill_manager: Secondary-storage substrate (private one if omitted).
        sizing_policy: Per-group histogram sizing (stride derived from the
            memory capacity; the per-group builder simply sees fewer rows).
        group_encoder: Optional row → bytes encoder of the group columns
            (order-preserving, prefix-free — a
            :func:`~repro.sorting.keycodec.compile_keycodec` encoder).  Given
            together with ``value_encoder``, the operator runs in
            *binary composite key* mode: the run-generation sort key is
            ``group_bytes ‖ sort_bytes`` and the final merge is the OVC
            tree-of-losers.  Because the group encoding is prefix-free,
            concatenation both clusters runs by group and orders rows
            within a group exactly like the sort key alone, so per-group
            cutoff filters operate directly on composite byte keys.
        value_encoder: Row → bytes encoder of the in-group sort key;
            required with ``group_encoder``.
    """

    def __init__(
        self,
        group_key: Callable[[tuple], Hashable],
        sort_key: SortSpec | Callable[[tuple], Any],
        k: int,
        memory_rows: int,
        spill_manager: SpillManager | None = None,
        sizing_policy: SizingPolicy | None = None,
        stats: OperatorStats | None = None,
        group_encoder: Callable[[tuple], bytes] | None = None,
        value_encoder: Callable[[tuple], bytes] | None = None,
    ):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if memory_rows <= 0:
            raise ConfigurationError("memory_rows must be positive")
        if (group_encoder is None) != (value_encoder is None):
            raise ConfigurationError(
                "group_encoder and value_encoder must be given together")
        self.group_key = group_key
        self.value_key = (sort_key.key if isinstance(sort_key, SortSpec)
                          else sort_key)
        self.group_encoder = group_encoder
        self.value_encoder = value_encoder
        #: Whether the binary composite-key lowering is active.
        self.binary = group_encoder is not None
        self.k = k
        self.memory_rows = memory_rows
        self.spill_manager = spill_manager or SpillManager()
        self.sizing_policy = sizing_policy or TargetBucketsPolicy(capped=False)
        self.stats = stats or OperatorStats()
        self.stats.io = self.spill_manager.stats
        self._filters: dict[Hashable, CutoffFilter] = {}
        self._builders: dict[Hashable, RunHistogramBuilder] = {}

    # -- per-group filter plumbing ---------------------------------------------

    def _filter_for(self, group: Hashable) -> CutoffFilter:
        cutoff_filter = self._filters.get(group)
        if cutoff_filter is None:
            cutoff_filter = CutoffFilter(k=self.k)
            self._filters[group] = cutoff_filter
        return cutoff_filter

    def _builder_for(self, group: Hashable) -> RunHistogramBuilder:
        builder = self._builders.get(group)
        if builder is None:
            builder = RunHistogramBuilder(
                policy=self.sizing_policy,
                expected_run_rows=self.memory_rows,
                sink=self._filter_for(group).insert,
            )
            self._builders[group] = builder
        return builder

    def _composite_key(self, row: tuple):
        if self.binary:
            return self.group_encoder(row) + self.value_encoder(row)
        group = self.group_key(row)
        return (_group_orderable(group), self.value_key(row))

    def _arrival_key(self, row: tuple):
        """The key the row's group filter operates on.

        Binary mode filters on full composite bytes: within one group
        the (fixed, prefix-free) group prefix is constant, so composite
        order equals sort-key order — no splitting needed anywhere.
        """
        if self.binary:
            return self._composite_key(row)
        return self.value_key(row)

    def _spill_filter(self, composite: tuple) -> bool:
        group_token, value = composite
        cutoff_filter = self._filters.get(group_token.group)
        if cutoff_filter is None:
            return False
        return cutoff_filter.eliminate(value)

    def _spill_filter_keyed(self, key: bytes, row: tuple) -> bool:
        cutoff_filter = self._filters.get(self.group_key(row))
        if cutoff_filter is None:
            return False
        return cutoff_filter.eliminate(key)

    def _on_spill(self, composite: tuple, _row: tuple) -> None:
        group_token, value = composite
        self._builder_for(group_token.group).add(value)

    def _on_spill_binary(self, key: bytes, row: tuple) -> None:
        self._builder_for(self.group_key(row)).add(key)

    def _on_run_closed(self, _run) -> None:
        for builder in self._builders.values():
            builder.close()

    # -- execution ----------------------------------------------------------------

    def cutoff_key(self, group: Hashable) -> Any:
        """The current cutoff key of ``group`` (``None`` if none)."""
        cutoff_filter = self._filters.get(group)
        return cutoff_filter.cutoff_key if cutoff_filter else None

    def execute(self, rows: Iterable[tuple]) -> Iterator[tuple[Hashable, tuple]]:
        """Yield ``(group, row)`` pairs: up to k rows per group, grouped
        and in sort order within each group."""
        stats = self.stats
        binary = self.binary
        generator = ReplacementSelectionRunGenerator(
            sort_key=self._composite_key,
            memory_rows=self.memory_rows,
            spill_manager=self.spill_manager,
            spill_filter=None if binary else self._spill_filter,
            spill_filter_keyed=self._spill_filter_keyed if binary else None,
            on_spill=self._on_spill_binary if binary else self._on_spill,
            on_run_closed=self._on_run_closed,
            stats=stats,
        )

        def admitted(stream: Iterable[tuple]) -> Iterator[tuple]:
            for row in stream:
                stats.rows_consumed += 1
                group = self.group_key(row)
                cutoff_filter = self._filters.get(group)
                if cutoff_filter is not None:
                    stats.cutoff_comparisons += 1
                    if cutoff_filter.eliminate(self._arrival_key(row)):
                        stats.rows_eliminated_on_arrival += 1
                        continue
                yield row

        runs = generator.generate(admitted(rows))
        merger = Merger(sort_key=self._composite_key,
                        spill_manager=self.spill_manager,
                        ovc=binary, stats=stats)
        produced: dict[Hashable, int] = {}
        for row in merger.merge_topk(runs, k=None):
            group = self.group_key(row)
            count = produced.get(group, 0)
            if count >= self.k:
                continue
            produced[group] = count + 1
            stats.rows_output += 1
            yield group, row


class _group_orderable:
    """Wraps arbitrary hashable groups so heterogeneous ones still sort.

    ``None`` groups order last — matching the engine-wide NULLS LAST
    convention (:class:`~repro.rows.sortspec.SortSpec` normalization and
    the binary key codec), so tuple-key and composite-byte-key
    executions emit groups in the same order.  Other groups that resist
    direct comparison are ordered by ``(type name, repr)``, which only
    needs to be *consistent*, not meaningful: grouping correctness never
    depends on which group sorts first.
    """

    __slots__ = ("group",)

    def __init__(self, group: Hashable):
        self.group = group

    def __lt__(self, other: "_group_orderable") -> bool:
        if self.group is None:
            return False  # NULLS LAST: never less than anything
        if other.group is None:
            return True
        try:
            return self.group < other.group
        except TypeError:
            mine = (type(self.group).__name__, repr(self.group))
            theirs = (type(other.group).__name__, repr(other.group))
            return mine < theirs

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _group_orderable)
                and self.group == other.group)

    def __hash__(self) -> int:
        return hash(self.group)

    def __repr__(self) -> str:
        return f"_group_orderable({self.group!r})"
