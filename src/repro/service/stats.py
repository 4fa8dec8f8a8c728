"""Service-level observability.

Each query handled by the :class:`~repro.service.service.QueryService`
produces one :class:`ServiceStats` record — the service-plane counterpart
of the engine's per-operator :class:`~repro.storage.stats.OperatorStats`:
queue wait, admission outcome, memory-lease shrinkage, cache interaction,
and how much input the seeded cutoff eliminated.  A shared
:class:`ServiceStatsAggregator` folds the records (and the per-query I/O
counters) into a :class:`ServiceSnapshot` under a lock, per the threading
contract documented on :class:`~repro.storage.stats.IOStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.storage.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.storage.stats import IOStats, OperatorStats, ThreadSafeIOStats

#: Admission/completion outcomes a query can end in.
OUTCOMES = ("ok", "rejected", "timeout", "error")

#: How the result cache participated in a query.
CACHE_OUTCOMES = ("miss", "exact", "cutoff", "bypass")


@dataclass
class ServiceStats:
    """Per-query service statistics (one record per submitted query)."""

    query: str
    #: One of :data:`OUTCOMES`.
    outcome: str = "ok"
    #: One of :data:`CACHE_OUTCOMES`.  ``exact`` means the materialized
    #: result was served without executing; ``cutoff`` means the query
    #: executed but was seeded with a cached cutoff bound; ``bypass``
    #: means the query shape is not cacheable (e.g. no ORDER BY + LIMIT).
    cache: str = "miss"
    #: Seconds between admission and the start of execution.
    queue_wait_seconds: float = 0.0
    #: Seconds spent executing (0 for cache hits and rejections).
    execution_seconds: float = 0.0
    #: Memory rows the query asked the governor for.
    requested_rows: int = 0
    #: Memory rows the governor actually granted.
    granted_rows: int = 0
    #: Whether the grant was shrunk below the request (memory pressure).
    lease_shrunk: bool = False
    #: The cutoff key seeded into the execution, if any.
    seeded_cutoff: Any = None
    #: Rows the cutoff filter eliminated while its cutoff was the seed.
    rows_filtered_by_seed: int = 0
    #: Rows eliminated by the cutoff filter in total (any cutoff origin).
    rows_filtered: int = 0
    #: Rows spilled to secondary storage by this query.
    rows_spilled: int = 0
    #: Worker session that served the query (-1 before assignment).
    session_id: int = -1
    #: Whether the plan contained a join operator.
    joined: bool = False
    #: Rows the join(s) built hash/sorted state from (right side).
    join_rows_build: int = 0
    #: Rows the join(s) probed with (left side).
    join_rows_probe: int = 0
    #: Matched rows the join(s) emitted (excludes left-join padding).
    join_rows_output: int = 0
    #: Rows that reached pre-join cutoff pushdown filters.
    pushdown_rows_in: int = 0
    #: Rows those filters dropped using the consumer's published cutoff.
    pushdown_rows_dropped: int = 0
    #: Sort-side rows the streaming merge join(s) spilled to runs.
    join_sort_spilled: int = 0
    #: Input rows run-generation-fused GROUP BY collapsed into resident
    #: group accumulators instead of buffering.
    groups_collapsed_rungen: int = 0
    #: Error description for ``outcome == "error"``.
    error: str | None = None

    @property
    def total_seconds(self) -> float:
        """Queue wait plus execution time."""
        return self.queue_wait_seconds + self.execution_seconds


@dataclass
class ServiceSnapshot:
    """Aggregated service-level statistics at a point in time."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    cache_exact_hits: int = 0
    cache_cutoff_hits: int = 0
    cache_misses: int = 0
    lease_shrinks: int = 0
    rows_filtered_by_seed: int = 0
    queries_joined: int = 0
    join_rows_build: int = 0
    join_rows_probe: int = 0
    join_rows_output: int = 0
    pushdown_rows_in: int = 0
    pushdown_rows_dropped: int = 0
    join_sort_spilled: int = 0
    groups_collapsed_rungen: int = 0
    queue_wait_seconds: float = 0.0
    execution_seconds: float = 0.0
    #: Aggregate engine-side work across all completed queries.
    operator: OperatorStats = field(default_factory=OperatorStats)
    #: Aggregate secondary-storage traffic across all completed queries.
    io: IOStats = field(default_factory=IOStats)

    def simulated_seconds(self,
                          cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Total simulated I/O+CPU time under a storage cost model."""
        return cost_model.total_seconds(self.operator)

    def describe(self) -> str:
        """Compact human-readable summary."""
        return (
            f"queries={self.completed}/{self.submitted} "
            f"(rej={self.rejected} timeout={self.timeouts} "
            f"err={self.errors}); "
            f"cache exact={self.cache_exact_hits} "
            f"cutoff={self.cache_cutoff_hits} miss={self.cache_misses}; "
            f"lease shrinks={self.lease_shrinks}; "
            f"spilled={self.io.rows_spilled} rows"
        )


class ServiceStatsAggregator:
    """Thread-safe accumulator of per-query records into a snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot = ServiceSnapshot(io=ThreadSafeIOStats())
        self._recent: list[ServiceStats] = []
        self._recent_limit = 256

    def note_submitted(self) -> None:
        with self._lock:
            self._snapshot.submitted += 1

    def record(self, stats: ServiceStats,
               operator: OperatorStats | None = None) -> None:
        """Fold one finished query's record (and optional engine stats)."""
        with self._lock:
            snap = self._snapshot
            if stats.outcome == "ok":
                snap.completed += 1
            elif stats.outcome == "rejected":
                snap.rejected += 1
            elif stats.outcome == "timeout":
                snap.timeouts += 1
            else:
                snap.errors += 1
            if stats.outcome == "ok":
                if stats.cache == "exact":
                    snap.cache_exact_hits += 1
                elif stats.cache == "cutoff":
                    snap.cache_cutoff_hits += 1
                elif stats.cache == "miss":
                    snap.cache_misses += 1
            if stats.lease_shrunk:
                snap.lease_shrinks += 1
            snap.rows_filtered_by_seed += stats.rows_filtered_by_seed
            if stats.joined:
                snap.queries_joined += 1
            snap.join_rows_build += stats.join_rows_build
            snap.join_rows_probe += stats.join_rows_probe
            snap.join_rows_output += stats.join_rows_output
            snap.pushdown_rows_in += stats.pushdown_rows_in
            snap.pushdown_rows_dropped += stats.pushdown_rows_dropped
            snap.join_sort_spilled += stats.join_sort_spilled
            snap.groups_collapsed_rungen += stats.groups_collapsed_rungen
            snap.queue_wait_seconds += stats.queue_wait_seconds
            snap.execution_seconds += stats.execution_seconds
            if operator is not None:
                snap.operator.merge(operator)
                snap.io.merge(operator.io)
            self._recent.append(stats)
            del self._recent[:-self._recent_limit]

    def snapshot(self) -> ServiceSnapshot:
        """A detached, consistent copy of the aggregate state."""
        with self._lock:
            snap = self._snapshot
            copy = ServiceSnapshot(
                submitted=snap.submitted,
                completed=snap.completed,
                rejected=snap.rejected,
                timeouts=snap.timeouts,
                errors=snap.errors,
                cache_exact_hits=snap.cache_exact_hits,
                cache_cutoff_hits=snap.cache_cutoff_hits,
                cache_misses=snap.cache_misses,
                lease_shrinks=snap.lease_shrinks,
                rows_filtered_by_seed=snap.rows_filtered_by_seed,
                queries_joined=snap.queries_joined,
                join_rows_build=snap.join_rows_build,
                join_rows_probe=snap.join_rows_probe,
                join_rows_output=snap.join_rows_output,
                pushdown_rows_in=snap.pushdown_rows_in,
                pushdown_rows_dropped=snap.pushdown_rows_dropped,
                join_sort_spilled=snap.join_sort_spilled,
                groups_collapsed_rungen=snap.groups_collapsed_rungen,
                queue_wait_seconds=snap.queue_wait_seconds,
                execution_seconds=snap.execution_seconds,
                operator=snap.operator.snapshot(),
            )
            copy.io = snap.io.snapshot()
            return copy

    def recent(self, limit: int = 20) -> list[ServiceStats]:
        """The most recent per-query records, newest last."""
        with self._lock:
            return list(self._recent[-limit:])
