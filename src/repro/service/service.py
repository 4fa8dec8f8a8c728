"""The concurrent top-k query service front end.

Ties the subsystem together: SQL arrives at :meth:`QueryService.submit`
(or the blocking :meth:`QueryService.execute`), passes a bounded
admission gate, waits for a worker thread, and runs through
:meth:`Database.sql <repro.engine.session.Database.sql>` with

* a memory lease from the :class:`~repro.service.governor.MemoryGovernor`
  (shrunk under pressure → earlier, histogram-filtered spilling instead
  of failure),
* a cutoff seed from the :class:`~repro.service.cache.ResultCache` when
  an earlier query already proved a bound for the same scope (exact hits
  skip execution entirely), and
* a per-query :class:`ServiceStats` record returned with the rows, while
  every aggregate is counted once in the service's
  :class:`~repro.obs.metrics.MetricsRegistry`.

Saturation is explicit: when ``workers + queue_depth`` queries are in
flight, :meth:`submit` raises
:class:`~repro.errors.ServiceOverloadedError` instead of queueing
unboundedly.  Deadlines are cooperative: a query that exhausts its
deadline while still queued is abandoned before execution; one that
exceeds it mid-execution runs to completion (threads cannot be killed)
but the waiting caller gets :class:`~repro.errors.QueryTimeoutError`
immediately.  Every admitted query ends in exactly one outcome
(``ok``, ``timeout`` or ``error``; a refused one is ``rejected``), so
once the service drains ``service.queries.submitted`` equals the sum of
the four outcome counters.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import (
    Future,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engine.session import Database, release_plan_storage
from repro.engine.sql import ParsedQuery, parse
from repro.errors import (
    ConfigurationError,
    QueryTimeoutError,
    ServiceOverloadedError,
)
from repro.obs.metrics import (
    LATENCY_BOUNDARIES,
    MetricsRegistry,
    ROWS_BOUNDARIES,
)
from repro.rows.schema import Schema
from repro.service.cache import CachedResult, ResultCache
from repro.service.governor import MemoryGovernor
from repro.storage.stats import OperatorStats

logger = logging.getLogger(__name__)


@dataclass
class ServiceStats:
    """Per-query service statistics, returned with each result."""

    query: str
    #: How the result cache took part: ``exact`` means the materialized
    #: result was served without executing; ``cutoff`` means the query
    #: executed but was seeded with a cached cutoff bound; ``bypass``
    #: means the query shape is not cacheable (e.g. no ORDER BY + LIMIT);
    #: ``miss`` means it executed unseeded.
    cache: str = "miss"
    #: Seconds between admission and the start of execution.
    queue_wait_seconds: float = 0.0
    #: Seconds spent executing (0 for exact cache hits).
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


@dataclass
class ServiceResult:
    """What the service returns for one query."""

    rows: list[tuple]
    schema: Schema
    query: ParsedQuery
    #: Service-plane record (cache, lease, filtering).
    stats: ServiceStats
    #: Engine-side work of *this* request — zeroed for exact cache hits
    #: (serving a hit does no engine work).
    operator_stats: OperatorStats = field(default_factory=OperatorStats)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def from_cache(self) -> bool:
        """Whether the rows were served without executing."""
        return self.stats.cache == "exact"


class QueryTicket:
    """Handle for an admitted query (a thin wrapper over a future).

    The ticket also holds the query's one outcome.  The worker and the
    deadline race to settle it; only the first settlement is counted.
    """

    def __init__(self, service: "QueryService", deadline: float | None):
        self._service = service
        self._deadline = deadline
        self._submitted_at = time.monotonic()
        self._future: Future | None = None
        self._lock = threading.Lock()
        self._outcome: str | None = None

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Wait for the query; raises what the execution raised.

        Once the query's deadline has passed, the wait raises
        :class:`QueryTimeoutError` and settles the query as a timeout:
        the worker keeps running but its eventual result is discarded,
        so later calls raise too.  A ``timeout`` that ends
        before the deadline (or on a query without one) raises
        :class:`QueryTimeoutError` naming the wait and settles nothing;
        a later call can still return the rows.
        """
        remaining = (None if self._deadline is None else self._deadline
                     - (time.monotonic() - self._submitted_at))
        caller_wait = timeout is not None and (remaining is None
                                               or timeout < remaining)
        try:
            result = self._future.result(
                timeout=timeout if caller_wait else remaining)
        except FutureTimeoutError:
            if caller_wait:
                raise QueryTimeoutError(
                    f"query still running after a {timeout}s wait"
                ) from None
            self._settle("timeout")
            # A worker that settled first is finishing: wait for it.
            result = (None if self._outcome == "timeout"
                      else self._future.result())
        if self._outcome == "timeout":
            raise QueryTimeoutError(
                f"query missed its deadline of {self._deadline}s")
        return result

    def done(self) -> bool:
        return self._future.done()

    def _settle(self, outcome: str) -> bool:
        """Count ``outcome`` unless the query already has one.

        Returns whether this call settled the query.
        """
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
        self._service._m_outcomes[outcome].inc()
        return True


class QueryService:
    """Concurrent SQL front end over one :class:`Database`.

    Args:
        database: The shared database (tables must be registered there).
        workers: Worker threads executing queries.
        queue_depth: Admitted-but-not-yet-running queries tolerated on
            top of the running ones; beyond that :meth:`submit` rejects
            with ``ServiceOverloadedError``.
        total_memory_rows: Global sort-memory budget arbitrated by the
            governor.  Defaults to ``workers *`` the database's
            per-operator budget (i.e. no pressure until queries pile up
            beyond the worker count — shrink behavior appears when you
            configure less).
        memory_rows_per_query: What each query *requests* from the
            governor; defaults to the database's per-operator budget.
        governor: Inject a pre-built governor (overrides
            ``total_memory_rows``).
        cache: Inject a pre-built cache; ``None`` builds a default
            :class:`ResultCache`.  Pass ``ResultCache(max_results=0)``
            to keep cutoff reuse but never serve materialized results.
        default_deadline: Deadline (seconds) applied when a query does
            not bring its own.
        metrics: Inject a shared :class:`MetricsRegistry` (e.g. one
            registry scraped across several services); ``None`` builds
            a private one.  Snapshot via :meth:`metrics_snapshot`.
    """

    def __init__(
        self,
        database: Database,
        *,
        workers: int = 4,
        queue_depth: int = 16,
        total_memory_rows: int | None = None,
        memory_rows_per_query: int | None = None,
        governor: MemoryGovernor | None = None,
        cache: ResultCache | None = None,
        default_deadline: float | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if queue_depth < 0:
            raise ConfigurationError("queue_depth must be >= 0")
        self.database = database
        self.workers = workers
        self.queue_depth = queue_depth
        per_query = (memory_rows_per_query
                     or database.planner.memory_rows)
        self.memory_rows_per_query = per_query
        self.governor = governor or MemoryGovernor(
            total_memory_rows or workers * per_query)
        self.cache = cache if cache is not None else ResultCache()
        self.default_deadline = default_deadline
        #: The service's one aggregate: per-query observations count
        #: here and export as one JSON-ready dict via
        #: :meth:`metrics_snapshot`.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._m_outcomes = {
            outcome: m.counter(f"service.queries.{outcome}")
            for outcome in ("submitted", "ok", "rejected", "timeout",
                            "error")}
        self._m_cache = {
            kind: m.counter(f"service.cache.{kind}")
            for kind in ("miss", "exact", "cutoff", "bypass")}
        self._m_rows = {
            kind: m.counter(f"service.rows.{kind}")
            for kind in ("spilled", "filtered", "filtered_by_seed")}
        # Spill fast-path counters: physical codec traffic and zone-map
        # skips (all zero on the in-memory spill backend).
        self._m_spill = {
            kind: m.counter(f"service.spill.{kind}")
            for kind in ("bytes_encoded", "bytes_decoded",
                         "pages_skipped")}
        # Merge comparison substrate: full-key comparisons vs tournaments
        # decided by offset-value codes alone (see repro.sorting.ovc).
        self._m_comparisons = {
            kind: m.counter(f"sort.comparisons.{kind}")
            for kind in ("full", "code_only")}
        # Rank-aware joins: per-side input cardinalities and the output,
        # plus the streaming merge join's sort-side spill volume.
        self._m_join = {
            kind: m.counter(f"service.join.{kind}")
            for kind in ("queries", "rows_build", "rows_probe",
                         "rows_output", "sort_spilled")}
        # Run-generation-fused GROUP BY: input rows folded into resident
        # group accumulators instead of being buffered/spilled.
        self._m_groups_collapsed = m.counter(
            "service.aggregate.groups_collapsed_rungen")
        # Cutoff pushdown below joins: rows the pre-join filter saw and
        # how many the consumer's published cutoff let it drop.
        self._m_pushdown = {
            kind: m.counter(f"service.pushdown.{kind}")
            for kind in ("queries", "rows_in", "rows_dropped")}
        self._m_inflight = m.gauge("service.queries.inflight")
        self._m_queue_wait = m.histogram(
            "service.query.queue_wait_seconds", LATENCY_BOUNDARIES)
        self._m_execution = m.histogram(
            "service.query.execution_seconds", LATENCY_BOUNDARIES)
        self._m_rows_spilled = m.histogram(
            "service.query.rows_spilled", ROWS_BOUNDARIES)
        self._m_rows_output = m.histogram(
            "service.query.rows_output", ROWS_BOUNDARIES)
        self._slots = threading.Semaphore(workers + queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query")
        self._closed = False

    # -- public API ------------------------------------------------------

    def submit(self, sql_text: str, *,
               deadline: float | None = None) -> QueryTicket:
        """Admit ``sql_text`` and return a ticket, or reject.

        Raises:
            ServiceOverloadedError: when ``workers + queue_depth``
                queries are already in flight.
        """
        if self._closed:
            raise ServiceOverloadedError("service is shut down")
        if deadline is None:
            deadline = self.default_deadline
        self._m_outcomes["submitted"].inc()
        if not self._slots.acquire(blocking=False):
            self._m_outcomes["rejected"].inc()
            raise ServiceOverloadedError(
                f"admission queue full ({self.workers} workers + "
                f"{self.queue_depth} queued); retry later")
        ticket = QueryTicket(self, deadline)
        try:
            ticket._future = self._executor.submit(
                self._run, ticket, sql_text)
        except BaseException:
            self._slots.release()
            self._m_outcomes["rejected"].inc()
            raise
        return ticket

    def execute(self, sql_text: str, *,
                deadline: float | None = None) -> ServiceResult:
        """Submit and wait: the blocking convenience entry point."""
        return self.submit(sql_text, deadline=deadline).result()

    def metrics_snapshot(self) -> dict:
        """Fleet-wide metrics as one JSON-ready dict.

        Counters (``service.queries.*``, ``service.cache.*``,
        ``service.rows.*``), the in-flight gauge, and the latency /
        cardinality histograms, each snapshotted under its own lock.
        """
        return self.metrics.snapshot()

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting queries and (optionally) drain the workers."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- worker path -----------------------------------------------------

    def _run(self, ticket: QueryTicket, sql_text: str) -> ServiceResult:
        try:
            queued = time.monotonic() - ticket._submitted_at
            self._m_queue_wait.observe(queued)
            deadline = ticket._deadline
            if deadline is not None and queued >= deadline:
                ticket._settle("timeout")
                raise QueryTimeoutError(
                    f"query spent {queued:.3f}s queued, past its "
                    f"{deadline}s deadline")
            try:
                result = self._execute_admitted(sql_text, queued)
            except BaseException:
                ticket._settle("error")
                raise
            if ticket._settle("ok"):
                self._m_cache[result.stats.cache].inc()
                self._m_rows_output.observe(len(result.rows))
            return result
        finally:
            self._slots.release()

    def _execute_admitted(self, sql_text: str,
                          queued: float) -> ServiceResult:
        query = parse(sql_text)
        table = self.database.table(query.table)
        join_table = (self.database.table(query.join.table)
                      if query.join is not None else None)
        record = ServiceStats(query=sql_text, queue_wait_seconds=queued)

        result_key = ResultCache.result_key(query, table, join_table)
        scope = ResultCache.scope_key(query, table)
        if scope is None:
            record.cache = "bypass"

        cached = (self.cache.get_result(result_key)
                  if self.cache.max_results else None)
        if cached is not None:
            record.cache = "exact"
            return ServiceResult(rows=cached.rows, schema=cached.schema,
                                 query=query, stats=record)

        seed = None
        if scope is not None and query.limit is not None:
            needed = query.limit + query.offset
            hint = self.cache.get_cutoff(
                scope, needed,
                validator=self._seed_validator(query, table))
            if hint is not None:
                seed = hint.key
                record.cache = "cutoff"
                record.seeded_cutoff = seed

        record.requested_rows = self.memory_rows_per_query
        with self.governor.lease(self.memory_rows_per_query) as lease:
            record.granted_rows = lease.rows
            record.lease_shrunk = lease.shrunk
            started = time.monotonic()
            self._m_inflight.inc()
            try:
                result = self.database.sql(sql_text,
                                           memory_rows=lease.rows,
                                           cutoff_seed=seed)
            finally:
                self._m_inflight.dec()
            # The service materializes results, so the plan's spill
            # storage goes now (``Database.sql`` releases it on failure).
            release_plan_storage(result.plan)
            record.execution_seconds = time.monotonic() - started

        record.rows_spilled = result.stats.io.rows_spilled
        record.rows_filtered = result.stats.rows_eliminated
        record.rows_filtered_by_seed = self._count_plan_work(result.plan)

        if scope is not None and result.final_cutoff is not None:
            self.cache.store_cutoff(
                scope, query.limit + query.offset, result.final_cutoff)
        if self.cache.max_results:
            self.cache.store_result(result_key, CachedResult(
                rows=result.rows, schema=result.schema,
                stats=result.stats.snapshot()))

        self._m_execution.observe(record.execution_seconds)
        self._m_rows_spilled.observe(record.rows_spilled)
        self._m_rows["spilled"].inc(record.rows_spilled)
        self._m_rows["filtered"].inc(record.rows_filtered)
        self._m_rows["filtered_by_seed"].inc(record.rows_filtered_by_seed)
        io = result.stats.io
        self._m_spill["bytes_encoded"].inc(io.bytes_encoded)
        self._m_spill["bytes_decoded"].inc(io.bytes_decoded)
        self._m_spill["pages_skipped"].inc(io.pages_skipped_zone_map)
        self._m_comparisons["full"].inc(result.stats.full_key_comparisons)
        self._m_comparisons["code_only"].inc(result.stats.code_comparisons)
        return ServiceResult(rows=result.rows, schema=result.schema,
                             query=query, stats=record,
                             operator_stats=result.stats)

    def _seed_validator(self, query: ParsedQuery, table):
        """A histogram-bounding validator for nearest-neighbor cutoff
        reuse, or ``None`` when the statistics cannot vouch for seeds.

        The returned callable accepts a *normalized* cutoff key and the
        required coverage, decodes the key back into column value space,
        and asks the current table version's histogram whether at least
        that many rows sort at or below it.  Harvested (run-generation)
        histograms describe only spilled rows, so their absolute counts
        are a conservative lower bound for ascending keys; descending
        keys additionally require a full-scan (``ANALYZE``) sketch,
        whose fractions are unbiased.
        """
        from repro.errors import SchemaError
        from repro.rows.sortspec import SortColumn, SortSpec, \
            key_value_decoder

        catalog = getattr(self.database, "stats_catalog", None)
        if catalog is None or len(query.order_by) != 1:
            return None
        item = query.order_by[0]
        try:
            column = table.schema.resolve(item.column)
        except SchemaError:
            return None
        spec = SortSpec(table.schema,
                        [SortColumn(column, ascending=item.ascending)])
        decode = key_value_decoder(spec)
        if decode is None:
            return None

        def validator(key, needed: int) -> bool:
            if isinstance(key, bytes):
                # Order-preserving byte keys don't decode to values.
                return False
            stats = catalog.get(table.name, table.version)
            sketch = stats.column(column) if stats is not None else None
            if sketch is None or sketch.histogram is None:
                return False
            try:
                value = decode(key)
            except TypeError:
                return False
            histogram = sketch.histogram
            if sketch.rows:
                fraction = histogram.fraction_at_most(value)
                if fraction is None:
                    return False
                total = stats.row_count or sketch.rows
                covered = (fraction if item.ascending
                           else 1.0 - fraction) * total
            elif item.ascending:
                at_most = histogram.rows_at_most(value)
                if at_most is None:
                    return False
                covered = at_most
            else:
                return False
            return covered >= needed

        return validator

    def _count_plan_work(self, plan) -> int:
        """Count the plan's join, pushdown and GROUP BY work into the
        registry, and return the rows its seeded cutoff eliminated (0
        when the plan had no top-k node or the seed never engaged)."""
        from repro.engine.operators import (
            CutoffPushdownFilter,
            GroupedAggregate,
            SortMergeJoin,
            TopK,
            _JoinBase,
        )

        by_seed = 0
        joined = False
        pushdown_rows_in = 0
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, TopK) and node.last_impl is not None:
                cutoff_filter = getattr(node.last_impl, "cutoff_filter",
                                        None)
                if cutoff_filter is not None:
                    by_seed = cutoff_filter.stats.rows_eliminated_by_seed
            elif isinstance(node, _JoinBase):
                joined = True
                self._m_join["rows_build"].inc(node.rows_build)
                self._m_join["rows_probe"].inc(node.rows_probe)
                self._m_join["rows_output"].inc(node.stats.rows_output)
                if isinstance(node, SortMergeJoin):
                    self._m_join["sort_spilled"].inc(
                        node.join_sort_spilled)
            elif isinstance(node, CutoffPushdownFilter):
                pushdown_rows_in += node.rows_in
                self._m_pushdown["rows_in"].inc(node.rows_in)
                self._m_pushdown["rows_dropped"].inc(node.rows_dropped)
            elif isinstance(node, GroupedAggregate):
                self._m_groups_collapsed.inc(node.groups_collapsed_rungen)
            stack.extend(node.children())
        if joined:
            self._m_join["queries"].inc()
        if pushdown_rows_in:
            self._m_pushdown["queries"].inc()
        return by_seed
