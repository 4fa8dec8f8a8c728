"""Database session: table registry + SQL execution.

The user-facing entry point of the mini engine::

    db = Database(memory_rows=7_000)
    db.register_table("LINEITEM", LINEITEM_SCHEMA, rows)
    result = db.sql("SELECT * FROM LINEITEM ORDER BY L_ORDERKEY LIMIT 30000")
    for row in result:
        ...
    print(result.stats.io.rows_spilled)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.operators import Operator, Table, TopK, VectorizedTopK
from repro.engine.planner import Planner
from repro.engine.sql import ParsedQuery, cutoff_scope, parse
from repro.errors import PlanError, StaleCutoffSeed
from repro.obs.explain import AnalyzedPlan, PlanProbe
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rows.schema import Schema
from repro.rows.sortspec import key_value_decoder
from repro.stats import StatsCatalog, TableStats
from repro.storage.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.storage.stats import OperatorStats

logger = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """Materialized query result plus execution metadata."""

    rows: list[tuple]
    schema: Schema
    plan: Operator
    query: ParsedQuery
    stats: OperatorStats = field(default_factory=OperatorStats)
    #: Key of the last produced top-k row (overall rank ``k + offset``)
    #: when the plan was a plain top-k that produced its full output;
    #: ``None`` otherwise.  This is the tightest valid ``cutoff_seed``
    #: for a repeat of the query over the same table version.
    final_cutoff: Any = None
    #: Per-operator measurements (``EXPLAIN ANALYZE``); populated only
    #: when the query ran with ``explain_analyze=True``.
    analysis: AnalyzedPlan | None = None
    #: The tracer that observed this execution, when one was attached.
    tracer: Any = None
    #: The top-k operator's cutoff sharpening timeline (traced runs only).
    cutoff_timeline: Any = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def explain(self) -> str:
        """The physical plan as indented text."""
        return self.plan.explain()

    def explain_analyze(self) -> str:
        """The measured plan tree (``EXPLAIN ANALYZE`` text).

        Only available when the query was executed with
        ``explain_analyze=True``.
        """
        if self.analysis is None:
            raise PlanError(
                "no analysis recorded; execute the query with "
                "sql(..., explain_analyze=True)")
        return self.analysis.render()

    def simulated_seconds(self,
                          cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Simulated execution time under a storage cost model."""
        return cost_model.total_seconds(self.stats)


class Database:
    """An in-process database over registered tables.

    Args:
        memory_rows: Memory budget (rows) for each sorting operator.
        algorithm: Default top-k algorithm (``"histogram"``).
        algorithm_options: Extra options forwarded to the top-k algorithm.
        stats_catalog: Inject a pre-built
            :class:`~repro.stats.StatsCatalog`; ``None`` builds one
            (persisting under ``stats_path`` when given).  The catalog
            feeds the planner's estimates and is refilled by
            :meth:`analyze` scans, run-generation histogram harvesting,
            and post-execution cardinality feedback.
        stats_path: Directory for the default catalog's per-table JSON
            files; statistics then survive process restarts.
        force_path: Pin every plain top-k plan to one physical path
            (``"batch"`` or ``"vectorized"``) instead of the lowering
            rule (vectorized when eligible, else batch) — a
            differential and benchmark knob; a query the pinned path
            cannot run raises :class:`~repro.errors.PlanError`.
        join_method: ``"merge"`` pins the sort-merge join; ``"auto"``
            (default) and ``"hash"`` run the hash join.
        pushdown: Pin top-k cutoff pushdown below joins (``True`` on
            wherever valid, ``False`` off); ``None`` (default) costs it
            on against off.
    """

    def __init__(
        self,
        memory_rows: int = 100_000,
        algorithm: str = "histogram",
        algorithm_options: dict | None = None,
        stats_catalog: StatsCatalog | None = None,
        stats_path=None,
        force_path: str | None = None,
        join_method: str = "auto",
        pushdown: bool | None = None,
    ):
        self._tables: dict[str, Table] = {}
        self.stats_catalog = (stats_catalog if stats_catalog is not None
                              else StatsCatalog(path=stats_path))
        self.planner = Planner(
            memory_rows=memory_rows,
            algorithm=algorithm,
            algorithm_options=algorithm_options,
            stats_catalog=self.stats_catalog,
            path=force_path,
            join_method=join_method,
            pushdown=pushdown,
        )

    # -- registry -------------------------------------------------------------

    def register_table(
        self,
        name: str,
        schema: Schema,
        source: Sequence[tuple] | Callable[[], Iterable[tuple]],
        row_count: int | None = None,
        sorted_by: Sequence[str] | None = None,
    ) -> Table:
        """Register (or replace) a table and return it.

        ``sorted_by`` declares the physical (ascending) sort order of the
        stored rows; the planner exploits shared prefixes with ORDER BY
        clauses (Section 4.2) and nothing else: joins plan the same
        whatever order a table declares.

        Re-registering a name bumps the table's content version so that
        caches keyed on ``(name, version)`` stop serving stale entries.
        """
        previous = self._tables.get(name.upper())
        version = previous.version + 1 if previous is not None else 0
        table = Table(name, schema, source, row_count=row_count,
                      sorted_by=sorted_by, version=version)
        self._tables[name.upper()] = table
        if previous is not None:
            # Statistics describe table *content*; a replaced table must
            # not be planned with the old version's sketches.
            self.stats_catalog.invalidate(name)
        return table

    def analyze(self, name: str) -> TableStats:
        """Scan ``name`` and (re)build its statistics catalog entry.

        The explicit feed: exact row/null counts, min/max, KMV distinct
        estimates, and an equi-depth histogram per column.  Returns the
        stored :class:`~repro.stats.TableStats`.
        """
        return self.stats_catalog.analyze(self.table(name))

    def table(self, name: str) -> Table:
        """Look up a table case-insensitively."""
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise PlanError(
                f"unknown table {name!r}; registered: "
                f"{sorted(self._tables)}") from None

    @property
    def tables(self) -> list[str]:
        """Names of all registered tables."""
        return sorted(self._tables)

    # -- execution ---------------------------------------------------------------

    def plan(self, sql_text: str) -> Operator:
        """Parse and plan without executing."""
        query = parse(sql_text)
        return self.planner.plan(query, self.table(query.table),
                                 join_table=self._join_table(query))

    def _join_table(self, query: ParsedQuery) -> Table | None:
        """Resolve the query's JOIN table, when it has one."""
        if query.join is None:
            return None
        return self.table(query.join.table)

    def sql(
        self,
        sql_text: str,
        *,
        memory_rows: int | None = None,
        cutoff_seed: Any = None,
        explain_analyze: bool = False,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Parse, plan and execute ``sql_text``; results are materialized.

        The plan's spill storage (run files, run pages) is released
        before this returns or raises, so a held result pins no spill
        storage.

        Args:
            memory_rows: Per-query memory budget override (e.g. a shrunk
                lease granted by a memory governor); ``None`` uses the
                session default.
            cutoff_seed: Optional initial cutoff bound for top-k plans
                (cutoff reuse).  Safety: a stale or over-tight seed is
                detected by the operator and the query is transparently
                re-executed without it, so the result is always correct.
            explain_analyze: Measure the execution: the result carries an
                :class:`~repro.obs.explain.AnalyzedPlan` (per-operator
                wall time, rows in/out, elimination sites, final cutoff)
                plus the cutoff timeline, and ``explain_analyze()``
                renders the classic text tree.  Implies a tracer.
            tracer: Optional :class:`~repro.obs.trace.Tracer` observing
                the execution (phase spans, cutoff refinement events).
        """
        query = parse(sql_text)
        return self._execute(query, memory_rows=memory_rows,
                             cutoff_seed=cutoff_seed,
                             explain_analyze=explain_analyze,
                             tracer=tracer)

    def _execute(self, query: ParsedQuery, *, memory_rows: int | None,
                 cutoff_seed: Any, explain_analyze: bool = False,
                 tracer: Tracer | None = None) -> QueryResult:
        if explain_analyze and tracer is None:
            tracer = Tracer()
        table = self.table(query.table)
        plan = self.planner.plan(query, table,
                                 memory_rows=memory_rows,
                                 cutoff_seed=cutoff_seed,
                                 tracer=tracer,
                                 join_table=self._join_table(query))
        topk = _plan_topk_node(plan)
        harvest = (self._attach_harvest(topk, query)
                   if topk is not None else None)
        probe = PlanProbe(plan) if explain_analyze else None
        active = tracer if tracer is not None else NULL_TRACER
        stale = None
        try:
            with active.span("query", table=query.table):
                rows = list(plan.rows())
        except StaleCutoffSeed as exc:
            stale = exc
        finally:
            # Drained or failed, the plan's runs are dead: the result
            # holds its rows, never spill files or pages.
            release_plan_storage(plan)
        if stale is not None:
            # The seed asserted coverage the input did not have.  The
            # session owns replayable sources, so correctness degrades to
            # a plain (seedless) re-execution, never to a wrong answer.
            logger.warning("discarding stale cutoff seed: %s", stale)
            return self._execute(query, memory_rows=memory_rows,
                                 cutoff_seed=None,
                                 explain_analyze=explain_analyze,
                                 tracer=tracer)
        if topk is not None:
            self._feed_stats(table, query, topk, harvest)
        stats = _collect_stats(plan)
        return QueryResult(rows=rows, schema=plan.schema, plan=plan,
                           query=query, stats=stats,
                           final_cutoff=_final_cutoff(plan),
                           analysis=(probe.analyze() if probe is not None
                                     else None),
                           tracer=tracer,
                           cutoff_timeline=_cutoff_timeline(plan))

    def explain(self, sql_text: str) -> str:
        """The physical plan for ``sql_text`` as text."""
        return self.plan(sql_text).explain()

    # -- statistics feedback ---------------------------------------------

    def _attach_harvest(self, topk: Operator, query: ParsedQuery):
        """Attach a run-histogram collector to the plan's top-k node.

        Returns ``(collector, column_name, un_normalize)`` when the
        execution's spilled-bucket boundaries can be mapped back into
        column value space, else ``None``:

        * WHERE predicates bias the scanned distribution — only
          predicate-free executions harvest;
        * the sort key must be a single non-nullable column whose
          normalized keys decode (raw values or negated numerics — not
          order-preserving byte strings).
        """
        if query.predicates or query.join is not None:
            # Join output is not a column sample of the base table.
            return None
        spec = getattr(topk, "sort_spec", None)
        if spec is None or not hasattr(topk, "histogram_sink"):
            return None
        un_normalize = key_value_decoder(spec)
        if un_normalize is None:
            return None
        pairs: list[tuple[Any, int]] = []
        topk.histogram_sink = (
            lambda bucket: pairs.append((bucket.boundary_key, bucket.size)))
        return pairs, spec.columns[0].name, un_normalize

    def _feed_stats(self, table: Table, query: ParsedQuery,
                    topk: Operator, harvest) -> None:
        """Post-execution catalog feedback (cardinalities + histograms)."""
        catalog = self.stats_catalog
        if harvest is not None:
            pairs, column, un_normalize = harvest
            if pairs:
                catalog.harvest(
                    table, column,
                    [(un_normalize(boundary), size)
                     for boundary, size in pairs])
        if query.join is not None:
            # The top-k consumed *join output* rows; feeding that back
            # as the left table's cardinality would corrupt the catalog.
            return
        stats = topk.__dict__.get("stats")
        consumed = getattr(stats, "rows_consumed", 0)
        if consumed:
            catalog.observe(table, cutoff_scope(query), consumed,
                            had_predicates=bool(query.predicates))

    def paginate(self, sql_text: str, page_size: int,
                 prefetch_pages: int = 4):
        """Serve a top-k query page by page without re-sorting per page.

        ``sql_text`` must be an ``ORDER BY ... LIMIT`` query without
        OFFSET or PER; its LIMIT is ignored in favor of ``page_size``
        paging.  Returns a :class:`~repro.extensions.offset.Paginator`
        whose pages are projected rows (Sections 2.7 / 4.1: the sorted
        runs from the first execution are retained and every later page
        merges from them).
        """
        from repro.extensions.offset import Paginator
        from repro.engine.operators import Project, TopK

        query = parse(sql_text)
        if (not query.is_topk or query.offset or query.per_column
                or query.join is not None or query.is_aggregate):
            raise PlanError(
                "paginate() needs a single-table ORDER BY ... LIMIT "
                "query without OFFSET, PER, JOIN or aggregates")
        plan = self.planner.plan(query, self.table(query.table))
        # Peel the projection and the top-k node: the paginator re-sorts
        # from the top-k's *input* and projects on the way out.
        projector = None
        node = plan
        if isinstance(node, Project):
            projector = node.schema.names
            source_schema = node.child.schema
            node = node.child
        if not isinstance(node, TopK):
            raise PlanError(
                "paginate() supports plain top-k plans only (the "
                "planner chose a specialized operator for this query)")
        child = node.child
        paginator = Paginator(
            make_input=child.rows,
            sort_key=node.sort_spec,
            page_size=page_size,
            memory_rows=self.planner.memory_rows,
            prefetch_pages=prefetch_pages,
        )
        if projector is None:
            return paginator
        return _ProjectedPaginator(paginator, source_schema, projector)


class _ProjectedPaginator:
    """Applies a column projection to every served page."""

    def __init__(self, paginator, schema: Schema, columns):
        self._paginator = paginator
        self._project = schema.projector(columns)

    def page(self, page_number: int) -> list[tuple]:
        project = self._project
        return [project(row) for row in self._paginator.page(page_number)]

    def pages(self):
        project = self._project
        for page in self._paginator.pages():
            yield [project(row) for row in page]

    @property
    def executions(self) -> int:
        return self._paginator.executions

    @property
    def stats(self):
        return self._paginator.stats


def _plan_topk_node(plan: Operator) -> Operator | None:
    """The plan's plain top-k node (batch or vectorized), if any."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (TopK, VectorizedTopK)):
            return node
        stack.extend(node.children())
    return None


def _collect_stats(plan: Operator) -> OperatorStats:
    """Aggregate operator stats from the plan tree (nodes that execute a
    top-k algorithm carry an ``OperatorStats``)."""
    total = OperatorStats()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node.__dict__.get("stats"), OperatorStats):
            total.merge(node.stats)
        stack.extend(node.children())
    return total


def _final_cutoff(plan: Operator) -> Any:
    """The achieved cutoff of the plan's top-k node, if any.

    Only plain (histogram) top-k nodes record one; the first non-``None``
    value wins (a supported plan has at most one such node).
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, TopK) and node.last_impl is not None:
            cutoff = getattr(node.last_impl, "final_cutoff", None)
            if cutoff is not None:
                return cutoff
        stack.extend(node.children())
    return None


def _cutoff_timeline(plan: Operator) -> Any:
    """The top-k node's cutoff timeline, when one was recorded."""
    stack = [plan]
    while stack:
        node = stack.pop()
        impl = node.__dict__.get("last_impl")
        if impl is not None:
            timeline = getattr(impl, "timeline", None)
            if timeline is not None:
                return timeline
        stack.extend(node.children())
    return None


def release_plan_storage(plan: Operator) -> None:
    """Close every spill manager attached to the plan tree.

    Deletes all spill files a (possibly failed) execution left behind —
    sealed, unsealed, or merely undeleted — and releases backend
    resources.  Statistics counters survive (they are plain records).
    After this, the plan must not be re-executed.  :meth:`Database.sql`
    calls it for every plan it runs; a caller needs it only for a plan
    it runs itself (``db.plan(sql).rows()``).
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        manager = node.__dict__.get("spill_manager")
        if manager is not None:
            manager.close()
        stack.extend(node.children())
