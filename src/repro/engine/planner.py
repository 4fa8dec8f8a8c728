"""Planner: turn a :class:`ParsedQuery` into a physical operator tree.

Plans are intentionally simple — scan, optional filter, then either a
top-k, a full sort, or a plain limit, then a projection.  The paper
makes the top-k *algorithm* choice moot (the histogram operator adapts
at runtime, Sections 2.3 and 5.2), and the physical choices around it
are made by rules, not by ranking costed alternatives:

* a plain top-k lowers onto the vectorized numpy kernels when
  :func:`vectorized_lowering_eligible` holds, and otherwise onto the
  batch operator, whose key substrate the sort spec picks
  (:func:`~repro.sorting.keycodec.binary_key_codec`);
* a join runs as a hash join; the sort-merge join runs only when
  ``join_method="merge"`` pins it;
* a table's declared ``sorted_by`` order earns only Section 4.2's
  sorted-prefix plans (a plain limit or a segmented top-k).

``path=``, ``join_method=`` and ``pushdown=`` pin the choices.  The
:class:`~repro.storage.costmodel.CostModel`, fed by the statistics
catalog (:mod:`repro.stats`) when one is attached, estimates the chosen
plan for ``EXPLAIN``; the one choice it still makes is whether to push
a top-k's cutoff below a join, by costing pushdown on against off.
Each decision records the rule that fired, and ``EXPLAIN`` prints it.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.cutoff import leading_column_prefilter
from repro.engine.operators import (
    CutoffPushdownFilter,
    Filter,
    GroupedAggregate,
    GroupedTopKOperator,
    HashJoin,
    InMemorySort,
    Limit,
    MergePushdownPublisher,
    Operator,
    Project,
    SegmentedTopKOperator,
    SharedCutoffBound,
    SortMergeJoin,
    Table,
    TableScan,
    TopK,
    VectorizedTopK,
)
from repro.engine.sql import Aggregate, Comparison, ParsedQuery, cutoff_scope
from repro.errors import PlanError, SchemaError
from repro.rows.batch import numeric_key_column
from repro.rows.schema import Column, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.sorting.keycodec import binary_key_codec, compile_keycodec
from repro.storage.costmodel import (
    CostModel,
    DEFAULT_COST_MODEL,
    JoinCost,
    PlanCost,
)
from repro.storage.spill import SpillManager

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

#: Input cardinality assumed when neither the table nor the catalog
#: knows (callable sources before their first scan).
DEFAULT_ROW_ESTIMATE = 100_000

#: Fallback selectivities when no column sketch is available (the
#: textbook System-R defaults).
_DEFAULT_SELECTIVITY = {"=": 0.1, "!=": 0.9}
_DEFAULT_RANGE_SELECTIVITY = 1 / 3


def _resolve_column(schema: Schema, name: str) -> str:
    """Case-insensitive column lookup returning the canonical name."""
    try:
        return schema.resolve(name)
    except SchemaError as exc:
        raise PlanError(str(exc)) from None


def _vectorized_refusal(spec: SortSpec, algorithm: str,
                        algorithm_options: dict | None,
                        cutoff_seed: Any) -> str | None:
    """Why a plain top-k may not lower onto the numpy kernels, or
    ``None`` when it may (see :func:`vectorized_lowering_eligible`)."""
    if algorithm != "histogram":
        return f"algorithm={algorithm} runs on the row engine"
    if algorithm_options:
        return "algorithm options configure the row engine"
    if cutoff_seed is not None:
        return "a cutoff seed needs the row engine's stale-seed check"
    if numeric_key_column(spec) is None:
        return "the key is not one non-nullable numeric column"
    return None


def vectorized_lowering_eligible(
    spec: SortSpec,
    *,
    algorithm: str = "histogram",
    algorithm_options: dict | None = None,
    cutoff_seed: Any = None,
) -> bool:
    """Whether a plain top-k may lower onto the numpy kernels.

    Lowering requires every condition the kernels assume:

    * the paper's histogram algorithm with no ablation options;
    * no ``cutoff_seed`` (the kernels have no stale-seed detection;
      seeded repeats run on the row engine);
    * a single non-nullable numeric ORDER BY column, so batch key
      columns extract as float64 arrays (numpy present).
    """
    return _vectorized_refusal(spec, algorithm, algorithm_options,
                               cutoff_seed) is None


def _compile_predicates(schema: Schema,
                        predicates: list[Comparison]):
    """Compile WHERE conjuncts into one callable plus a description.

    SQL three-valued logic: a comparison against a NULL column value is
    not true, so the row is rejected (this matters for ``!=``, where
    Python's ``None != x`` would otherwise admit the row, and for the
    padded rows a LEFT join's residual right-side predicates see).
    """
    compiled = []
    parts = []
    for predicate in predicates:
        column = _resolve_column(schema, predicate.column)
        index = schema.index_of(column)
        comparator = _COMPARATORS[predicate.op]
        value = predicate.value
        compiled.append((index, comparator, value))
        parts.append(f"{column} {predicate.op} {predicate.value!r}")

    def test(row: tuple) -> bool:
        for index, comparator, value in compiled:
            field_value = row[index]
            if field_value is None or not comparator(field_value, value):
                return False
        return True

    return test, " AND ".join(parts)


@dataclass(frozen=True)
class TopKChoice:
    """The physical path a plain top-k lowers to, and its estimate."""

    path: str              # "batch" | "vectorized"
    keys: str              # "tuple" | "ovc" | "-" (vectorized)
    cost: PlanCost

    def label(self) -> str:
        encoding = "" if self.keys == "-" else f"/{self.keys}"
        return f"{self.path}{encoding}"


@dataclass(frozen=True)
class PlanDecision:
    """The planner's lowering of one top-k query, kept on the operator
    node for ``EXPLAIN`` / ``EXPLAIN ANALYZE`` auditing."""

    chosen: TopKChoice
    #: The rule that picked ``chosen.path``: a pin or the lowering rule.
    rule: str
    #: Estimated input cardinality (after WHERE selectivity).
    estimated_rows: float
    #: Estimated WHERE selectivity applied to the base cardinality
    #: (1.0 when the query has no predicates).
    estimated_selectivity: float
    #: Where the estimates came from: ``"observed"`` (post-execution
    #: feedback for this exact scope), ``"catalog"`` (column sketches),
    #: ``"table"`` (registered row count only), or ``"default"``.
    stats_source: str

    def describe(self) -> str:
        cost = self.chosen.cost
        fan_in = cost.fan_in if cost.fan_in is not None else "-"
        return "\n".join([
            (f"Planner: path={self.chosen.path} "
             f"keys={self.chosen.keys} "
             f"fan_in={fan_in} "
             f"cost={cost.seconds:.4f}s [stats={self.stats_source}]"),
            f"  rule: {self.rule}",
            (f"  estimated: rows_in={self.estimated_rows:.0f} "
             f"(selectivity {self.estimated_selectivity:.3f}) "
             f"rows_spilled={cost.rows_spilled:.0f} runs={cost.runs} "
             f"merge_passes={cost.merge_passes} "
             f"cpu={cost.cpu_seconds:.4f}s io={cost.io_seconds:.4f}s"),
        ])


@dataclass(frozen=True)
class JoinChoice:
    """The physical join a query runs, and its estimate."""

    method: str            # "hash" | "merge"
    pushdown: bool         # cutoff pushdown below the join's sort side
    cost: JoinCost

    def label(self) -> str:
        return f"{self.method}{'+pushdown' if self.pushdown else ''}"


@dataclass(frozen=True)
class JoinDecision:
    """The planner's join choice, kept on the join node for ``EXPLAIN``
    / ``EXPLAIN ANALYZE`` auditing (rendered through the same
    ``describe()`` surface as :class:`PlanDecision`)."""

    chosen: JoinChoice
    #: The rules that picked the method and the pushdown, in one line.
    rule: str
    estimated_left_rows: float
    estimated_right_rows: float
    estimated_out_rows: float
    #: The join input that supplies every ORDER BY column (``"left"`` /
    #: ``"right"``) when cutoff pushdown is *valid* for the query;
    #: ``None`` otherwise.  Whether it is *worthwhile* is what
    #: ``chosen.pushdown`` records.
    pushdown_side: str | None
    #: Where the cardinalities came from (``"catalog"``, ``"table"``,
    #: ``"default"``, possibly differing per side: ``"catalog/table"``).
    stats_source: str

    def describe(self) -> str:
        cost = self.chosen.cost
        side = (f" (sort side: {self.pushdown_side})"
                if self.pushdown_side else "")
        return "\n".join([
            (f"Planner: join={self.chosen.method} "
             f"pushdown={'on' if self.chosen.pushdown else 'off'}{side} "
             f"cost={cost.seconds:.4f}s [stats={self.stats_source}]"),
            f"  rule: {self.rule}",
            (f"  estimated: left={self.estimated_left_rows:.0f} "
             f"right={self.estimated_right_rows:.0f} "
             f"out={self.estimated_out_rows:.0f} "
             f"pushdown_dropped={cost.filter_rows_dropped:.0f}"),
        ])


class _JoinNamespace:
    """Name resolution over a two-table join's output row.

    Output rows are ``left_row + right_row``.  Columns keep their plain
    names when unique (case-insensitively) across both inputs; a name
    appearing in both is disambiguated as ``<TABLE>_<column>``.  Query
    identifiers may be bare (must then be unambiguous) or qualified as
    ``table.column``.
    """

    def __init__(self, left: Table, right: Table, join_type: str):
        self.left = left
        self.right = right
        taken: dict[str, int] = {}
        for column in (*left.schema.columns, *right.schema.columns):
            key = column.name.upper()
            taken[key] = taken.get(key, 0) + 1
        columns: list[Column] = []
        #: Per side: canonical source name (upper) -> output name.
        self._out: dict[str, dict[str, str]] = {"left": {}, "right": {}}
        for side, table in (("left", left), ("right", right)):
            for column in table.schema.columns:
                name = column.name
                if taken[name.upper()] > 1:
                    name = f"{table.name}_{column.name}"
                # A LEFT join pads unmatched rows' right columns.
                nullable = column.nullable or (side == "right"
                                               and join_type == "left")
                columns.append(Column(name, column.type,
                                      nullable=nullable))
                self._out[side][column.name.upper()] = name
        try:
            self.schema = Schema(columns)
        except SchemaError:
            raise PlanError(
                f"join of {left.name!r} and {right.name!r} produces "
                "colliding output column names even after table "
                "prefixing (self-joins need table aliases, which the "
                "SQL subset does not have)") from None

    def locate(self, ident: str) -> tuple[str, str, str]:
        """``(side, source column, output column)`` for an identifier."""
        if "." in ident:
            qualifier, column = ident.split(".", 1)
            for side, table in (("left", self.left),
                                ("right", self.right)):
                if table.name.upper() == qualifier.upper():
                    source = _resolve_column(table.schema, column)
                    return side, source, self._out[side][source.upper()]
            raise PlanError(
                f"unknown table qualifier {qualifier!r} in {ident!r}; "
                f"the query joins {self.left.name} and {self.right.name}")
        hits = []
        for side, table in (("left", self.left), ("right", self.right)):
            try:
                hits.append((side, table.schema.resolve(ident)))
            except SchemaError:
                continue
        if not hits:
            raise PlanError(
                f"unknown column {ident!r} in join of "
                f"{self.left.name} and {self.right.name}")
        if len(hits) > 1:
            raise PlanError(
                f"ambiguous column {ident!r}: qualify it as "
                f"{self.left.name}.{ident} or {self.right.name}.{ident}")
        side, source = hits[0]
        return side, source, self._out[side][source.upper()]

    def output_name(self, ident: str) -> str:
        """The join-output column an identifier refers to."""
        return self.locate(ident)[2]


class Planner:
    """Builds physical plans for parsed queries.

    Args:
        memory_rows: Per-operator memory budget in rows.
        algorithm: Top-k algorithm for ORDER BY + LIMIT queries.
        spill_manager_factory: Zero-argument factory for each query's spill
            substrate (lets a session share I/O accounting).
        algorithm_options: Extra keyword arguments for the top-k operator's
            algorithm (e.g. ``sizing_policy=...``).  Any option pins plans
            to the row engine, whose behavior the knobs configure.
        cost_model: The :class:`~repro.storage.costmodel.CostModel`
            estimating the chosen plan and weighing cutoff pushdown.
        stats_catalog: Optional :class:`~repro.stats.StatsCatalog`
            feeding cardinality/selectivity estimates (the session wires
            its own by default).
        path: Pin one physical top-k path (``"batch"`` or
            ``"vectorized"``) instead of the lowering rule; a pin the
            query cannot take raises :class:`~repro.errors.PlanError`.
        join_method: ``"merge"`` pins the sort-merge join; ``"auto"``
            (default) and ``"hash"`` run the hash join.
        pushdown: Pin top-k cutoff pushdown below joins: ``True`` forces
            it on wherever it is valid, ``False`` disables it, ``None``
            (default) costs it on against off.
    """

    JOIN_METHODS = ("auto", "hash", "merge")

    def __init__(
        self,
        memory_rows: int = 100_000,
        algorithm: str = "histogram",
        spill_manager_factory: Callable[[], SpillManager] | None = None,
        algorithm_options: dict | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        stats_catalog=None,
        path: str | None = None,
        join_method: str = "auto",
        pushdown: bool | None = None,
    ):
        self.memory_rows = memory_rows
        self.algorithm = algorithm
        self.spill_manager_factory = spill_manager_factory or SpillManager
        self.algorithm_options = algorithm_options or {}
        self.cost_model = cost_model
        self.stats_catalog = stats_catalog
        if path is not None and path not in ("batch", "vectorized"):
            raise PlanError(f"unknown forced path {path!r}")
        self.path = path
        if join_method not in self.JOIN_METHODS:
            raise PlanError(
                f"unknown join method {join_method!r}; "
                f"choose from {self.JOIN_METHODS}")
        self.join_method = join_method
        self.pushdown = pushdown

    # -- estimation ------------------------------------------------------

    def _table_stats(self, table: Table):
        if self.stats_catalog is None:
            return None
        return self.stats_catalog.get(table.name, table.version)

    def _estimate_input(self, query: ParsedQuery, table: Table,
                        stats) -> tuple[float, float, float, str]:
        """``(rows_in, row_bytes, selectivity, source)`` for costing."""
        base = None
        source = "default"
        if stats is not None and stats.row_count is not None:
            base = stats.row_count
            source = "catalog"
        if base is None and table.row_count is not None:
            base = table.row_count
            source = "table"
        if base is None:
            base = DEFAULT_ROW_ESTIMATE
        selectivity = 1.0
        if query.predicates:
            observed = None
            if stats is not None:
                scope = cutoff_scope(query)
                if scope is not None:
                    observed = stats.observed.get(scope)
            if observed is not None:
                selectivity = min(1.0, observed / base) if base else 1.0
                source = "observed"
            else:
                for predicate in query.predicates:
                    selectivity *= self._predicate_selectivity(
                        table, stats, predicate)
        row_bytes = None
        if stats is not None and stats.avg_row_bytes is not None:
            row_bytes = stats.avg_row_bytes
        if row_bytes is None:
            row_bytes = self._schema_row_bytes(table.schema)
        return base * selectivity, row_bytes, selectivity, source

    def _predicate_selectivity(self, table: Table, stats,
                               predicate: Comparison) -> float:
        sketch = None
        if stats is not None:
            try:
                column = table.schema.resolve(predicate.column)
            except SchemaError:
                column = predicate.column
            sketch = stats.column(column)
        if sketch is not None and sketch.rows:
            return max(1e-6, sketch.selectivity_cmp(predicate.op,
                                                    predicate.value))
        if predicate.op in _DEFAULT_SELECTIVITY:
            return _DEFAULT_SELECTIVITY[predicate.op]
        return _DEFAULT_RANGE_SELECTIVITY

    @staticmethod
    def _schema_row_bytes(schema: Schema) -> float:
        total = 16.0
        for column in schema.columns:
            width = column.type.fixed_width
            total += width if width is not None else 20.0
        return total

    # -- lowering rules --------------------------------------------------

    def _decide_topk(
        self, spec: SortSpec, query: ParsedQuery, *, rows: float,
        row_bytes: float, selectivity: float, source: str,
        memory_rows: int, cutoff_seed: Any,
    ) -> PlanDecision:
        """Lower a plain top-k by rule, then estimate the chosen plan.

        The numpy kernels take every query they are eligible for: their
        per-row cost is below the batch operator's and both pay the same
        spill terms, so no estimate could rank them the other way.
        """
        refusal = _vectorized_refusal(spec, self.algorithm,
                                      self.algorithm_options, cutoff_seed)
        if self.path is not None:
            if self.path == "vectorized" and refusal is not None:
                raise PlanError(
                    "forced path 'vectorized' is not eligible for this "
                    f"query: {refusal}")
            path, rule = self.path, f"path={self.path} pinned"
        elif refusal is None:
            path = "vectorized"
            rule = "vectorized: one non-nullable numeric ORDER BY column"
        else:
            path, rule = "batch", f"batch: {refusal}"
        # The spec picks the row engine's key substrate (the baselines
        # always sort tuple keys).
        keys = "-"
        if path == "batch":
            keys = ("ovc" if self.algorithm == "histogram"
                    and binary_key_codec(spec) is not None else "tuple")
        cost = self.cost_model.topk_plan_cost(
            rows=rows, row_bytes=row_bytes,
            needed=query.limit + query.offset, memory_rows=memory_rows,
            path=path, key_columns=len(spec.columns),
            binary_keys=keys == "ovc",
            fan_in=self.algorithm_options.get("fan_in"))
        return PlanDecision(
            chosen=TopKChoice(path, keys, cost),
            rule=rule,
            estimated_rows=rows,
            estimated_selectivity=selectivity,
            stats_source=source,
        )

    def _build_topk(self, decision: PlanDecision, node: Operator,
                    spec: SortSpec, query: ParsedQuery, memory_rows: int,
                    cutoff_seed: Any, tracer) -> Operator:
        """Materialize the chosen candidate as a physical operator."""
        if decision.chosen.path == "vectorized":
            operator = VectorizedTopK(
                node,
                sort_spec=spec,
                k=query.limit,
                offset=query.offset,
                memory_rows=memory_rows,
                tracer=tracer,
            )
        else:
            operator = TopK(
                node,
                sort_spec=spec,
                k=query.limit,
                offset=query.offset,
                algorithm=self.algorithm,
                memory_rows=memory_rows,
                spill_manager=self.spill_manager_factory(),
                algorithm_options=dict(self.algorithm_options),
                cutoff_seed=cutoff_seed,
                tracer=tracer,
            )
        operator.decision = decision
        return operator

    @staticmethod
    def _shared_sorted_prefix(table: Table,
                              sort_columns: list[SortColumn]) -> int:
        """How many leading ORDER BY columns the table's physical order
        already provides (ascending only)."""
        shared = 0
        for declared, requested in zip(table.sorted_by, sort_columns):
            if not requested.ascending or requested.name != declared:
                break
            shared += 1
        return shared

    def plan(
        self,
        query: ParsedQuery,
        table: Table,
        *,
        memory_rows: int | None = None,
        cutoff_seed: Any = None,
        tracer=None,
        join_table: Table | None = None,
    ) -> Operator:
        """Produce the physical plan for ``query`` over ``table``.

        Args:
            memory_rows: Per-query override of the planner's default
                operator memory budget — the hook a memory governor uses
                to shrink a query's lease under pressure (the operator
                then spills earlier instead of failing).
            cutoff_seed: Optional initial cutoff bound for a plain top-k
                plan (cutoff reuse; see ``HistogramTopK``).  Ignored by
                plans that never build a histogram filter (sorted-prefix
                shortcuts, grouped/segmented operators, full sorts,
                joins).
            tracer: Optional :class:`repro.obs.trace.Tracer` attached to
                the plan's top-k operator (and its spill substrate).
            join_table: The resolved right-hand :class:`Table` when the
                query has a JOIN clause (the session passes it).
        """
        if memory_rows is None:
            memory_rows = self.memory_rows
        if query.join is not None:
            if join_table is None:
                raise PlanError(
                    f"query joins {query.join.table!r}; the caller must "
                    "resolve and pass join_table")
            return self._plan_join(query, table, join_table, memory_rows,
                                   tracer)
        node: Operator = TableScan(table)

        if query.predicates:
            predicate, description = _compile_predicates(
                table.schema, query.predicates)
            node = Filter(node, predicate, description)

        if query.is_aggregate:
            return self._plan_aggregate(query, node, table.schema,
                                        memory_rows)

        if query.order_by:
            sort_columns = [
                SortColumn(_resolve_column(table.schema, item.column),
                           ascending=item.ascending)
                for item in query.order_by
            ]
            spec = SortSpec(table.schema, sort_columns)
            # Section 4.2: exploit a physical sort order shared with the
            # ORDER BY clause.  Filters do not disturb row order, so the
            # table's declared order survives the Filter node.
            shared = self._shared_sorted_prefix(table, sort_columns)
            if query.is_grouped_topk:
                node = GroupedTopKOperator(
                    node,
                    sort_spec=spec,
                    group_column=_resolve_column(table.schema,
                                                 query.per_column),
                    k=query.limit,
                    memory_rows=memory_rows,
                    spill_manager=self.spill_manager_factory(),
                )
            elif (query.limit is not None
                    and shared == len(sort_columns)):
                # The input is already sorted as requested: trivial.
                node = Limit(node, query.limit, query.offset)
            elif query.limit is not None and shared >= 1:
                segmented = SegmentedTopKOperator(
                    node,
                    segment_columns=[column.name for column
                                     in sort_columns[:shared]],
                    remainder_spec=SortSpec(table.schema,
                                            sort_columns[shared:]),
                    k=query.limit + query.offset,
                    memory_rows=memory_rows,
                    spill_manager=self.spill_manager_factory(),
                )
                node = (Limit(segmented, query.limit, query.offset)
                        if query.offset else segmented)
            elif query.limit is not None:
                rows, row_bytes, selectivity, source = \
                    self._estimate_input(query, table,
                                         self._table_stats(table))
                decision = self._decide_topk(
                    spec, query, rows=rows, row_bytes=row_bytes,
                    selectivity=selectivity, source=source,
                    memory_rows=memory_rows, cutoff_seed=cutoff_seed)
                node = self._build_topk(decision, node, spec, query,
                                        memory_rows, cutoff_seed, tracer)
            else:
                node = InMemorySort(node, spec)
                if query.offset:
                    node = Limit(node, None, query.offset)
        elif query.limit is not None or query.offset:
            node = Limit(node, query.limit, query.offset)

        if query.columns is not None:
            canonical = [_resolve_column(table.schema, name)
                         for name in query.columns]
            node = Project(node, canonical)
        return node

    # -- aggregate planning ----------------------------------------------

    def _plan_aggregate(self, query: ParsedQuery, node: Operator,
                        schema: Schema, memory_rows: int,
                        ns: "_JoinNamespace | None" = None) -> Operator:
        """GROUP BY / aggregate lowering: hash aggregation, then ORDER
        BY / LIMIT over the (small, already materialized) aggregate
        output.  With ``ns`` the input is a join and identifiers resolve
        through the join namespace."""
        resolve = (ns.output_name if ns is not None
                   else lambda name: _resolve_column(schema, name))
        group_columns = [resolve(name) for name in query.group_by]
        # Aggregate arguments are rewritten onto the input schema's
        # canonical (join-output) names; ``renamed`` maps each original
        # canonical aggregate name to its rewritten operator.
        renamed: dict[str, Aggregate] = {}
        aggregates: list[Aggregate] = []
        for aggregate in query.aggregates:
            rewritten = (aggregate if aggregate.column is None
                         else Aggregate(aggregate.func,
                                        resolve(aggregate.column)))
            renamed[aggregate.name] = rewritten
            aggregates.append(rewritten)

        def output_name(ident: str) -> str:
            if ident in renamed:
                return renamed[ident].name
            return resolve(ident)

        select = [output_name(name) for name in query.columns or []]
        if group_columns:
            # Memory-governed grouping: duplicate group keys collapse
            # into in-buffer partial aggregates during run generation,
            # bounded by the query's memory budget.  Global aggregates
            # (one group) never need it.
            node = GroupedAggregate(
                node, group_columns, aggregates, select,
                memory_rows=memory_rows,
                spill_manager=self.spill_manager_factory())
        else:
            node = GroupedAggregate(node, group_columns, aggregates,
                                    select)
        # The aggregate output is one row per group, already in memory
        # and emitted in group-key order; a plain in-memory sort +
        # limit is the right tool above it.
        if query.order_by:
            sort_columns = [
                SortColumn(_resolve_column(node.schema,
                                           output_name(item.column)),
                           ascending=item.ascending)
                for item in query.order_by
            ]
            node = InMemorySort(node, SortSpec(node.schema, sort_columns))
            if query.limit is not None or query.offset:
                node = Limit(node, query.limit, query.offset)
        elif query.limit is not None or query.offset:
            node = Limit(node, query.limit, query.offset)
        return node

    # -- join planning ---------------------------------------------------

    def _side_estimate(self, table: Table, stats,
                       predicates: list[Comparison]) -> tuple[float, str]:
        """``(rows, source)`` for one join input after its pushed
        predicates."""
        base = None
        source = "default"
        if stats is not None and stats.row_count is not None:
            base = stats.row_count
            source = "catalog"
        if base is None and table.row_count is not None:
            base = table.row_count
            source = "table"
        if base is None:
            base = DEFAULT_ROW_ESTIMATE
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self._predicate_selectivity(
                table, stats, predicate)
        return base * selectivity, source

    @staticmethod
    def _column_ndv(stats, column: str, fallback: float) -> float:
        """Distinct-value estimate for a join key (KMV sketch when the
        catalog has one, else the side's row count)."""
        if stats is not None:
            sketch = stats.column(column)
            if sketch is not None and sketch.rows:
                return max(1.0, sketch.distinct)
        return max(1.0, fallback)

    @staticmethod
    def _join_out_rows(left_rows: float, right_rows: float,
                       ndv_left: float, ndv_right: float,
                       join_type: str) -> float:
        """The textbook equi-join cardinality ``|L|·|R| / max(ndv)``;
        a LEFT join emits at least one row per left row."""
        out = left_rows * right_rows / max(ndv_left, ndv_right, 1.0)
        if join_type == "left":
            out = max(out, left_rows)
        return out

    def _decide_join(
        self, *, left_rows: float, right_rows: float, out_rows: float,
        pushdown_side: str | None, topk: PlanDecision | None,
        needed: int | None, stats_source: str, memory_rows: int,
        row_bytes: float, merge_publisher_ok: bool,
    ) -> JoinDecision:
        """Pick the join method by rule, then cost pushdown on against off.

        The method is ``hash`` unless ``join_method="merge"`` pins it.
        ``SortMergeJoin`` sorts both sides whatever order a table
        declares, so a declared order earns it nothing.

        Pushdown, where valid and not pinned, is the one costed choice.
        The on estimate charges the filter's per-row test over the whole
        sort side, then credits the join and the downstream top-k (its
        per-row constant over the join's output) with the reduced
        cardinality: in random arrival order only
        ``expected_admitted(rows, needed)`` sort-side rows survive the
        published cutoff.  Under *merge* the credit holds only when the
        join's run-generation publisher is wired
        (``merge_publisher_ok=False``: residual predicates filter join
        output, voiding its ≥``needed``-output guarantee).  Ties keep
        pushdown off.
        """
        model = self.cost_model
        method = "merge" if self.join_method == "merge" else "hash"
        rule = ("hash: the default join" if self.join_method == "auto"
                else f"join_method={self.join_method} pinned")

        def estimate(left: float, right: float, out: float) -> JoinCost:
            # The physical operators build/materialize the right side and
            # stream/probe the left.
            return model.join_plan_cost(
                method=method, build_rows=right, probe_rows=left,
                out_rows=out, memory_rows=memory_rows, row_bytes=row_bytes)

        cost = estimate(left_rows, right_rows, out_rows)
        pushdown = False
        if pushdown_side is None:
            rule += "; pushdown not valid for this query"
        else:
            sort_rows = left_rows if pushdown_side == "left" else right_rows
            survivors = (model.expected_admitted(sort_rows, needed or 1)
                         if method == "hash" or merge_publisher_ok
                         else sort_rows)
            on_out = out_rows * (survivors / sort_rows if sort_rows
                                 else 1.0)
            if pushdown_side == "left":
                on_left, on_right = survivors, right_rows
            else:
                on_left, on_right = left_rows, survivors
            on_cost = replace(estimate(on_left, on_right, on_out),
                              filter_rows_dropped=sort_rows - survivors)
            if self.pushdown is not None:
                pushdown = bool(self.pushdown)
                rule += f"; pushdown={'on' if pushdown else 'off'} pinned"
            else:
                consumer_row_s = (model.plan_row_s_vectorized
                                  if topk.chosen.path == "vectorized"
                                  else model.plan_row_s_batch)
                filter_row_s = model.plan_compare_base_s
                if topk.chosen.keys == "ovc":
                    filter_row_s += model.plan_key_encode_s
                off_s = cost.seconds + out_rows * consumer_row_s
                on_s = (on_cost.seconds + sort_rows * filter_row_s
                        + on_out * consumer_row_s)
                pushdown = on_s < off_s
                rule += (f"; pushdown {'on' if pushdown else 'off'}: "
                         f"estimated {on_s:.4f}s on vs {off_s:.4f}s off")
            if pushdown:
                cost = on_cost
        return JoinDecision(
            chosen=JoinChoice(method, pushdown, cost),
            rule=rule,
            estimated_left_rows=left_rows,
            estimated_right_rows=right_rows,
            estimated_out_rows=out_rows,
            pushdown_side=pushdown_side,
            stats_source=stats_source,
        )

    def _pushdown_key_of(self, chosen: TopKChoice, source_schema: Schema,
                         sort_columns: list[SortColumn]):
        """A row → key function over the *source-side* schema producing
        keys in the downstream top-k's active key space.

        The space depends on the chosen lowering: normalized floats
        (vectorized kernels), order-preserving bytes (``"ovc"``), or
        normalized tuples.  Column types, directions and nullability
        match the join-output spec the consumer uses — only names
        differ — so the keys compare correctly against published
        cutoffs.
        """
        spec = SortSpec(source_schema, sort_columns)
        if chosen.path == "vectorized":
            numeric = numeric_key_column(spec)
            if numeric is None:  # pragma: no cover - eligibility gated
                raise PlanError(
                    "internal: vectorized pushdown without a numeric key")
            index, negate = numeric
            if negate:
                return lambda row: -float(row[index])
            return lambda row: float(row[index])
        if chosen.keys == "ovc":
            return compile_keycodec(spec).encode
        return spec.key

    def _plan_join(self, query: ParsedQuery, left_table: Table,
                   right_table: Table, memory_rows: int,
                   tracer) -> Operator:
        """Physical plan for a two-table equi-join query.

        Layout::

            scan L → [filter] → [cutoff pushdown?] ⇘
                                                  join → [residual filter]
            scan R → [filter] → [cutoff pushdown?] ⇗      → top-k / sort /
                                                            grouped top-k /
                                                            aggregate
                                                          → project

        Cutoff pushdown is valid only when every ORDER BY column comes
        from one join input and that input's rows survive into the
        output unchanged: either side of an INNER join, only the
        preserved (left) side of a LEFT join, and only for plain
        (ungrouped, non-aggregate) top-k — a dropped sort-side row may
        otherwise still influence the output (padding, group
        membership, aggregates).
        """
        join = query.join
        ns = _JoinNamespace(left_table, right_table, join.join_type)

        # The ON columns: exactly one from each side, either order.
        first = ns.locate(join.left_column)
        second = ns.locate(join.right_column)
        if first[0] == second[0]:
            table_name = (left_table.name if first[0] == "left"
                          else right_table.name)
            raise PlanError(
                f"join condition must reference both tables; "
                f"{join.left_column!r} and {join.right_column!r} both "
                f"resolve to {table_name}")
        left_key = first if first[0] == "left" else second
        right_key = second if second[0] == "right" else first
        left_index = left_table.schema.index_of(left_key[1])
        right_index = right_table.schema.index_of(right_key[1])

        # WHERE placement: a conjunct over one side's columns filters
        # that side below the join — except the null-padded side of a
        # LEFT join, whose predicates must see the padding.
        left_predicates: list[Comparison] = []
        right_predicates: list[Comparison] = []
        residual: list[Comparison] = []
        for predicate in query.predicates:
            side, source, output = ns.locate(predicate.column)
            if side == "left":
                left_predicates.append(
                    Comparison(source, predicate.op, predicate.value))
            elif join.join_type == "inner":
                right_predicates.append(
                    Comparison(source, predicate.op, predicate.value))
            else:
                residual.append(
                    Comparison(output, predicate.op, predicate.value))

        left_node: Operator = TableScan(left_table)
        if left_predicates:
            test, description = _compile_predicates(
                left_table.schema, left_predicates)
            left_node = Filter(left_node, test, description)
        right_node: Operator = TableScan(right_table)
        if right_predicates:
            test, description = _compile_predicates(
                right_table.schema, right_predicates)
            right_node = Filter(right_node, test, description)

        # Cardinalities: per-side estimates, then the equi-join formula
        # over the KMV distinct counts of the join keys.
        left_stats = self._table_stats(left_table)
        right_stats = self._table_stats(right_table)
        left_rows, left_source = self._side_estimate(
            left_table, left_stats, left_predicates)
        right_rows, right_source = self._side_estimate(
            right_table, right_stats, right_predicates)
        out_rows = self._join_out_rows(
            left_rows, right_rows,
            self._column_ndv(left_stats, left_key[1], left_rows),
            self._column_ndv(right_stats, right_key[1], right_rows),
            join.join_type)
        stats_source = (left_source if left_source == right_source
                        else f"{left_source}/{right_source}")

        # The consumer above the join, lowered over the join's output.
        grouped = query.is_grouped_topk
        plain_topk = (query.is_topk and not grouped
                      and not query.is_aggregate)
        order_locations = []
        spec = None
        if query.order_by and not query.is_aggregate:
            order_locations = [ns.locate(item.column)
                               for item in query.order_by]
            spec = SortSpec(ns.schema, [
                SortColumn(location[2], ascending=item.ascending)
                for location, item in zip(order_locations,
                                          query.order_by)])

        pushdown_side = None
        topk_decision = None
        if plain_topk:
            sides = {location[0] for location in order_locations}
            if len(sides) == 1:
                side = next(iter(sides))
                if join.join_type == "inner" or side == "left":
                    pushdown_side = side
            topk_decision = self._decide_topk(
                spec, query, rows=out_rows,
                row_bytes=self._schema_row_bytes(ns.schema),
                selectivity=1.0, source=stats_source,
                memory_rows=memory_rows, cutoff_seed=None)
        needed = (query.limit + query.offset if plain_topk else None)
        decision = self._decide_join(
            left_rows=left_rows, right_rows=right_rows, out_rows=out_rows,
            pushdown_side=pushdown_side, topk=topk_decision, needed=needed,
            stats_source=stats_source, memory_rows=memory_rows,
            row_bytes=max(self._schema_row_bytes(left_table.schema),
                          self._schema_row_bytes(right_table.schema)),
            merge_publisher_ok=not residual)

        bound = None
        key_of = None
        if decision.chosen.pushdown:
            bound = SharedCutoffBound()
            source_table = (left_table if pushdown_side == "left"
                            else right_table)
            source_columns = [
                SortColumn(location[1], ascending=item.ascending)
                for location, item in zip(order_locations,
                                          query.order_by)]
            key_of = self._pushdown_key_of(
                topk_decision.chosen, source_table.schema, source_columns)
            description = ", ".join(
                f"{column.name}{'' if column.ascending else ' DESC'}"
                for column in source_columns)
            source_spec = SortSpec(source_table.schema, source_columns)
            binary = topk_decision.chosen.keys == "ovc"
            keys_of = (compile_keycodec(source_spec).encode_batch if binary
                       else lambda rows: list(map(key_of, rows)))
            pushdown_filter = CutoffPushdownFilter(
                left_node if pushdown_side == "left" else right_node,
                keys_of, bound, description=description,
                prefilter=leading_column_prefilter(source_spec,
                                                   binary=binary))
            pushdown_filter.estimated_drops = \
                decision.chosen.cost.filter_rows_dropped
            if pushdown_side == "left":
                left_node = pushdown_filter
            else:
                right_node = pushdown_filter

        if decision.chosen.method == "hash":
            node: Operator = HashJoin(
                left_node, right_node, left_index, right_index,
                join.join_type, ns.schema, tracer=tracer)
        else:
            publisher = None
            if (bound is not None and not residual
                    and needed is not None and needed > 0):
                # Sharpen the shared bound during the sort side's run
                # generation.  Residual WHERE predicates void the
                # publisher's ≥needed-output guarantee (they filter join
                # output rows), so it stays off and the filter passes
                # everything — semantically safe either way.
                publisher = MergePushdownPublisher(
                    bound, key_of, needed, side=pushdown_side,
                    gated=join.join_type == "inner",
                    gate_limit=memory_rows)
            node = SortMergeJoin(
                left_node, right_node, left_index, right_index,
                join.join_type, ns.schema, tracer=tracer,
                memory_rows=memory_rows,
                spill_manager=self.spill_manager_factory(),
                fan_in=self.algorithm_options.get("fan_in"),
                publisher=publisher)
        node.decision = decision

        if residual:
            test, description = _compile_predicates(ns.schema, residual)
            node = Filter(node, test, description)

        if query.is_aggregate:
            return self._plan_aggregate(query, node, ns.schema,
                                        memory_rows, ns=ns)

        if query.order_by:
            if grouped:
                node = GroupedTopKOperator(
                    node,
                    sort_spec=spec,
                    group_column=ns.output_name(query.per_column),
                    k=query.limit,
                    memory_rows=memory_rows,
                    spill_manager=self.spill_manager_factory(),
                )
            elif query.limit is not None:
                operator = self._build_topk(
                    topk_decision, node, spec, query, memory_rows,
                    None, tracer)
                if bound is not None:
                    operator.cutoff_listener = bound.publish
                node = operator
            else:
                node = InMemorySort(node, spec)
                if query.offset:
                    node = Limit(node, None, query.offset)
        elif query.limit is not None or query.offset:
            node = Limit(node, query.limit, query.offset)

        if query.columns is not None:
            node = Project(node, [ns.output_name(name)
                                  for name in query.columns])
        return node
