"""EXPLAIN ANALYZE: per-operator wall time and row flow for one query.

A :class:`PlanProbe` instruments a physical plan *in place* before
execution: every operator's ``rows()``/``batches()`` surface is wrapped
so that time spent producing each item is charged to the operator
(inclusive of its children, like every SQL engine's ``actual time``) and
output rows are counted.  A reentrancy guard keeps the two surfaces of
one node from double-charging when ``rows()`` is the flattening adapter
over ``batches()``.

After execution, :meth:`PlanProbe.analyze` folds the measurements with
each operator's :class:`~repro.storage.stats.OperatorStats` into an
:class:`AnalyzedPlan` — a tree of :class:`AnalyzedNode` records carrying
wall seconds, rows in/out, rows eliminated at arrival vs. at spill, rows
spilled, and the final cutoff key — renderable as the classic indented
``EXPLAIN ANALYZE`` text tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator


class _NodeMeasurement:
    """Accumulated timing/cardinality for one plan operator."""

    __slots__ = ("seconds", "rows_out", "active")

    def __init__(self):
        self.seconds = 0.0
        self.rows_out = 0
        self.active = False


def _timed_surface(make_iterator, measurement: _NodeMeasurement,
                   count_rows):
    """Wrap an iterator factory so production time/rows are measured.

    ``count_rows(item)`` maps one yielded item to its row count (1 for a
    row tuple, ``len(batch)`` for a batch).  The ``active`` flag makes
    the wrapper reentrancy-safe: when a node's ``rows()`` internally
    drains its own ``batches()``, only the outermost surface accumulates.
    """

    def surface(*args, **kwargs):
        # Iterator *construction* is timed too: some operators do all
        # their work eagerly in rows()/batches() and return a finished
        # iterator (the vectorized top-k, the in-memory sort).
        if measurement.active:
            iterator = make_iterator(*args, **kwargs)
        else:
            measurement.active = True
            started = time.perf_counter()
            try:
                iterator = make_iterator(*args, **kwargs)
            finally:
                measurement.active = False
                measurement.seconds += time.perf_counter() - started

        def produced() -> Iterator:
            if measurement.active:
                # Inner surface of the same node: pass through untimed.
                while True:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    yield item
            while True:
                measurement.active = True
                started = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    measurement.seconds += time.perf_counter() - started
                    measurement.active = False
                    return
                finally:
                    # Exceptions propagate but the flag must reset.
                    measurement.active = False
                measurement.seconds += time.perf_counter() - started
                measurement.rows_out += count_rows(item)
                yield item

        return produced()

    return surface


@dataclass
class AnalyzedNode:
    """One operator's measured execution, in tree position."""

    label: str
    wall_seconds: float
    rows_out: int
    #: Rows produced by this node's child (input cardinality); ``None``
    #: for leaves.
    rows_in: int | None
    #: Operator-specific detail (eliminations, spills, cutoff, ...).
    details: dict[str, Any] = field(default_factory=dict)
    children: list["AnalyzedNode"] = field(default_factory=list)

    def walk(self) -> Iterator["AnalyzedNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class AnalyzedPlan:
    """The analyzed plan tree plus query-level roll-ups."""

    root: AnalyzedNode
    #: Total wall seconds of the root operator (the whole query).
    wall_seconds: float
    #: The cutoff timeline of the plan's top-k node, if one was traced.
    cutoff_timeline: Any = None
    #: Final cutoff key of the plan's top-k node, if any.
    final_cutoff: Any = None

    def nodes(self) -> Iterator[AnalyzedNode]:
        return self.root.walk()

    def find(self, label_prefix: str) -> list[AnalyzedNode]:
        return [node for node in self.nodes()
                if node.label.startswith(label_prefix)]

    def render(self) -> str:
        """The indented ``EXPLAIN ANALYZE`` text tree."""
        lines: list[str] = []

        def emit(node: AnalyzedNode, depth: int) -> None:
            indent = "  " * depth
            timing = (f"actual time={node.wall_seconds * 1e3:.3f}ms "
                      f"rows={node.rows_out}")
            if node.rows_in is not None:
                timing += f" rows_in={node.rows_in}"
            lines.append(f"{indent}-> {node.label} ({timing})")
            for key, value in node.details.items():
                lines.append(f"{indent}     {key}={value}")
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        if self.cutoff_timeline is not None and self.cutoff_timeline:
            lines.append(f"Cutoff timeline: "
                         f"{self.cutoff_timeline.describe()}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class PlanProbe:
    """Instruments one physical plan and collects its measurements."""

    def __init__(self, plan):
        self.plan = plan
        self._measurements: dict[int, _NodeMeasurement] = {}
        self._attach(plan)

    def _attach(self, node) -> None:
        measurement = _NodeMeasurement()
        self._measurements[id(node)] = measurement
        node.rows = _timed_surface(node.rows, measurement, lambda _row: 1)
        node.batches = _timed_surface(node.batches, measurement, len)
        for child in node.children():
            self._attach(child)

    def measurement(self, node) -> _NodeMeasurement:
        return self._measurements[id(node)]

    # -- post-execution analysis -----------------------------------------

    def analyze(self) -> AnalyzedPlan:
        """Fold measurements and operator stats into the analyzed tree.

        Call after the plan's output has been fully consumed; operators
        that never ran simply report zero time and rows.
        """
        root = self._analyze_node(self.plan)
        timeline, cutoff = _topk_artifacts(self.plan)
        return AnalyzedPlan(
            root=root,
            wall_seconds=root.wall_seconds,
            cutoff_timeline=timeline,
            final_cutoff=cutoff,
        )

    def _analyze_node(self, node) -> AnalyzedNode:
        measurement = self._measurements[id(node)]
        children = [self._analyze_node(child) for child in node.children()]
        rows_in = children[0].rows_out if children else None
        details: dict[str, Any] = {}
        stats = node.__dict__.get("stats")
        if stats is not None and getattr(stats, "rows_consumed", 0):
            details["rows_consumed"] = stats.rows_consumed
            details["eliminated_on_arrival"] = \
                stats.rows_eliminated_on_arrival
            details["eliminated_at_spill"] = stats.rows_eliminated_at_spill
            details["rows_spilled"] = stats.io.rows_spilled
            details["runs_written"] = stats.io.runs_written
            # Merge comparison substrate: full key comparisons vs.
            # tournaments decided by offset-value codes alone.
            if stats.full_key_comparisons or stats.code_comparisons:
                details["merge_comparisons_full"] = \
                    stats.full_key_comparisons
                details["merge_comparisons_code_only"] = \
                    stats.code_comparisons
            # Spill-path timing (disk backends only): how long the query
            # spent encoding and decoding pages, writing them, and
            # reading them back off disk.
            io = stats.io
            if io.bytes_encoded or io.bytes_decoded:
                details["spill_encode_ms"] = round(
                    io.encode_seconds * 1e3, 3)
                details["spill_decode_ms"] = round(
                    io.decode_seconds * 1e3, 3)
                details["spill_write_ms"] = round(
                    io.write_seconds * 1e3, 3)
                details["spill_stall_ms"] = round(
                    io.stall_seconds * 1e3, 3)
            # Page skipping (zone-map spill pages): whole pages pruned
            # against the merge cutoff before decoding, plus payload
            # bytes the key-split skeleton scan never decoded.
            if io.pages_skipped_zone_map:
                details["pages_skipped_zone_map"] = io.pages_skipped_zone_map
            if io.bytes_skipped_decode:
                details["bytes_skipped_decode"] = io.bytes_skipped_decode
            if io.payload_stitch_seconds:
                details["payload_stitch_ms"] = round(
                    io.payload_stitch_seconds * 1e3, 3)
        # Operator-specific measured details (joins, pushdown filters,
        # aggregates expose ``analyze_details()``).
        extra = getattr(node, "analyze_details", None)
        if callable(extra):
            details.update(extra())
        decision = node.__dict__.get("decision")
        if decision is not None:
            # The rule that picked the plan, then estimate-vs-actual: the
            # cost model's prediction next to what the execution
            # measured, the audit trail for its calibration.
            cost = decision.chosen.cost
            details["plan_choice"] = decision.chosen.label()
            details["plan_rule"] = decision.rule
            details["plan_cost_seconds"] = round(cost.seconds, 4)
            estimated_in = getattr(decision, "estimated_rows", None)
            if estimated_in is not None:
                actual_in = (stats.rows_consumed
                             if stats is not None else None)
                details["rows_in_est_vs_actual"] = (
                    f"{estimated_in:.0f} vs "
                    f"{actual_in if actual_in is not None else '?'}")
            estimated_out = getattr(decision, "estimated_out_rows", None)
            if estimated_out is not None:
                details["rows_out_est_vs_actual"] = (
                    f"{estimated_out:.0f} vs {measurement.rows_out}")
            estimated_spilled = getattr(cost, "rows_spilled", None)
            if estimated_spilled is not None:
                actual_spilled = (stats.io.rows_spilled
                                  if stats is not None else None)
                details["rows_spilled_est_vs_actual"] = (
                    f"{estimated_spilled:.0f} vs "
                    f"{actual_spilled if actual_spilled is not None else '?'}")
            details["seconds_est_vs_actual"] = (
                f"{cost.seconds:.4f} vs {measurement.seconds:.4f}")
        impl = node.__dict__.get("last_impl")
        if impl is not None:
            cutoff = getattr(impl, "final_cutoff", None)
            if cutoff is not None:
                details["final_cutoff"] = cutoff
            cutoff_filter = getattr(impl, "cutoff_filter", None)
            if cutoff_filter is not None \
                    and cutoff_filter.cutoff_key is not None:
                details["cutoff_key"] = cutoff_filter.cutoff_key
        return AnalyzedNode(
            label=node.label(),
            wall_seconds=measurement.seconds,
            rows_out=measurement.rows_out,
            rows_in=rows_in,
            details=details,
            children=children,
        )


def _topk_artifacts(plan) -> tuple[Any, Any]:
    """(timeline, final_cutoff) from the plan's top-k node, if any."""
    stack = [plan]
    while stack:
        node = stack.pop()
        impl = node.__dict__.get("last_impl")
        if impl is not None:
            timeline = getattr(impl, "timeline", None)
            cutoff = getattr(impl, "final_cutoff", None)
            if timeline is not None or cutoff is not None:
                return timeline, cutoff
        stack.extend(node.children())
    return None, None
