"""Per-layer self time for the benchmark's traced pass.

The traced pass wraps the public functions of each engine layer *where
callers look them up* (a class attribute, or a module global such as
``repro.storage.spill.decode_page``) and records one span per call.  For
a function that returns an iterator, the call itself and every later
``next()`` on the iterator are separate spans, so no span stays open
across a ``yield`` and consumer time never leaks into a producer's span.

A span's self time is its duration minus the durations of the spans
directly nested in it on the same thread.  Self times are accumulated
as spans close, in integer nanoseconds, so the main thread's self times
sum exactly to the root span.  Spans on other threads (the spill
read-ahead thread decodes pages) are kept apart as background time.

Per-row functions (``CutoffFilter.eliminate``, ``KeyCodec.encode``,
``RunWriter.write``, ``RunHistogramBuilder.add``) are deliberately not
wrapped: a span costs about a microsecond, which would swamp them.
Their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

ROOT = "harness.root"

#: Layers, in pipeline order.  Each gets ``<layer>.self_s`` and
#: ``<layer>.calls`` metrics.
LAYERS = (
    "engine.plan",
    "engine.scan",
    "engine.pushdown",
    "engine.join",
    "engine.topk",
    "engine.aggregate",
    "core.histogram",
    "core.admit",
    "sorting.rungen",
    "sorting.merge",
    "storage.encode",
    "storage.decode",
    "vectorized.run_write",
    "vectorized.run_read",
)

#: Layers whose first ``next()`` is also reported on its own, inclusive
#: of everything under it: a hash join builds its table there.
FIRST_NEXT = {"engine.join": "engine.join.build_s"}

#: Spans kept per query for the Chrome trace export.  Self-time
#: accounting covers every span; only the stored list is capped.
KEEP_SPANS = 20_000

CALL, METHOD, METHOD_ITER = "call", "method", "method_iter"


def targets() -> list[tuple[object, str, str, str]]:
    """``(namespace, attribute, layer, kind)`` for every wrapped name."""
    import repro.engine.session as session
    import repro.storage.spill as spill
    from repro.core.cutoff import CutoffFilter
    from repro.engine.operators import (
        CutoffPushdownFilter,
        GroupedAggregate,
        HashJoin,
        SortMergeJoin,
        Table,
        TopK,
        VectorizedTopK,
    )
    from repro.engine.planner import Planner
    from repro.sorting.merge import Merger
    from repro.sorting.quicksort_runs import QuicksortRunGenerator
    from repro.sorting.replacement_selection import (
        ReplacementSelectionRunGenerator,
    )
    from repro.storage.codec import TypedPageCodec
    from repro.vectorized.runs import VectorRunStore

    found = [
        (session, "parse", "engine.plan", CALL),
        (Planner, "plan", "engine.plan", METHOD),
        (Table, "rows", "engine.scan", METHOD_ITER),
        (Table, "batches", "engine.scan", METHOD_ITER),
        (CutoffPushdownFilter, "batches", "engine.pushdown", METHOD_ITER),
        (HashJoin, "rows", "engine.join", METHOD_ITER),
        (SortMergeJoin, "rows", "engine.join", METHOD_ITER),
        (TopK, "rows", "engine.topk", METHOD_ITER),
        (VectorizedTopK, "rows", "engine.topk", METHOD_ITER),
        (GroupedAggregate, "rows", "engine.aggregate", METHOD_ITER),
        (CutoffFilter, "insert", "core.histogram", METHOD),
        (CutoffFilter, "admit_batch", "core.admit", METHOD),
        (Merger, "merge_step", "sorting.merge", METHOD),
        (Merger, "merge_topk", "sorting.merge", METHOD_ITER),
        (Merger, "merge_stream", "sorting.merge", METHOD_ITER),
        (Merger, "merge_aggregated", "sorting.merge", METHOD_ITER),
        (TypedPageCodec, "encode", "storage.encode", METHOD),
        (spill, "decode_page", "storage.decode", CALL),
        (spill, "decode_page_skeleton", "storage.decode", CALL),
        (VectorRunStore, "write_run", "vectorized.run_write", METHOD),
        (VectorRunStore, "read_run", "vectorized.run_read", METHOD),
    ]
    for generator in (QuicksortRunGenerator,
                      ReplacementSelectionRunGenerator):
        for name in ("consume", "consume_keyed", "consume_batch", "finish"):
            found.append((generator, name, "sorting.rungen", METHOD))
    return found


class SpanRecorder:
    """Spans kept in memory, with self time accumulated as they close.

    Create it on the thread that runs the queries: spans on that thread
    count as foreground (``self_ns``), spans on any other thread as
    background (``bg_ns``).
    """

    def __init__(self):
        self._local = threading.local()
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: ``(id, name, query, thread, start_ns, end_ns, parent_id)``.
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.query = None
        self.begin_query(None)

    def begin_query(self, query) -> None:
        """Start a fresh per-query accounting period."""
        self.query = query
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.bg_ns: dict[str, int] = defaultdict(int)
        self.bg_calls: dict[str, int] = defaultdict(int)
        self.first_ns: dict[str, int] = defaultdict(int)
        self._kept = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, owner=None):
        """Open a span; ``None`` when ``owner`` already has an open span
        of this layer on this thread (one node's ``rows()`` adapting its
        own ``batches()``), so the node is never counted twice."""
        stack = self._stack()
        if owner is not None:
            for frame in stack:
                if frame[1] is owner and frame[0] == name:
                    return None
        parent = stack[-1][4] if stack else 0
        frame = [name, owner, 0, 0, next(self._ids), parent]
        stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame) -> int:
        """Close ``frame`` (the innermost open span); returns its
        duration in nanoseconds."""
        end = time.perf_counter_ns()
        if frame is None:
            return 0
        stack = self._stack()
        stack.pop()
        name, _owner, start, children, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        thread = threading.get_ident()
        if thread == self._main:
            self.self_ns[name] += duration - children
            self.calls[name] += 1
        else:
            with self._lock:
                self.bg_ns[name] += duration - children
                self.bg_calls[name] += 1
        if self._kept < KEEP_SPANS:
            self._kept += 1
            self.spans.append((span_id, name, self.query, thread, start,
                               end, parent))
        else:
            self.dropped_spans += 1
        return duration

    def iterate(self, name: str, owner, iterator):
        """Yield from ``iterator`` with one span per ``next()``."""
        first = name in FIRST_NEXT
        exhausted = False
        try:
            while True:
                frame = self.open(name, owner)
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    return
                finally:
                    duration = self.close(frame)
                    if first and frame is not None:
                        self.first_ns[name] += duration
                        first = False
                yield item
        finally:
            # An abandoned iterator (LIMIT, early close) runs its cleanup
            # here — merge streams release their run files on close.
            close = None if exhausted else getattr(iterator, "close", None)
            if close is not None:
                frame = self.open(name, owner)
                try:
                    close()
                finally:
                    self.close(frame)

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON."""
        epoch = min((span[4] for span in self.spans), default=0)
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - epoch) / 1e3, "dur": (end - start) / 1e3,
            "pid": 1, "tid": thread,
            "args": {"id": span_id, "parent": parent, "query": query},
        } for span_id, name, query, thread, start, end, parent
            in self.spans]
        return {"traceEvents": events,
                "otherData": {"dropped_spans": self.dropped_spans,
                              "kept_per_query": KEEP_SPANS}}


def _wrap(recorder: SpanRecorder, original, layer: str, kind: str):
    if kind == CALL:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = recorder.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(frame)
    else:
        iterates = kind == METHOD_ITER

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            frame = recorder.open(layer, self)
            try:
                result = original(self, *args, **kwargs)
            finally:
                recorder.close(frame)
            if iterates:
                return recorder.iterate(layer, self, iter(result))
            return result
    return wrapper


class Patched:
    """Context manager installing the layer wrappers, restoring every
    original on exit (even when a traced query raised)."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for namespace, attribute, layer, kind in targets():
            original = vars(namespace)[attribute]
            self.originals.append((namespace, attribute, original))
            setattr(namespace, attribute,
                    _wrap(self.recorder, original, layer, kind))
        return self

    def __exit__(self, *_exc) -> None:
        for namespace, attribute, original in reversed(self.originals):
            setattr(namespace, attribute, original)


def span_cost_ns(spans: int = 20_000) -> float:
    """Nanoseconds one span adds to its caller's self time: the
    wrapper's own work outside the span's clock reads, measured on an
    iterator of no-op items (the costliest and most frequent kind)."""
    recorder = SpanRecorder()
    parent = recorder.open("parent")
    for _item in recorder.iterate("child", None, iter(range(spans))):
        pass
    recorder.close(parent)
    return recorder.self_ns["parent"] / spans


def layer_sample(recorder: SpanRecorder, cost_ns: float) -> dict[str, float]:
    """This query's per-layer metrics from the recorder's accounting;
    ``cost_ns`` is :func:`span_cost_ns`."""
    sample: dict[str, float] = {}
    for layer in LAYERS:
        sample[f"{layer}.self_s"] = recorder.self_ns[layer] / 1e9
        sample[f"{layer}.calls"] = (recorder.calls[layer]
                                    + recorder.bg_calls[layer])
    sample["storage.decode.bg_s"] = recorder.bg_ns["storage.decode"] / 1e9
    for layer, metric in FIRST_NEXT.items():
        sample[metric] = recorder.first_ns[layer] / 1e9
    sample["harness.unattributed_s"] = recorder.self_ns[ROOT] / 1e9
    # Wrapper cost hidden in callers' self times (the root's included):
    # large where a layer is pulled one row per next().
    sample["harness.span_cost_s"] = sum(recorder.calls.values()) * cost_ns / 1e9
    return sample
