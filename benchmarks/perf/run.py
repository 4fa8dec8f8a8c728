#!/usr/bin/env python3
"""Performance benchmark: five SQL workloads sent through ``Database.sql``.

One client sends one query at a time (closed loop) from one process.
Per workload, in order: set-up (timed several times, median reported),
a plain-Python oracle, warm-up queries, timed queries with tracing off
for ``--seconds``, one ``tracemalloc`` query, and, with ``--trace 1``,
traced queries that time calls into each layer (see ``layers.py``).
Every query's output is digested and compared with the oracle's.
Reported times are scaled to a reference host speed by a calibration
loop timed around each of them (see :class:`Calibration`).

Usage (from the repository root)::

    python3 benchmarks/perf/run.py                  # all workloads
    python3 benchmarks/perf/run.py --out results/   # + results.json, traces
    python3 benchmarks/perf/run.py --workload groupby_zipf --seed 3 \\
        --seconds 10 --trace 1
    python3 benchmarks/perf/run.py --compare A/results.json B/results.json

A single-workload run prints, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
line before it, prefixed ``RECORD``, is the full record the all-workload
run collects.  The exit status is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import platform
import random
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_cpu_p50_ms": "ms",
    "peak_alloc_mb": "MiB",
    "setup_s": "s",
}

#: Which samples each end-to-end metric is the median of.
SAMPLES = {
    "query_p50_ms": "query_ms",
    "query_cpu_p50_ms": "query_cpu_ms",
    "setup_s": "setup_s",
}

#: Per-layer metrics read from the engine's own counters.
COUNTER_UNITS = {
    "engine.plan.rows_in_est_ratio": "ratio",
    "engine.pushdown.drop_ratio": "ratio",
    "engine.aggregate.groups_collapsed": "rows",
    "core.eliminated_ratio": "ratio",
    "core.stitch_s": "s",
    "sorting.runs_written": "count",
    "sorting.merge.code_only_ratio": "ratio",
    "storage.write.bg_s": "s",
    "storage.stall_s": "s",
    "storage.bytes_encoded": "bytes",
    "storage.zone_skip_ratio": "ratio",
    "rows_spilled": "rows",
    "bytes_spilled": "bytes",
}

WARMUPS = 2
MIN_TIMED = 5
TRACED = 3
#: Set-up repeats: at least MIN_SETUPS, more while under SETUP_BUDGET_S,
#: so short set-ups still report a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 0.5
CHILD_TIMEOUT_S = 180


def per_layer_units() -> dict[str, str]:
    from layers import FIRST_NEXT, LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["storage.decode.bg_s"] = "s"
    units.update({metric: "s" for metric in FIRST_NEXT.values()})
    units.update(COUNTER_UNITS)
    units["sorting.keycodec.ns_per_row"] = "ns"
    units["harness.unattributed_s"] = "s"
    units["harness.span_cost_s"] = "s"
    units["harness.trace_overhead_ratio"] = "ratio"
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_sample(result) -> dict[str, float]:
    """Per-layer metrics from one query's operator counters."""
    from repro.engine.operators import CutoffPushdownFilter, GroupedAggregate
    from workloads import plan_nodes, topk_node

    stats, io = result.stats, result.stats.io
    topk = topk_node(result.plan)
    consumed = topk.stats.rows_consumed if topk is not None else 0
    decision = topk.decision if topk is not None else None
    filters = plan_nodes(result.plan, CutoffPushdownFilter)
    comparisons = stats.code_comparisons + stats.full_key_comparisons
    return {
        "engine.plan.rows_in_est_ratio": (
            _ratio(decision.estimated_rows, consumed)
            if decision is not None else 0.0),
        "engine.pushdown.drop_ratio": _ratio(
            sum(f.rows_dropped for f in filters),
            sum(f.rows_in for f in filters)),
        "engine.aggregate.groups_collapsed": sum(
            node.groups_collapsed_rungen
            for node in plan_nodes(result.plan, GroupedAggregate)),
        "core.eliminated_ratio": (
            _ratio(topk.stats.rows_eliminated, consumed)
            if topk is not None else 0.0),
        "core.stitch_s": io.payload_stitch_seconds,
        "sorting.runs_written": io.runs_written,
        "sorting.merge.code_only_ratio": _ratio(stats.code_comparisons,
                                                comparisons),
        "storage.write.bg_s": io.write_seconds,
        "storage.stall_s": io.stall_seconds,
        "storage.bytes_encoded": io.bytes_encoded,
        "storage.zone_skip_ratio": _ratio(
            io.pages_skipped_zone_map,
            io.read_requests + io.pages_skipped_zone_map),
        "rows_spilled": io.rows_spilled,
        "bytes_spilled": io.bytes_written,
    }


def keycodec_ns_per_row(spec, rows) -> float:
    """Binary key encoding cost over the workload's rows, outside any
    query."""
    from repro.sorting.keycodec import compile_keycodec

    encode = compile_keycodec(spec).encode
    started = time.perf_counter_ns()
    deque(map(encode, rows), maxlen=0)
    return (time.perf_counter_ns() - started) / max(1, len(rows))


def tail(values: list[float]) -> list[float] | None:
    """``[percentile, value]``: the highest percentile with ten samples
    beyond it (``None`` below 20 samples, where that is the median)."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return [100 * (len(ordered) - 10) / len(ordered), ordered[-11]]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return high - low


class Run:
    """Query execution with output checking and failure counting."""

    def __init__(self, prepared, reference: str):
        self.prepared = prepared
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def query(self, around=None):
        """One query; ``around`` is a context manager entered around
        ``Database.sql`` alone.  Returns the result, or ``None`` when it
        raised or its output differs from the oracle's."""
        from workloads import digest_rows

        self.attempted += 1
        gc.collect()
        try:
            with around if around is not None else contextlib.nullcontext():
                result = self.prepared.db.sql(self.prepared.sql)
        except Exception as exc:  # a failed query is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if digest_rows(result.rows) != self.reference:
            self.failed += 1
            self.errors.append("output digest differs from the oracle")
            return None
        return result


class _RootSpan:
    """The traced query's root span."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.seconds = 0.0

    def __enter__(self):
        self._frame = self.recorder.open("harness.root")
        return self

    def __exit__(self, *_exc):
        self.seconds = self.recorder.close(self._frame) / 1e9


class _Clock:
    """Wall and process CPU time (all threads) of one query."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    def __enter__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *_exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu


class Calibration:
    """Fixed computations, independent of the engine and of the seed,
    timed before and after every set-up and every timed query.

    The host's speed drifts by tens of percent, within seconds and over
    minutes: other tenants share its cores and caches, mostly invisibly
    to this guest.  Each reported time is therefore scaled by the
    calibration's reference seconds over the mean of the calibration
    passes around it (wall time by the calibration's wall time, CPU time
    by its CPU time), so drift that slows the calibration and the query
    alike cancels out.  The record keeps the unscaled times too.

    Contention slows kinds of work unequally, so each workload names
    the components that track it best (measured; see the README):

    * ``tuples`` -- sort, dict and heap work on Python tuples;
    * ``pipeline`` -- rows pulled through a generator chain, a dict
      join and a bounded heap, as the row-at-a-time operators do;
    * ``numpy`` -- a numpy sort;
    * ``bytes`` -- packing and sorting binary keys;
    * ``chase`` -- random reads over a heap larger than the caches.
    """

    #: Seconds each component takes on the reference host (this
    #: benchmark's 2-core sandbox at its quietest).  Fixed: reported
    #: times are in these units.
    REFERENCE_S = {"tuples": 0.0085, "pipeline": 0.0078, "numpy": 0.0101,
                   "bytes": 0.0083, "chase": 0.0240}

    def __init__(self, components: tuple[str, ...]):
        import numpy as np

        self._components = [getattr(self, f"_{name}") for name in components]
        self.reference_s = sum(self.REFERENCE_S[name] for name in components)
        rng = random.Random(20201)
        self._rows = [(rng.random(), rng.randrange(1000),
                       f"k{rng.randrange(2000):04d}") for _ in range(10_000)]
        self._fact = [(i, rng.randrange(100), rng.random())
                      for i in range(40_000)]
        self._dim = {j: (j, j * 10) for j in range(100)}
        self._floats = np.random.default_rng(20201).random(100_000)
        if "chase" in components:
            self._heap = [float(i) for i in range(1_000_000)]
            self._order = rng.sample(range(len(self._heap)), 100_000)

    def _tuples(self) -> None:
        totals: dict[str, int] = {}
        for _value, weight, name in sorted(self._rows,
                                           key=lambda r: (r[2], r[0])):
            totals[name] = totals.get(name, 0) + weight
        heapq.nsmallest(250, self._rows)

    def _pipeline(self) -> None:
        dim = self._dim

        def scan():
            yield from self._fact

        def join(rows):
            for row in rows:
                match = dim.get(row[1])
                if match is not None:
                    yield row + match

        best: list = []
        for row in join(scan()):
            if len(best) < 200:
                heapq.heappush(best, (-row[2], row))
            elif -best[0][0] > row[2]:
                heapq.heapreplace(best, (-row[2], row))

    def _numpy(self) -> None:
        import numpy as np

        np.argsort(self._floats, kind="stable")

    def _bytes(self) -> None:
        pack = struct.Struct(">dq").pack
        keys = [pack(row[2], row[0]) + b"\x00" for row in self._fact[:20_000]]
        keys.sort()

    def _chase(self) -> None:
        heap = self._heap
        total = 0.0
        for index in self._order:
            total += heap[index]

    def sample(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass of the calibration."""
        clock = _Clock()
        with clock:
            for component in self._components:
                component()
        return clock.wall, clock.cpu

    @staticmethod
    def bracketed(pairs: list[tuple]) -> tuple[list[float], list[float]]:
        """Mean wall and mean CPU calibration of each timed item's
        ``(before, after)`` samples: the host's speed moves within one
        item too."""
        return ([(before[0] + after[0]) / 2 for before, after in pairs],
                [(before[1] + after[1]) / 2 for before, after in pairs])

    def scaled(self, values: list[float], calibrations: list[float]
               ) -> list[float]:
        return [value * self.reference_s / seconds
                for value, seconds in zip(values, calibrations)]


def set_up(workload, seed: int, size: str, spill_dir: str,
           calibration: Calibration):
    """Build the workload ``MIN_SETUPS``+ times with the cyclic
    collector off; return the last build, every set-up time and the
    calibration samples around them."""
    times: list[float] = []
    calibrations = [calibration.sample()]
    prepared = None
    gc.disable()
    try:
        while (len(times) < MIN_SETUPS
               or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS)):
            prepared = None
            gc.collect()
            started = time.perf_counter()
            prepared = workload.prepare(seed, size, spill_dir)
            times.append(time.perf_counter() - started)
            calibrations.append(calibration.sample())
    finally:
        gc.enable()
    return prepared, times, calibrations


class Timed:
    """Samples of the timed phase."""

    def __init__(self):
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        #: ``(before, after)`` calibration samples around each query.
        self.calibrations: list[tuple] = []
        self.plans: list[str] = []
        self.spills: set[tuple[int, int]] = set()
        self.last = None


def timed_queries(run: Run, calibration: Calibration,
                  seconds: float) -> Timed:
    """Untraced queries for ``seconds`` (at least ``MIN_TIMED``), each
    between two calibration passes."""
    from workloads import plan_label

    timed = Timed()
    started = time.perf_counter()
    before = calibration.sample()
    while (len(timed.wall_ms) < MIN_TIMED
           or time.perf_counter() - started < seconds):
        clock = _Clock()
        result = run.query(clock)
        after = calibration.sample()
        if result is None:
            if run.failed > 3 * MIN_TIMED:
                break
            before = after
            continue
        timed.wall_ms.append(clock.wall * 1e3)
        timed.cpu_ms.append(clock.cpu * 1e3)
        timed.calibrations.append((before, after))
        before = after
        timed.plans.append(plan_label(result.plan))
        timed.spills.add((result.stats.io.rows_spilled,
                          result.stats.io.bytes_written))
        timed.last = result
    return timed


def traced_queries(run: Run, name: str, out: Path | None
                   ) -> tuple[list[dict], list[dict]]:
    """``TRACED`` queries with every layer wrapped; returns per-query
    layer samples and root-span checks.  Writes the Chrome trace under
    ``out`` when given."""
    from layers import Patched, SpanRecorder, layer_sample, span_cost_ns

    samples: list[dict] = []
    traced: list[dict] = []
    cost_ns = span_cost_ns()
    recorder = SpanRecorder()
    with Patched(recorder):
        for index in range(TRACED):
            gc.collect()
            recorder.begin_query(index)
            root = _RootSpan(recorder)
            result = run.query(root)
            if result is None:
                continue
            sample = layer_sample(recorder, cost_ns)
            sample.update(counter_sample(result))
            samples.append(sample)
            main_self = list(recorder.self_ns.values())
            traced.append({
                "root_s": root.seconds,
                "main_self_sum_s": sum(main_self) / 1e9,
                "min_self_s": min(main_self) / 1e9,
            })
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.trace.json").write_text(
            json.dumps(recorder.chrome_trace()))
    return samples, traced


def measure(name: str, seed: int, seconds: float, size: str, trace: bool,
            out: Path | None) -> dict:
    """Run one workload end to end; return its full record."""
    from workloads import WORKLOADS, digest_rows

    workload = WORKLOADS[name]
    begun = time.perf_counter()
    scratch = ROOT / ".perf_tmp"
    scratch.mkdir(exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix=f"{name}_", dir=scratch)
    calibration = Calibration(workload.calibration)
    phases: dict[str, float] = {}
    mark = begun

    def phase(label: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[label] = now - mark
        mark = now

    try:
        prepared, setup_times, setup_cal = set_up(
            workload, seed, size, spill_dir, calibration)
        phase("setup")
        reference = digest_rows(workload.oracle(prepared))
        phase("oracle")
        # Freeze the resident inputs out of the collector's reach: full
        # collections would otherwise walk every input tuple and time
        # the harness's heap instead of the query.
        gc.collect()
        gc.freeze()
        run = Run(prepared, reference)
        for _ in range(WARMUPS):
            run.query()
        phase("warmup")

        timed = timed_queries(run, calibration, seconds)
        phase("timed")

        peak_mb = 0.0
        tracemalloc.start()
        try:
            if run.query() is not None:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        phase("tracemalloc")

        samples: list[dict] = []
        traced: list[dict] = []
        if trace:
            samples, traced = traced_queries(run, name, out)
        phase("traced")
    finally:
        gc.unfreeze()
        shutil.rmtree(spill_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    query_cal_wall, query_cal_cpu = Calibration.bracketed(
        timed.calibrations)
    setup_cal_wall, _cpu = Calibration.bracketed(
        list(zip(setup_cal, setup_cal[1:])))
    query_ms = calibration.scaled(timed.wall_ms, query_cal_wall)
    query_cpu_ms = calibration.scaled(timed.cpu_ms, query_cal_cpu)
    setup_s = calibration.scaled(setup_times, setup_cal_wall)
    end_to_end = {}
    if timed.wall_ms:
        end_to_end["query_p50_ms"] = statistics.median(query_ms)
        end_to_end["query_cpu_p50_ms"] = statistics.median(query_cpu_ms)
    end_to_end["peak_alloc_mb"] = peak_mb
    end_to_end["setup_s"] = statistics.median(setup_s)
    per_layer = {}
    if samples:
        per_layer = {metric: statistics.median(s[metric] for s in samples)
                     for metric in samples[0]}
        spec, rows = workload.key_rows(prepared)
        per_layer["sorting.keycodec.ns_per_row"] = keycodec_ns_per_row(
            spec, rows)
        per_layer["harness.trace_overhead_ratio"] = _ratio(
            statistics.median(q["root_s"] for q in traced),
            statistics.median(timed.wall_ms) / 1e3 if timed.wall_ms
            else 0.0)
    layer_units = per_layer_units()
    correct = (run.failed == 0 and len(timed.spills) == 1
               and bool(timed.wall_ms)
               and (not trace or len(samples) == TRACED))
    if len(timed.spills) > 1:
        run.errors.append(
            f"spill counts differ between queries: {timed.spills}")
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "params": prepared.params,
        "plan": timed.plans[-1] if timed.plans else "-",
        "plan_changed": len(set(timed.plans)) > 1,
        "engaged": bool(timed.last is not None
                        and workload.engaged(timed.last, prepared)),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_fraction": _ratio(run.failed, run.attempted),
        "errors": run.errors[:5],
        "samples": {"query_ms": query_ms, "query_cpu_ms": query_cpu_ms,
                    "setup_s": setup_s},
        # Unscaled timings and the calibration (wall, cpu) around each.
        "raw": {"query_wall_ms": timed.wall_ms, "query_cpu_ms": timed.cpu_ms,
                "setup_s": setup_times,
                "calibration_query_s": [list(pair) for pair in zip(
                    query_cal_wall, query_cal_cpu)],
                "calibration_setup_s": setup_cal_wall},
        "end_to_end": {
            metric: {"value": value, "unit": END_TO_END_UNITS[metric],
                     "n": len(timed.wall_ms) if metric.startswith("query")
                     else len(setup_times) if metric == "setup_s" else 1}
            for metric, value in end_to_end.items()},
        "per_layer": {metric: {"value": value, "unit": layer_units[metric]}
                      for metric, value in per_layer.items()},
        "tail": {"query_ms": tail(query_ms),
                 "query_cpu_ms": tail(query_cpu_ms)},
        "traced_queries": traced,
        "top_layers": top_layers(per_layer),
        "run_s": time.perf_counter() - begun,
        "phases_s": phases,
    }


def top_layers(per_layer: dict, count: int = 3) -> list[list]:
    """The layers with the most main-thread self time, with their share
    of the traced query."""
    times = {metric[:-len(".self_s")]: value
             for metric, value in per_layer.items()
             if metric.endswith(".self_s")}
    if "harness.unattributed_s" in per_layer:
        times["harness.unattributed"] = per_layer["harness.unattributed_s"]
    total = sum(times.values())
    ranked = sorted(times.items(), key=lambda item: -item[1])[:count]
    return [[layer, value, _ratio(value, total)] for layer, value in ranked]


def contract_line(record: dict, trace: bool) -> dict:
    """The one-line JSON summary a single-workload run ends with: its
    end-to-end metrics, or with tracing its per-layer metrics."""
    metrics = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }


def describe(record: dict) -> list[str]:
    lines = [f"{record['workload']}: plan={record['plan']} "
             f"plan_changed={record['plan_changed']} "
             f"engaged={record['engaged']} correct={record['correct']} "
             f"failed={record['failed']}/{record['attempted']} "
             f"({record['run_s']:.1f}s)"]
    raw = record["raw"]
    unscaled = {"query_p50_ms": raw["query_wall_ms"],
                "query_cpu_p50_ms": raw["query_cpu_ms"],
                "setup_s": raw["setup_s"]}
    tails = {"query_p50_ms": record["tail"]["query_ms"],
             "query_cpu_p50_ms": record["tail"]["query_cpu_ms"]}
    for metric, entry in record["end_to_end"].items():
        line = (f"  {metric:<18} {entry['value']:>12.4f} "
                f"{entry['unit']:<4} (n={entry['n']}")
        if tails.get(metric):
            line += f", p{tails[metric][0]:.0f} {tails[metric][1]:.4f}"
        if unscaled.get(metric):
            line += f", unscaled p50 {statistics.median(unscaled[metric]):.4f}"
        lines.append(line + ")")
    for layer, seconds, share in record["top_layers"]:
        lines.append(f"  self time: {layer:<22} {seconds * 1e3:9.2f} ms "
                     f"{share:6.1%}")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    return lines


def run_all(args) -> int:
    """Each workload in its own subprocess, then one combined report."""
    from workloads import WORKLOADS

    records = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        if args.out is not None:
            command += ["--out", str(args.out)]
        try:
            child = subprocess.run(command, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {CHILD_TIMEOUT_S}s")
            status = 1
            continue
        lines = child.stdout.splitlines()
        record_lines = [line for line in lines if line.startswith("RECORD ")]
        if child.returncode != 0 or not record_lines:
            status = 1
        if not record_lines:
            print(f"{name}: no result (exit {child.returncode})")
            sys.stderr.write(child.stderr)
            continue
        record = json.loads(record_lines[-1][len("RECORD "):])
        records[name] = record
        print("\n".join(describe(record)), flush=True)
    report = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"cpus": _cpus(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "workloads": records,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out / 'results.json'}")
    return status


def _cpus() -> int:
    import os

    return len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)


def _samples(record: dict, metric: str) -> list[float]:
    key = SAMPLES.get(metric)
    if key is not None and record["samples"].get(key):
        return record["samples"][key]
    for group in ("end_to_end", "per_layer"):
        if metric in record[group]:
            return [record[group][metric]["value"]]
    return []


def compare(path_a: Path, path_b: Path) -> int:
    """Print A vs B per workload and end-to-end metric; non-zero exit on
    a regression beyond the metric's bound in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    # The paper's metric is a deterministic count: any change shows.
    for metric in ("rows_spilled", "bytes_spilled"):
        bounds[metric] = (0.0, "lower")
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    print(f"{'workload':<22} {'metric':<17} {'A median':>11} {'A iqr':>7} "
          f"{'B median':>11} {'B iqr':>7} {'delta':>7} {'bound':>6}  verdict")
    status = 0
    for workload in a:
        if workload not in b:
            print(f"{workload:<22} missing from {path_b}")
            status = 1
            continue
        for metric, (bound, better) in bounds.items():
            first = _samples(a[workload], metric)
            second = _samples(b[workload], metric)
            if not first or not second:
                continue
            med_a, med_b = statistics.median(first), statistics.median(second)
            spread_a = _ratio(iqr(first), med_a)
            spread_b = _ratio(iqr(second), med_b)
            delta = _ratio(med_b - med_a, med_a) if med_a else (
                0.0 if med_b == med_a else float("inf"))
            worse = delta if better == "lower" else -delta
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                status = 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            print(f"{workload:<22} {metric:<17} {med_a:>11.4g} "
                  f"{spread_a:>7.1%} {med_b:>11.4g} {spread_b:>7.1%} "
                  f"{delta:>+7.1%} {bound:>6.0%}  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all, "
                        "each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input generation seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed queries run per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced per-layer pass")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size (smoke: tiny, same ratios)")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and Chrome traces")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two results.json files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no engine sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    record = measure(args.workload, args.seed, args.seconds, args.size,
                     bool(args.trace), args.out)
    print("\n".join(describe(record)))
    print("RECORD " + json.dumps(record))
    print(json.dumps(contract_line(record, bool(args.trace))), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
