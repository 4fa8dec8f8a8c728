"""Disaggregated-storage cost model.

The paper's production environment (Section 2.1, "Late Materialization")
uses storage *disaggregated* from compute: every I/O pays a network round
trip, the invocation of a storage service, and time on a shared, busy disk.
Random reads are "extremely expensive" there, which is exactly why the
algorithm never re-reads the input and only performs sequential run I/O.

Re-running 2-billion-row experiments against real disks from Python would
measure the interpreter, not the algorithm (the repro calibration notes the
same).  Instead this model converts the deterministic :class:`IOStats`
counters into simulated seconds.  Because the model is a monotone function
of storage traffic and the paper observes that "the speedup ... and the
reduction of rows spilled ... are perfectly correlated", simulated-time
speedups preserve the paper's comparative shapes (who wins, where the
crossovers are) even though absolute constants differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.storage.stats import IOStats, OperatorStats


@dataclass(frozen=True)
class CostModel:
    """Simulated time model for a disaggregated storage service.

    Defaults are loosely calibrated to the paper's environment: a network
    round trip plus service invocation per request, a shared 7200-rpm-class
    drive for sequential bandwidth, and very expensive random I/O.

    Attributes:
        request_overhead_s: Network RTT + storage-service invocation charged
            per read or write request.
        write_bandwidth_bytes_per_s: Sequential write throughput.
        read_bandwidth_bytes_per_s: Sequential read throughput.
        random_read_s: Full cost of one random read (seek + RTT).
        cpu_row_s: CPU time charged per row consumed by an operator.
        cpu_comparison_s: CPU time charged per key comparison.
        codec_bandwidth_bytes_per_s: CPU throughput of the page codec,
            charged over the *physical* payload bytes
            (``bytes_encoded + bytes_decoded``).  The default of
            infinity keeps the codec free — byte-identical to the model
            before codecs existed — since on the default in-memory
            backend no encoding happens at all.
    """

    request_overhead_s: float = 0.0007
    write_bandwidth_bytes_per_s: float = 120e6
    read_bandwidth_bytes_per_s: float = 140e6
    random_read_s: float = 0.010
    cpu_row_s: float = 2.0e-8
    cpu_comparison_s: float = 6.0e-9
    codec_bandwidth_bytes_per_s: float = float("inf")

    # -- planning-side constants (a-priori, before any row is read) ------
    #
    # Per-row wall costs of the physical top-k paths, calibrated from
    # ``BENCH_batch.json`` (1M uniform rows on the reference container:
    # row 0.43s, batch 0.30s, vectorized 0.076s).  These drive the
    # planner's path choice, where only *relative* magnitudes matter.
    # ``plan_row_s_row`` prices a row-at-a-time consumer that is not a
    # top-k (the join planner's default); every top-k path is batched.
    plan_row_s_row: float = 4.3e-7
    plan_row_s_batch: float = 3.0e-7
    plan_row_s_vectorized: float = 7.6e-8
    #: One-time cost per worker process of a sharded plan (fork + shared
    #: memory segment setup + module import amortization).
    plan_shard_startup_s: float = 0.08
    #: Coordinator-side cost per row of feeding shard input queues.
    plan_shard_feed_row_s: float = 4.0e-8
    #: Full key comparison: a base charge plus a per-column term (tuple
    #: comparisons walk the columns; byte-string keys do not).
    plan_compare_base_s: float = 8.0e-8
    plan_compare_column_s: float = 6.0e-8
    #: A comparison decided by offset-value codes alone (integer test).
    plan_compare_code_s: float = 1.5e-8
    #: Surcharge per descending non-numeric column in a tuple-encoded
    #: comparison: each one is a ``Desc`` wrapper whose ``__lt__`` is a
    #: Python call instead of a C-level compare.  Calibrated from the
    #: measured 1.5x OVC-vs-tuple gap on ``ORDER BY S DESC, T`` at 200k
    #: rows (byte-string keys pay encoding once instead).
    plan_compare_desc_obj_s: float = 2.5e-7
    #: Extra per-row cost of encoding an order-preserving binary key.
    plan_key_encode_s: float = 1.0e-7
    #: Fraction of merge comparisons an OVC tree resolves without a full
    #: key comparison (~20x reduction measured in ``BENCH_merge.json``).
    plan_ovc_code_fraction: float = 0.95
    #: Rows of merge read buffer charged per run during a merge pass —
    #: the Arge–Thorup ``M/B`` term bounding the practical fan-in.
    plan_merge_buffer_rows: int = 1024
    #: Bytes per row of a late-materialization *skeleton* (encoded sort
    #: key + row reference + page framing) — what intermediate merge
    #: passes move instead of the full payload.
    plan_lazy_row_bytes: float = 48.0
    #: Fraction of a merge pass's sequential read volume that zone-map
    #: page skipping is expected to prune (pages whose min key exceeds
    #: the sharpening cutoff).  Conservative: directed runs measure
    #: more once the cutoff has tightened.
    plan_zone_skip_fraction: float = 0.25
    #: Per-row costs of the two equi-join methods: inserting a build row
    #: into the hash table, probing it, and emitting one output row
    #: (tuple concatenation).  Interpreter-calibrated like the top-k
    #: path constants — only relative magnitudes matter.
    plan_hash_build_row_s: float = 1.5e-7
    plan_hash_probe_row_s: float = 1.2e-7
    plan_join_emit_row_s: float = 1.0e-7

    def io_seconds(self, io: IOStats) -> float:
        """Simulated seconds spent on storage traffic alone."""
        request_time = (io.write_requests + io.read_requests) \
            * self.request_overhead_s
        write_time = io.bytes_written / self.write_bandwidth_bytes_per_s
        read_time = io.bytes_read / self.read_bandwidth_bytes_per_s
        random_time = io.random_reads * self.random_read_s
        codec_time = (io.bytes_encoded + io.bytes_decoded) \
            / self.codec_bandwidth_bytes_per_s
        return request_time + write_time + read_time + random_time \
            + codec_time

    def cpu_seconds(self, stats: OperatorStats) -> float:
        """Simulated seconds of operator CPU work."""
        comparisons = stats.cutoff_comparisons + stats.sort_comparisons
        return (stats.rows_consumed * self.cpu_row_s
                + comparisons * self.cpu_comparison_s)

    def total_seconds(self, stats: OperatorStats) -> float:
        """Simulated end-to-end operator time (CPU + I/O)."""
        return self.cpu_seconds(stats) + self.io_seconds(stats.io)

    def sharded_seconds(
        self,
        shard_stats: "list[OperatorStats]",
        coordinator_stats: OperatorStats | None = None,
    ) -> float:
        """Simulated time of a sharded execution: the critical path.

        Shards run concurrently, so the parallel phase costs as much as
        its slowest shard; the coordinator's own work (partitioning feed
        plus final merge) is serial and adds on top.  This is the
        standard parallel external-memory accounting (max over
        processors + sequential remainder) and the basis of the modeled
        speedup in ``benchmarks/bench_shard.py`` — wall-clock speedups
        require as many cores as shards, which a CI container rarely
        has, while the critical path is machine-independent.
        """
        slowest = max((self.total_seconds(stats)
                       for stats in shard_stats), default=0.0)
        serial = (self.total_seconds(coordinator_stats)
                  if coordinator_stats is not None else 0.0)
        return slowest + serial

    # -- a-priori plan costing (the cost-based planner) ------------------

    def expected_admitted(self, rows: float, needed: float) -> float:
        """Expected rows surviving arrival filtering in random order.

        A row survives when it ranks among the ``needed`` smallest seen
        so far; summing that probability over the stream gives the
        harmonic bound ``needed * (1 + ln(rows / needed))`` — within a
        few percent of the measured spill volumes in
        ``BENCH_batch.json`` (76k observed vs 78k modeled at 1M rows,
        k=15000).
        """
        if rows <= 0:
            return 0.0
        if rows <= needed:
            return float(rows)
        return min(float(rows),
                   needed * (1.0 + math.log(rows / needed)))

    def run_rows(self, needed: float, memory_rows: int) -> float:
        """Expected rows per sorted run (replacement selection doubles
        the memory load; the auto run-size limit caps at ``needed``)."""
        return max(1.0, min(2.0 * memory_rows, needed))

    def merge_passes(self, runs: int, fan_in: int | None) -> int:
        """Merge passes for ``runs`` at ``fan_in`` (``None`` = single).

        This is the Arge–Thorup pass count ``ceil(log_F R)``: each pass
        folds ``F`` runs into one, re-reading and re-writing every
        surviving row, so bounded fan-in trades passes for buffer
        memory.
        """
        if runs <= 1:
            return 0
        if fan_in is None or fan_in >= runs:
            return 1
        fan_in = max(2, fan_in)
        return max(1, math.ceil(math.log(runs) / math.log(fan_in)))

    def max_fan_in(self, memory_rows: int) -> int:
        """The Arge–Thorup memory-bounded fan-in ``M / B``: how many
        run read-buffers fit in the operator's memory budget."""
        return max(2, memory_rows // self.plan_merge_buffer_rows)

    def topk_plan_cost(
        self,
        *,
        rows: float,
        row_bytes: float,
        needed: int,
        memory_rows: int,
        path: str,
        key_columns: int = 1,
        key_encoding: str = "tuple",
        desc_obj_columns: int = 0,
        fan_in: int | None = None,
        shards: int = 1,
        materialization: str = "eager",
    ) -> "PlanCost":
        """Estimated cost of one physical top-k plan, before execution.

        Args:
            rows: Estimated input cardinality (after WHERE filtering).
            row_bytes: Estimated bytes per row (spill volume term).
            needed: ``k + offset`` output rows.
            memory_rows: The operator's memory budget.
            path: ``"batch"`` | ``"vectorized"`` | ``"sharded"``.
            key_columns: ORDER BY arity (tuple-comparison cost term).
            key_encoding: ``"tuple"`` or ``"ovc"``.
            desc_obj_columns: Descending non-numeric columns — ``Desc``
                wrappers that make tuple comparisons pay a Python call.
            fan_in: Merge fan-in (``None`` = unbounded single pass).
            shards: Worker processes (``"sharded"`` path only).
            materialization: ``"eager"`` (full rows through every merge
                pass) or ``"lazy"`` (key/payload-split storage: merge
                passes after the first move skeletons, zone maps prune
                sequential reads, and the stitch pays random reads for
                the winners).
        """
        if materialization not in ("eager", "lazy"):
            raise ValueError(
                f"unknown materialization {materialization!r}")
        rows = max(0.0, float(rows))
        if path == "sharded":
            shard_rows = rows / max(1, shards)
            per_shard = self.topk_plan_cost(
                rows=shard_rows, row_bytes=row_bytes, needed=needed,
                memory_rows=memory_rows, path="vectorized",
                key_columns=key_columns, key_encoding=key_encoding,
                desc_obj_columns=desc_obj_columns, fan_in=fan_in,
                shards=1)
            startup = self.plan_shard_startup_s * shards
            feed = rows * self.plan_shard_feed_row_s
            final_merge = (shards * needed) * self.plan_row_s_vectorized
            cpu = startup + feed + final_merge + per_shard.cpu_seconds
            return PlanCost(
                seconds=cpu + per_shard.io_seconds,
                cpu_seconds=cpu,
                io_seconds=per_shard.io_seconds,
                rows_in=rows,
                rows_spilled=per_shard.rows_spilled * shards,
                runs=per_shard.runs * shards,
                merge_passes=per_shard.merge_passes,
                fan_in=per_shard.fan_in,
            )

        per_row = {
            "batch": self.plan_row_s_batch,
            "vectorized": self.plan_row_s_vectorized,
        }[path]
        full_compare = (self.plan_compare_base_s
                        + self.plan_compare_column_s * max(1, key_columns)
                        + self.plan_compare_desc_obj_s * desc_obj_columns)
        cpu = rows * per_row
        if key_encoding == "ovc":
            cpu += rows * self.plan_key_encode_s
            full_compare = (
                self.plan_ovc_code_fraction * self.plan_compare_code_s
                + (1.0 - self.plan_ovc_code_fraction)
                * (self.plan_compare_base_s + self.plan_compare_column_s))
        if path == "vectorized":
            # numpy sorts/compares inside the per-row constant already.
            full_compare = 0.0

        in_memory = needed <= memory_rows
        if in_memory:
            # Priority-queue regime: one rejection test per row plus
            # harmonic heap maintenance; nothing spills.
            survivors = self.expected_admitted(rows, needed)
            comparisons = rows + survivors * math.log2(max(2, needed))
            cpu += comparisons * full_compare
            return PlanCost(seconds=cpu, cpu_seconds=cpu, io_seconds=0.0,
                            rows_in=rows, rows_spilled=0.0, runs=0,
                            merge_passes=0, fan_in=None)

        spilled = self.expected_admitted(rows, needed)
        run_rows = self.run_rows(needed, memory_rows)
        runs = max(1, math.ceil(spilled / run_rows)) if spilled else 0
        effective_fan_in = fan_in if fan_in is not None else (runs or None)
        passes = self.merge_passes(runs, fan_in)
        # Run generation: heap (or sort) over the memory load; merge:
        # one tournament per surviving row per pass.
        comparisons = spilled * math.log2(max(2.0, run_rows))
        comparisons += passes * spilled * math.log2(
            max(2, min(runs, effective_fan_in or runs)))
        cpu += comparisons * full_compare

        spill_bytes = spilled * row_bytes
        pages = math.ceil(spill_bytes / 65536) if spill_bytes else 0
        if materialization == "lazy":
            # Original runs are written full-width; the first merge pass
            # reads them key-only, every later pass moves skeletons, and
            # zone maps prune a fraction of each sequential read.  The
            # stitch pays one random read per winner page at the end.
            skeleton_bytes = spilled * self.plan_lazy_row_bytes
            skeleton_pages = (math.ceil(skeleton_bytes / 65536)
                              if skeleton_bytes else 0)
            keep = 1.0 - self.plan_zone_skip_fraction
            io = spill_bytes / self.write_bandwidth_bytes_per_s
            if passes:
                io += keep * spill_bytes \
                    / self.read_bandwidth_bytes_per_s
                io += (passes - 1) * (
                    keep * skeleton_bytes
                    / self.read_bandwidth_bytes_per_s
                    + skeleton_bytes
                    / self.write_bandwidth_bytes_per_s)
            read_pages = pages + skeleton_pages * max(0, passes - 1)
            io += (pages * (2 if passes else 1)
                   + 2 * skeleton_pages * max(0, passes - 1)) \
                * self.request_overhead_s
            stitch_reads = min(float(needed),
                               runs + needed * row_bytes / 65536.0)
            io += stitch_reads * self.random_read_s
            return PlanCost(
                seconds=cpu + io, cpu_seconds=cpu, io_seconds=io,
                rows_in=rows, rows_spilled=spilled, runs=runs,
                merge_passes=passes, fan_in=effective_fan_in,
                materialization="lazy",
                pages_skipped=self.plan_zone_skip_fraction * read_pages,
                bytes_not_decoded=max(0.0,
                                      spill_bytes - skeleton_bytes))
        io = spill_bytes / self.write_bandwidth_bytes_per_s
        io += passes * spill_bytes * (
            1.0 / self.read_bandwidth_bytes_per_s
            + 1.0 / self.write_bandwidth_bytes_per_s)
        # The final pass reads but does not rewrite.
        io -= spill_bytes / self.write_bandwidth_bytes_per_s if passes else 0
        io += pages * (1 + passes) * self.request_overhead_s
        return PlanCost(seconds=cpu + io, cpu_seconds=cpu, io_seconds=io,
                        rows_in=rows, rows_spilled=spilled, runs=runs,
                        merge_passes=passes, fan_in=effective_fan_in)


    def join_plan_cost(
        self,
        *,
        method: str,
        build_rows: float,
        probe_rows: float,
        out_rows: float,
        build_sorted: bool = False,
        probe_sorted: bool = False,
        memory_rows: int | None = None,
        row_bytes: float = 64.0,
    ) -> "JoinCost":
        """Estimated cost of one equi-join method, before execution.

        * ``hash`` — in-memory: one hash-table insert per build row, one
          probe per probe row, one emit per output row;
        * ``merge`` — streaming: an ``n log n`` sort of each *unsorted*
          side plus a linear zip.  A side whose table is physically
          sorted on the join key skips its sort term, which is exactly
          when sort-merge beats hashing.  When ``memory_rows`` is given,
          an unsorted side larger than the budget spills through run
          generation: one sequential write plus one sequential read of
          that side's rows (the streaming sorter merges in a single
          pass), charged at the model's bandwidth and request-overhead
          terms.
        """
        build_rows = max(0.0, float(build_rows))
        probe_rows = max(0.0, float(probe_rows))
        out_rows = max(0.0, float(out_rows))
        io = 0.0
        if method == "hash":
            cpu = (build_rows * self.plan_hash_build_row_s
                   + probe_rows * self.plan_hash_probe_row_s)
        elif method == "merge":
            compare = self.plan_compare_base_s

            def sort_s(rows: float, pre_sorted: bool) -> float:
                if pre_sorted or rows <= 1:
                    return rows * self.cpu_row_s
                return rows * math.log2(max(2.0, rows)) * compare

            cpu = (sort_s(build_rows, build_sorted)
                   + sort_s(probe_rows, probe_sorted)
                   + (build_rows + probe_rows) * compare)
            if memory_rows is not None and memory_rows > 0:
                for rows, pre_sorted in ((build_rows, build_sorted),
                                         (probe_rows, probe_sorted)):
                    if pre_sorted or rows <= memory_rows:
                        continue
                    spill_bytes = rows * row_bytes
                    io += spill_bytes * (
                        1.0 / self.write_bandwidth_bytes_per_s
                        + 1.0 / self.read_bandwidth_bytes_per_s)
                    pages = spill_bytes / 65536.0
                    io += 2 * pages * self.request_overhead_s
        else:
            raise ValueError(f"unknown join method {method!r}")
        cpu += out_rows * self.plan_join_emit_row_s
        return JoinCost(seconds=cpu + io, rows_build=build_rows,
                        rows_probe=probe_rows, rows_out=out_rows)


@dataclass(frozen=True)
class JoinCost:
    """An a-priori cost estimate for one candidate join method.

    ``seconds`` may include planner-side surcharges beyond the bare
    join (a pushed-down cutoff filter's per-row cost, the downstream
    top-k's consumption of the join output); ``filter_rows_dropped``
    records how many sort-side rows the estimate expects a pushed-down
    cutoff filter to eliminate before they reach the join.
    """

    seconds: float
    rows_build: float
    rows_probe: float
    rows_out: float
    filter_rows_dropped: float = 0.0


@dataclass(frozen=True)
class PlanCost:
    """An a-priori cost estimate for one candidate physical plan."""

    seconds: float
    cpu_seconds: float
    io_seconds: float
    rows_in: float
    rows_spilled: float
    runs: int
    merge_passes: int
    #: The effective merge fan-in the estimate assumed (``None`` when
    #: nothing spills).
    fan_in: int | None = None
    #: ``"eager"`` or ``"lazy"`` — how the plan moves spilled payloads.
    materialization: str = "eager"
    #: Estimated pages zone maps will prune from sequential merge reads.
    pages_skipped: float = 0.0
    #: Estimated payload bytes a lazy plan never decodes (skeleton reads
    #: over the full-width original runs).
    bytes_not_decoded: float = 0.0


#: Model of the paper's workstation + disaggregated storage setup.
DEFAULT_COST_MODEL = CostModel()

#: Scale-consistent model for scaled-down experiments.  Per-request
#: overhead is folded into the bandwidth terms (a fixed per-request charge
#: does not shrink when a workload is scaled 1/1000, which would distort
#: comparisons at small sizes), and CPU constants reflect realistic
#: engine per-row costs so that the Figure 6 CPU-vs-I/O trade-off keeps
#: the paper's proportions.  All terms are linear in row counts, making
#: simulated-time *ratios* invariant under proportional scaling.
SCALED_COST_MODEL = CostModel(
    request_overhead_s=0.0,
    write_bandwidth_bytes_per_s=50e6,
    read_bandwidth_bytes_per_s=65e6,
    random_read_s=0.010,
    cpu_row_s=2.0e-7,
    cpu_comparison_s=4.0e-8,
)

#: A model where I/O utterly dominates (isolates spill-volume effects).
IO_BOUND_COST_MODEL = CostModel(
    request_overhead_s=0.002,
    write_bandwidth_bytes_per_s=60e6,
    read_bandwidth_bytes_per_s=80e6,
    random_read_s=0.020,
    cpu_row_s=0.0,
    cpu_comparison_s=0.0,
)


@dataclass(frozen=True)
class ResourceCost:
    """Pay-as-you-go resource cost, Section 5.6: ``memory × time``.

    The paper compares its algorithm (small memory, some extra time) to the
    in-memory priority-queue algorithm (memory for the whole output, less
    time) under a cloud-style cost of ``size of resource * time used``.
    """

    memory_bytes: int
    seconds: float

    @property
    def gigabyte_seconds(self) -> float:
        """Cost in GB·s, the unit used by the Figure 6 reproduction."""
        return self.memory_bytes / 1e9 * self.seconds

    def improvement_over(self, other: "ResourceCost") -> float:
        """How many times cheaper ``self`` is than ``other``."""
        if self.gigabyte_seconds == 0:
            return float("inf")
        return other.gigabyte_seconds / self.gigabyte_seconds
