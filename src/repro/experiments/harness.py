"""Experiment harness: run algorithms on workloads and measure.

Used by the table/figure drivers and the benchmark suite.  A measurement
captures three views of cost:

* **rows spilled / runs written** — the paper's principal metric,
  deterministic and interpreter-independent;
* **simulated seconds** — the disaggregated-storage cost model applied to
  the I/O counters (plus CPU proxies), preserving the paper's
  time-speedup shapes;
* **wall seconds** — honest interpreter time, reported but not used for
  paper comparisons (a Python interpreter is not an F1 worker).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.baselines.optimized_topk import OptimizedMergeSortTopK
from repro.baselines.priority_queue_topk import PriorityQueueTopK
from repro.baselines.traditional_topk import TraditionalMergeSortTopK
from repro.core.topk import HistogramTopK
from repro.datagen.workloads import Workload
from repro.errors import ConfigurationError
from repro.storage.costmodel import (
    CostModel,
    SCALED_COST_MODEL,
    ResourceCost,
)
from repro.storage.spill import SpillManager
from repro.storage.stats import OperatorStats

#: Approximate bytes per LINEITEM row; makes the row-count memory budget
#: consistent with the paper's "1 GB is sufficient for 7 million rows".
LINEITEM_ROW_BYTES = 143

#: Merge fan-in used by every external algorithm in the harness.  A
#: production engine bounds the runs merged at once by the merge buffers
#: that fit in operator memory; 16 is a typical value.  Fan-in limits are
#: what make a full external sort pay multi-pass merge I/O — a real cost
#: of the baselines that an unlimited merge would hide.
DEFAULT_FAN_IN = 16


@dataclass(frozen=True)
class Scale:
    """A proportional shrink of the paper's evaluation sizes.

    The algorithm's behavior depends on the input : k : memory *ratios*
    (Table 4 demonstrates the scale-invariance), so dividing all three by
    the same factor preserves every comparative shape while keeping pure
    Python runtimes sane.
    """

    name: str
    factor: int

    def rows(self, paper_rows: int) -> int:
        """Scale a paper row count down, keeping at least one row."""
        return max(1, paper_rows // self.factor)


#: 1/1000 of the paper: memory 7k rows, k 30k, inputs 50k - 2M.
PAPER_SCALE = Scale("paper/1000", 1_000)
#: 1/10000 of the paper: benchmark-friendly sizes.
QUICK_SCALE = Scale("paper/10000", 10_000)

#: Paper evaluation constants (Section 5.1.2): memory and default k.
PAPER_MEMORY_ROWS = 7_000_000
PAPER_DEFAULT_K = 30_000_000
PAPER_MAX_INPUT = 2_000_000_000


@dataclass
class RunResult:
    """One algorithm execution over one workload."""

    algorithm: str
    workload: str
    k: int
    input_rows: int
    memory_rows: int
    output_rows: int
    wall_seconds: float
    stats: OperatorStats
    cost_model: CostModel = SCALED_COST_MODEL
    first_key: Any = None
    last_key: Any = None

    @property
    def rows_spilled(self) -> int:
        return self.stats.io.rows_spilled

    @property
    def runs_written(self) -> int:
        return self.stats.io.runs_written

    @property
    def simulated_seconds(self) -> float:
        return self.cost_model.total_seconds(self.stats)

    def resource_cost(self, row_bytes: int = LINEITEM_ROW_BYTES,
                      memory_rows: int | None = None) -> ResourceCost:
        """Pay-as-you-go cost (Section 5.6): memory footprint x time."""
        rows = memory_rows if memory_rows is not None else self.memory_rows
        return ResourceCost(memory_bytes=rows * row_bytes,
                            seconds=self.simulated_seconds)


def _make_spill_manager(row_bytes: int) -> SpillManager:
    return SpillManager(row_size=lambda _row: row_bytes)


def _build_algorithm(name: str, workload: Workload,
                     spill_manager: SpillManager,
                     options: dict):
    common = dict(k=workload.k, stats=OperatorStats())
    if name == "priority_queue":
        return PriorityQueueTopK(workload.sort_spec, memory_rows=None,
                                 **common, **options)
    options.setdefault("fan_in", DEFAULT_FAN_IN)
    common["memory_rows"] = workload.memory_rows
    common["spill_manager"] = spill_manager
    if name == "histogram":
        # The paper's configuration (Section 5.1.2), whatever the
        # engine's default generator is.
        options.setdefault("run_generation", "replacement_selection")
        return HistogramTopK(workload.sort_spec, **common, **options)
    if name == "optimized":
        return OptimizedMergeSortTopK(workload.sort_spec, **common, **options)
    if name == "traditional":
        return TraditionalMergeSortTopK(workload.sort_spec, **common,
                                        **options)
    raise ConfigurationError(f"unknown algorithm {name!r}")


def run_algorithm(
    name: str,
    workload: Workload,
    row_bytes: int = LINEITEM_ROW_BYTES,
    cost_model: CostModel = SCALED_COST_MODEL,
    **options,
) -> RunResult:
    """Execute algorithm ``name`` on ``workload`` and measure it."""
    spill_manager = _make_spill_manager(row_bytes)
    algorithm = _build_algorithm(name, workload, spill_manager, options)
    key = workload.sort_spec.key
    started = time.perf_counter()
    first_key = last_key = None
    output_rows = 0
    for row in algorithm.execute(workload.make_input()):
        if output_rows == 0:
            first_key = key(row)
        last_key = key(row)
        output_rows += 1
    wall = time.perf_counter() - started
    return RunResult(
        algorithm=name,
        workload=workload.name,
        k=workload.k,
        input_rows=workload.input_rows,
        memory_rows=workload.memory_rows,
        output_rows=output_rows,
        wall_seconds=wall,
        stats=algorithm.stats,
        cost_model=cost_model,
        first_key=first_key,
        last_key=last_key,
    )


@dataclass
class Comparison:
    """Paper-style improvement of our algorithm over a baseline."""

    ours: RunResult
    baseline: RunResult

    @property
    def speedup(self) -> float:
        """Simulated-time speedup (baseline / ours)."""
        mine = self.ours.simulated_seconds
        if mine == 0:
            return float("inf")
        return self.baseline.simulated_seconds / mine

    @property
    def wall_speedup(self) -> float:
        """Wall-clock speedup (interpreter time; informational)."""
        if self.ours.wall_seconds == 0:
            return float("inf")
        return self.baseline.wall_seconds / self.ours.wall_seconds

    @property
    def spill_reduction(self) -> float:
        """Rows-spilled reduction (baseline / ours)."""
        if self.ours.rows_spilled == 0:
            return float("inf") if self.baseline.rows_spilled else 1.0
        return self.baseline.rows_spilled / self.ours.rows_spilled

    def verify_same_output(self) -> bool:
        """Both algorithms must report identical result boundaries."""
        return (self.ours.output_rows == self.baseline.output_rows
                and self.ours.first_key == self.baseline.first_key
                and self.ours.last_key == self.baseline.last_key)


def compare(
    workload: Workload,
    baseline: str = "optimized",
    ours: str = "histogram",
    row_bytes: int = LINEITEM_ROW_BYTES,
    cost_model: CostModel = SCALED_COST_MODEL,
    ours_options: dict | None = None,
    baseline_options: dict | None = None,
) -> Comparison:
    """Run ours-vs-baseline on identical data and return the comparison."""
    ours_result = run_algorithm(ours, workload, row_bytes=row_bytes,
                                cost_model=cost_model,
                                **(ours_options or {}))
    baseline_result = run_algorithm(baseline, workload, row_bytes=row_bytes,
                                    cost_model=cost_model,
                                    **(baseline_options or {}))
    return Comparison(ours=ours_result, baseline=baseline_result)
