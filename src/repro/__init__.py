"""repro — histogram-guided external merge sort for top-k queries.

A from-scratch reproduction of *"External Merge Sort for Top-K Queries:
Eager input filtering guided by histograms"* (Chronis, Do, Graefe, Peters —
SIGMOD 2020), including the substrates the algorithm depends on (runs,
replacement selection, merging, spill storage with a disaggregated cost
model), the baselines it is evaluated against, a mini SQL query engine, and
an experiment harness regenerating every table and figure of the paper.

Quickstart::

    from repro import HistogramTopK, keys_only_workload

    workload = keys_only_workload(input_rows=200_000, k=5_000,
                                  memory_rows=1_000)
    operator = HistogramTopK(workload.sort_spec, workload.k,
                             workload.memory_rows)
    top = list(operator.execute(workload.make_input()))
"""

from repro.core import (
    Bucket,
    CutoffFilter,
    FixedStridePolicy,
    HistogramTopK,
    NoHistogramPolicy,
    TargetBucketsPolicy,
    policy_for_bucket_count,
    simulate_sampled,
    simulate_uniform,
    topk,
)
from repro.datagen import (
    FIGURE3_DISTRIBUTIONS,
    LOGNORMAL,
    UNIFORM,
    Distribution,
    fal,
    get_distribution,
    keys_only_workload,
    lineitem_workload,
)
from repro.obs import (
    AnalyzedPlan,
    CutoffTimeline,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
)
from repro.rows import (
    LINEITEM_SCHEMA,
    Column,
    ColumnType,
    Schema,
    SortColumn,
    SortSpec,
    sort_spec,
)
from repro.sorting import ExternalSort, Merger, MergePolicy
from repro.storage import (
    CostModel,
    DEFAULT_COST_MODEL,
    DiskSpillBackend,
    IOStats,
    MemorySpillBackend,
    OperatorStats,
    SpillManager,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "HistogramTopK",
    "topk",
    "CutoffFilter",
    "Bucket",
    "TargetBucketsPolicy",
    "FixedStridePolicy",
    "NoHistogramPolicy",
    "policy_for_bucket_count",
    "simulate_uniform",
    "simulate_sampled",
    # rows
    "Schema",
    "Column",
    "ColumnType",
    "SortSpec",
    "SortColumn",
    "sort_spec",
    "LINEITEM_SCHEMA",
    # data
    "Distribution",
    "UNIFORM",
    "LOGNORMAL",
    "FIGURE3_DISTRIBUTIONS",
    "fal",
    "get_distribution",
    "keys_only_workload",
    "lineitem_workload",
    # storage
    "SpillManager",
    "MemorySpillBackend",
    "DiskSpillBackend",
    "IOStats",
    "OperatorStats",
    "CostModel",
    "DEFAULT_COST_MODEL",
    # sorting
    "ExternalSort",
    "Merger",
    "MergePolicy",
    # observability
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "CutoffTimeline",
    "AnalyzedPlan",
]
