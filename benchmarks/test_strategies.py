"""Benchmark: the Section 2.1 strategy bake-off.

Histogram filtering vs late materialization vs range partitioning vs
materialize-with-zone-maps, on the same workload, under the disaggregated
storage cost model.  The paper's qualitative ranking must hold:

* late materialization drowns in random reads,
* zone maps pay full materialization and prune nothing on shuffled input,
* range partitioning with sampled boundaries is competitive but needed a
  statistics pass the histogram algorithm does not.
"""

import pytest

from conftest import bench_workload
from repro.core.topk import HistogramTopK
from repro.storage.costmodel import CostModel
from repro.storage.spill import SpillManager
from repro.strategies import (
    LateMaterializationTopK,
    RangePartitionTopK,
    ZoneMapTopK,
)
from repro.strategies.range_partition import boundaries_from_sample

DISAGGREGATED = CostModel(random_read_s=0.010)


def _workload_rows():
    workload = bench_workload(input_rows=40_000)
    return workload, list(workload.make_input())


def _cost(operator, rows):
    output = list(operator.execute(iter(rows)))
    return output, DISAGGREGATED.total_seconds(operator.stats)


def test_strategy_histogram(benchmark):
    workload, rows = _workload_rows()

    def run():
        spill = SpillManager(row_size=lambda _row: 143)
        return _cost(HistogramTopK(workload.sort_spec, workload.k,
                                   workload.memory_rows,
                                   spill_manager=spill), rows)

    output, _cost_s = benchmark(run)
    assert len(output) == workload.k


def test_strategy_late_materialization(benchmark):
    workload, rows = _workload_rows()

    def run():
        return _cost(LateMaterializationTopK(
            workload.sort_spec, workload.k, workload.memory_rows), rows)

    output, _cost_s = benchmark(run)
    assert len(output) == workload.k


def test_strategy_range_partition(benchmark):
    workload, rows = _workload_rows()
    boundaries = boundaries_from_sample(
        [row[0] for row in rows[:4_000]], 32)

    def run():
        return _cost(RangePartitionTopK(
            workload.sort_spec, workload.k, workload.memory_rows,
            boundaries), rows)

    output, _cost_s = benchmark(run)
    assert len(output) == workload.k


def test_strategy_zone_maps(benchmark):
    workload, rows = _workload_rows()

    def run():
        return _cost(ZoneMapTopK(workload.sort_spec, workload.k,
                                 workload.memory_rows, block_rows=1_024),
                     rows)

    output, _cost_s = benchmark(run)
    assert len(output) == workload.k


def test_strategy_ranking_matches_paper(benchmark):
    """One combined run asserting the paper's qualitative ordering."""
    workload, rows = _workload_rows()

    def run():
        spill = SpillManager(row_size=lambda _row: 143)
        results = {}
        _out, results["histogram"] = _cost(
            HistogramTopK(workload.sort_spec, workload.k,
                          workload.memory_rows, spill_manager=spill),
            rows)
        _out, results["late_materialization"] = _cost(
            LateMaterializationTopK(workload.sort_spec, workload.k,
                                    workload.memory_rows), rows)
        _out, results["zone_maps"] = _cost(
            ZoneMapTopK(workload.sort_spec, workload.k,
                        workload.memory_rows, block_rows=1_024), rows)
        return results

    costs = benchmark(run)
    # Expensive random reads bury late materialization.
    assert costs["late_materialization"] > costs["histogram"]
    # Full materialization costs more than eager filtering.
    assert costs["zone_maps"] > costs["histogram"]
