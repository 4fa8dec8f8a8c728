"""Tests for the adaptive histogram top-k operator (Algorithm 1)."""

import dataclasses
import math
import random

import pytest

from repro.core.policies import (
    NoHistogramPolicy,
    TargetBucketsPolicy,
)
from repro.core.topk import HistogramTopK, topk
from repro.errors import ConfigurationError
from repro.storage.spill import SpillManager

KEY = lambda row: row[0]  # noqa: E731


def uniform(count, seed=0):
    rng = random.Random(seed)
    return [(rng.random(),) for _ in range(count)]


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HistogramTopK(KEY, 0, 10)
        with pytest.raises(ConfigurationError):
            HistogramTopK(KEY, 5, 0)
        with pytest.raises(ConfigurationError):
            HistogramTopK(KEY, 5, 10, offset=-1)
        with pytest.raises(ConfigurationError):
            HistogramTopK(KEY, 5, 10, run_generation="mystery")

    def test_run_size_limit_defaults_to_k_plus_offset(self):
        operator = HistogramTopK(KEY, 100, 10, offset=5)
        assert operator.run_size_limit == 105

    def test_run_size_limit_can_be_disabled(self):
        operator = HistogramTopK(KEY, 100, 10, run_size_limit=None)
        assert operator.run_size_limit is None

    def test_sort_spec_accepted(self, key_spec):
        operator = HistogramTopK(key_spec, 5, 10)
        assert operator.sort_key((3.5,)) == 3.5

    def test_regime_detection(self):
        assert HistogramTopK(KEY, 10, 100).output_fits_in_memory
        assert not HistogramTopK(KEY, 200, 100).output_fits_in_memory
        assert not HistogramTopK(KEY, 90, 100,
                                 offset=20).output_fits_in_memory


class TestInMemoryRegime:
    def test_small_k_correct(self):
        rows = uniform(5_000)
        out = list(HistogramTopK(KEY, 50, 1_000).execute(rows))
        assert out == sorted(rows)[:50]

    def test_never_spills(self):
        spill = SpillManager()
        operator = HistogramTopK(KEY, 50, 1_000, spill_manager=spill)
        list(operator.execute(uniform(5_000)))
        assert spill.stats.rows_spilled == 0
        assert spill.stats.runs_written == 0

    def test_eliminates_most_input(self):
        operator = HistogramTopK(KEY, 10, 1_000)
        list(operator.execute(uniform(20_000)))
        assert operator.stats.rows_eliminated_on_arrival > 19_000

    def test_k_larger_than_input(self):
        rows = uniform(20)
        out = list(HistogramTopK(KEY, 50, 100).execute(rows))
        assert out == sorted(rows)

    def test_offset_in_memory(self):
        rows = uniform(1_000)
        out = list(HistogramTopK(KEY, 10, 100, offset=25).execute(rows))
        assert out == sorted(rows)[25:35]

    def test_offset_beyond_input(self):
        rows = uniform(10)
        out = list(HistogramTopK(KEY, 5, 100, offset=50).execute(rows))
        assert out == []

    def test_duplicate_keys_count_toward_k(self):
        rows = [(1.0,)] * 30 + [(0.5,)] * 30
        out = list(HistogramTopK(KEY, 40, 100).execute(rows))
        assert out == [(0.5,)] * 30 + [(1.0,)] * 10


class TestExternalRegime:
    def test_correctness_large_k(self):
        rows = uniform(30_000)
        out = list(HistogramTopK(KEY, 3_000, 500).execute(rows))
        assert out == sorted(rows)[:3_000]

    def test_quicksort_run_generation_correct(self):
        rows = uniform(20_000, seed=5)
        operator = HistogramTopK(KEY, 2_000, 400,
                                 run_generation="quicksort")
        assert list(operator.execute(rows)) == sorted(rows)[:2_000]

    def test_spills_far_less_than_input(self):
        rows = uniform(50_000, seed=2)
        operator = HistogramTopK(KEY, 2_000, 500)
        list(operator.execute(rows))
        assert 0 < operator.stats.io.rows_spilled < 15_000

    def test_eliminates_on_arrival_and_at_spill(self):
        rows = uniform(50_000, seed=3)
        operator = HistogramTopK(KEY, 2_000, 500)
        list(operator.execute(rows))
        assert operator.stats.rows_eliminated_on_arrival > 0
        assert operator.stats.rows_eliminated_at_spill > 0

    def test_cutoff_filter_established(self):
        rows = uniform(30_000, seed=4)
        operator = HistogramTopK(KEY, 2_000, 500)
        list(operator.execute(rows))
        assert operator.cutoff_filter.is_established
        # The final cutoff bounds the output's last key from above.
        kth = sorted(rows)[1_999][0]
        assert operator.cutoff_filter.cutoff_key >= kth

    def test_input_smaller_than_memory_never_spills(self):
        spill = SpillManager()
        rows = uniform(300)
        operator = HistogramTopK(KEY, 2_000, 500, spill_manager=spill)
        out = list(operator.execute(rows))
        assert out == sorted(rows)[:2_000]
        assert spill.stats.rows_spilled == 0

    def test_offset_external(self):
        rows = uniform(20_000, seed=6)
        operator = HistogramTopK(KEY, 500, 300, offset=700)
        out = list(operator.execute(rows))
        assert out == sorted(rows)[700:1_200]

    def test_no_histogram_policy_degenerates_to_full_spill(self):
        rows = uniform(10_000, seed=7)
        operator = HistogramTopK(KEY, 2_000, 500,
                                 sizing_policy=NoHistogramPolicy())
        out = list(operator.execute(rows))
        assert out == sorted(rows)[:2_000]
        assert operator.stats.io.rows_spilled == 10_000

    def test_runs_respect_size_limit(self):
        rows = uniform(20_000, seed=8)
        operator = HistogramTopK(KEY, 1_500, 400)
        list(operator.execute(rows))
        assert all(run.row_count <= 1_500 for run in operator.runs)

    def test_descending_adversarial_input_correct(self):
        rows = [(float(i),) for i in range(10_000, 0, -1)]
        operator = HistogramTopK(KEY, 2_000, 500)
        out = list(operator.execute(rows))
        assert out == sorted(rows)[:2_000]
        # The adversarial property: nothing gets eliminated.
        assert operator.stats.rows_eliminated == 0

    def test_ascending_input_filters_aggressively(self):
        rows = [(float(i),) for i in range(10_000)]
        operator = HistogramTopK(KEY, 2_000, 500)
        out = list(operator.execute(rows))
        assert out == rows[:2_000]
        assert operator.stats.rows_eliminated > 6_000

    def test_duplicates_heavy_input(self):
        rng = random.Random(12)
        rows = [(float(rng.randrange(20)),) for _ in range(20_000)]
        operator = HistogramTopK(KEY, 3_000, 400)
        assert list(operator.execute(rows)) == sorted(rows)[:3_000]

    def test_consolidation_budget_respected(self):
        rows = uniform(40_000, seed=9)
        operator = HistogramTopK(KEY, 3_000, 500,
                                 histogram_bucket_capacity=10)
        out = list(operator.execute(rows))
        assert out == sorted(rows)[:3_000]
        assert operator.cutoff_filter.bucket_count <= 10
        assert operator.cutoff_filter.stats.consolidations > 0

    def test_fan_in_limited_merge(self):
        rows = uniform(30_000, seed=10)
        operator = HistogramTopK(KEY, 2_000, 300, fan_in=4)
        assert list(operator.execute(rows)) == sorted(rows)[:2_000]

    def test_stats_rows_accounting_consistent(self):
        rows = uniform(20_000, seed=11)
        operator = HistogramTopK(KEY, 2_000, 500)
        out = list(operator.execute(rows))
        stats = operator.stats
        assert stats.rows_consumed == 20_000
        assert stats.rows_output == len(out) == 2_000


class TestTopkHelper:
    def test_one_call_wrapper(self):
        rows = uniform(5_000, seed=13)
        assert topk(rows, 100, KEY, memory_rows=50) == sorted(rows)[:100]

    def test_wrapper_forwards_options(self):
        rows = uniform(5_000, seed=14)
        result = topk(rows, 200, KEY, memory_rows=50,
                      sizing_policy=TargetBucketsPolicy(5))
        assert result == sorted(rows)[:200]


@pytest.mark.parametrize("k,memory_rows,run_generation", [
    pytest.param(100, 1_000, "quicksort", id="in-memory"),
    pytest.param(1_500, 400, "quicksort", id="load-sort-store"),
    pytest.param(1_500, 400, "replacement_selection",
                 id="replacement-selection"),
])
def test_callable_nan_keys_are_eliminated_on_arrival(k, memory_rows,
                                                     run_generation):
    """A callable's NaN key is dropped on arrival, in both regimes and
    under both run generators: the output is the top k of the finite
    keys, and every counter equals the same run over the finite rows
    alone, plus one consumed and one eliminated-on-arrival row per NaN
    (the way a spec's numeric column counts its NaN drops)."""
    rng = random.Random(11)
    rows = [(math.nan if rng.random() < 0.2 else rng.random(), i)
            for i in range(20_000)]
    finite = [row for row in rows if not math.isnan(row[0])]
    nans = len(rows) - len(finite)

    def run(data):
        operator = HistogramTopK(KEY, k, memory_rows,
                                 run_generation=run_generation)
        output = list(operator.execute(data))
        stats = dataclasses.asdict(operator.stats)
        io = {name: value for name, value in stats.pop("io").items()
              if not name.endswith("seconds")}
        return output, (stats, io,
                        dataclasses.asdict(operator.cutoff_filter.stats))

    output, counters = run(rows)
    assert output == sorted(finite, key=KEY)[:k]
    finite_output, expected = run(finite)
    assert output == finite_output
    expected[0]["rows_consumed"] += nans
    expected[0]["rows_eliminated_on_arrival"] += nans
    assert counters == expected
