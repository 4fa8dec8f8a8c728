"""Tests for load-sort-store (quicksort) run generation."""

import pytest

from repro.core.cutoff import CutoffFilter
from repro.core.histogram import RunHistogramBuilder
from repro.core.policies import FixedStridePolicy
from repro.errors import ConfigurationError
from repro.sorting.quicksort_runs import QuicksortRunGenerator

KEY = lambda row: row[0]  # noqa: E731


def _static_cutoff(key: float) -> CutoffFilter:
    """A cutoff filter pinned at ``key`` (a seed no bucket refines)."""
    cutoff_filter = CutoffFilter(k=1)
    cutoff_filter.seed(key)
    return cutoff_filter


class TestBasics:
    def test_rejects_bad_config(self, spill):
        with pytest.raises(ConfigurationError):
            QuicksortRunGenerator(KEY, 0, spill)

    def test_runs_are_memory_sized_loads(self, spill, rng):
        rows = [(rng.random(),) for _ in range(1_000)]
        generator = QuicksortRunGenerator(KEY, 100, spill)
        runs = generator.generate(rows)
        assert len(runs) == 10
        assert all(run.row_count == 100 for run in runs)

    def test_final_partial_load(self, spill, rng):
        rows = [(rng.random(),) for _ in range(250)]
        generator = QuicksortRunGenerator(KEY, 100, spill)
        runs = generator.generate(rows)
        assert [run.row_count for run in runs] == [100, 100, 50]

    def test_runs_sorted_and_complete(self, spill, rng):
        rows = [(rng.random(),) for _ in range(2_345)]
        generator = QuicksortRunGenerator(KEY, 128, spill)
        runs = generator.generate(rows)
        for run in runs:
            keys = [row[0] for row in run.rows()]
            assert keys == sorted(keys)
        recovered = sorted(row for run in runs for row in run.rows())
        assert recovered == sorted(rows)

    def test_empty_input(self, spill):
        assert QuicksortRunGenerator(KEY, 10, spill).generate([]) == []

    def test_resident_rows_tracks_buffer(self, spill):
        generator = QuicksortRunGenerator(KEY, 10, spill)
        generator.consume([(1.0,), (2.0,)])
        assert generator.resident_rows == 2
        generator.finish()
        assert generator.resident_rows == 0


class TestTruncation:
    def test_static_filter_truncates_tail(self, spill):
        rows = [((i % 100) / 100.0,) for i in range(100)]
        generator = QuicksortRunGenerator(
            KEY, 100, spill, spill_filter=_static_cutoff(0.49))
        runs = generator.generate(rows)
        assert len(runs) == 1
        kept = list(runs[0].rows())
        assert kept == sorted(row for row in rows if row[0] <= 0.49)
        assert runs[0].truncated

    def test_truncation_counts_whole_tail(self, spill):
        rows = [(i / 10.0,) for i in range(10)]
        spill_filter = _static_cutoff(0.35)
        generator = QuicksortRunGenerator(
            KEY, 10, spill, spill_filter=spill_filter)
        generator.generate(rows)
        assert generator._stats.rows_eliminated_at_spill == 6
        assert spill_filter.stats.rows_eliminated == 6

    def test_filter_sharpened_by_on_spill_truncates_same_run(self, spill):
        # The histogram fed by the written rows (the paper's rowSpilled
        # hook) drops the cutoff to 0.3 after the 4th row: the run must
        # end early even though every row passed the filter on entry.
        cutoff_filter = CutoffFilter(k=4)
        histogram = RunHistogramBuilder(FixedStridePolicy(4), 10,
                                        cutoff_filter.insert)
        rows = [(i / 10.0,) for i in range(10)]
        generator = QuicksortRunGenerator(
            KEY, 10, spill, spill_filter=cutoff_filter, histogram=histogram)
        runs = generator.generate(rows)
        assert [row[0] for row in runs[0].rows()] == [0.0, 0.1, 0.2, 0.3]


class TestRunSizeLimit:
    def test_loads_split_at_limit(self, spill, rng):
        rows = [(rng.random(),) for _ in range(300)]
        generator = QuicksortRunGenerator(KEY, 300, spill,
                                          run_size_limit=100)
        runs = generator.generate(rows)
        assert [run.row_count for run in runs] == [100, 100, 100]
        recovered = sorted(row for run in runs for row in run.rows())
        assert recovered == sorted(rows)

    def test_on_run_closed_fires_per_split(self, spill, rng):
        rows = [(rng.random(),) for _ in range(300)]
        closed = []
        generator = QuicksortRunGenerator(
            KEY, 300, spill, run_size_limit=100,
            on_run_closed=lambda run: closed.append(run.row_count))
        generator.generate(rows)
        assert closed == [100, 100, 100]
