"""Tests for the vectorized execution path."""

import hashlib

import numpy as np
import pytest

from repro.core.analysis import simulate_sampled
from repro.errors import ConfigurationError, SpillError
from repro.vectorized import VectorRunStore, VectorizedHistogramTopK


def chunked(keys, chunk_rows=4_096):
    return [keys[start:start + chunk_rows]
            for start in range(0, len(keys), chunk_rows)]


@pytest.fixture
def keys():
    return np.random.default_rng(11).random(120_000)


class TestVectorRunStore:
    def test_write_and_read_accounting(self):
        store = VectorRunStore(page_rows=100)
        run = store.write_run(np.arange(250, dtype=float))
        assert store.stats.rows_spilled == 250
        assert store.stats.write_requests == 3
        assert store.stats.bytes_written == 250 * 8
        store.read_run(run)
        assert store.stats.rows_read == 250

    def test_row_ids_charge_extra_bytes(self):
        store = VectorRunStore()
        store.write_run(np.arange(10, dtype=float),
                        np.arange(10))
        assert store.stats.bytes_written == 10 * 16

    def test_unsorted_run_rejected(self):
        store = VectorRunStore()
        with pytest.raises(SpillError):
            store.write_run(np.array([2.0, 1.0]))

    def test_mismatched_ids_rejected(self):
        store = VectorRunStore()
        with pytest.raises(SpillError):
            store.write_run(np.array([1.0, 2.0]), np.array([1]))

    def test_delete_run(self):
        store = VectorRunStore()
        run = store.write_run(np.array([1.0]))
        store.delete_run(run)
        assert store.runs == []
        assert store.stats.runs_deleted == 1


class TestCorrectness:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            VectorizedHistogramTopK(k=0, memory_rows=10)
        with pytest.raises(ConfigurationError):
            VectorizedHistogramTopK(k=5, memory_rows=0)
        with pytest.raises(ConfigurationError):
            VectorizedHistogramTopK(k=5, memory_rows=10, offset=-1)
        with pytest.raises(ConfigurationError):
            VectorizedHistogramTopK(k=5, memory_rows=10,
                                    buckets_per_run=-1)

    def test_external_regime_exact(self, keys):
        operator = VectorizedHistogramTopK(k=10_000, memory_rows=1_000)
        out = operator.execute_keys(chunked(keys))
        assert np.array_equal(out, np.sort(keys)[:10_000])

    def test_in_memory_regime_exact(self, keys):
        operator = VectorizedHistogramTopK(k=500, memory_rows=50_000)
        out = operator.execute_keys(chunked(keys))
        assert np.array_equal(out, np.sort(keys)[:500])
        assert operator.stats.io.rows_spilled == 0

    def test_offset(self, keys):
        operator = VectorizedHistogramTopK(k=700, memory_rows=400,
                                           offset=900)
        out = operator.execute_keys(chunked(keys))
        assert np.array_equal(out, np.sort(keys)[900:1_600])

    def test_row_ids_follow_keys(self, keys):
        ids = np.arange(keys.size) * 7
        chunks = [(c, i) for c, i in zip(chunked(keys),
                                         chunked(ids))]
        operator = VectorizedHistogramTopK(k=3_000, memory_rows=500)
        out_keys, out_ids = operator.execute(chunks)
        assert np.array_equal(keys[out_ids // 7], out_keys)

    def test_duplicate_heavy_input(self):
        keys = np.random.default_rng(3).integers(
            0, 50, size=50_000).astype(float)
        operator = VectorizedHistogramTopK(k=5_000, memory_rows=700)
        out = operator.execute_keys(chunked(keys))
        assert np.array_equal(out, np.sort(keys)[:5_000])

    def test_k_exceeds_input(self):
        keys = np.random.default_rng(4).random(300)
        operator = VectorizedHistogramTopK(k=1_000, memory_rows=100)
        out = operator.execute_keys(chunked(keys, 50))
        assert np.array_equal(out, np.sort(keys))

    def test_empty_input(self):
        operator = VectorizedHistogramTopK(k=10, memory_rows=5)
        out = operator.execute_keys(iter([]))
        assert out.size == 0

    def test_zero_buckets_disables_filtering(self, keys):
        operator = VectorizedHistogramTopK(k=10_000, memory_rows=1_000,
                                           buckets_per_run=0)
        out = operator.execute_keys(chunked(keys))
        assert np.array_equal(out, np.sort(keys)[:10_000])
        assert operator.stats.io.rows_spilled == keys.size


class TestFiltering:
    def test_spills_far_less_than_input(self, keys):
        operator = VectorizedHistogramTopK(k=5_000, memory_rows=1_000)
        operator.execute_keys(chunked(keys))
        assert operator.stats.io.rows_spilled < 40_000
        assert operator.stats.rows_eliminated > 60_000

    def test_matches_row_engine_spill_behavior(self):
        """The vectorized path implements the same algorithm as the
        quicksort-run row engine: spill counts agree closely."""
        from repro.core.policies import TargetBucketsPolicy
        from repro.core.topk import HistogramTopK

        rng = np.random.default_rng(9)
        keys = rng.random(80_000)
        vector = VectorizedHistogramTopK(k=4_000, memory_rows=800,
                                         buckets_per_run=9)
        vector.execute_keys(chunked(keys))
        row = HistogramTopK(
            lambda r: r[0], 4_000, 800, run_generation="quicksort",
            run_size_limit=None,
            sizing_policy=TargetBucketsPolicy(9, capped=True),
            expected_run_rows=800)
        list(row.execute((float(k),) for k in keys))
        assert vector.stats.io.rows_spilled == pytest.approx(
            row.stats.io.rows_spilled, rel=0.05)

    def test_matches_analysis_simulator(self):
        """Same load-sort-store model as simulate_sampled: same spills."""
        sampled = simulate_sampled(200_000, 5_000, 1_000, 9, seed=1)
        rng = None
        from repro.datagen.distributions import UNIFORM
        chunks = [UNIFORM.sample(1 << 18, seed=1)[:200_000]]
        operator = VectorizedHistogramTopK(k=5_000, memory_rows=1_000,
                                           buckets_per_run=9)
        operator.execute_keys(chunks)
        assert operator.stats.io.rows_spilled == pytest.approx(
            sampled.rows_spilled, rel=0.05)

    def test_cutoff_key_bounds_output(self, keys):
        operator = VectorizedHistogramTopK(k=5_000, memory_rows=1_000)
        out = operator.execute_keys(chunked(keys))
        assert operator.cutoff_filter.cutoff_key >= out[-1]

    def test_scales_to_millions_quickly(self):
        rng = np.random.default_rng(12)
        keys = rng.random(2_000_000)
        operator = VectorizedHistogramTopK(k=30_000, memory_rows=7_000)
        import time
        started = time.perf_counter()
        out = operator.execute_keys(chunked(keys, 1 << 16))
        elapsed = time.perf_counter() - started
        assert out.size == 30_000
        assert elapsed < 10.0  # generous bound; typically < 0.5 s


# -- pinned decisions ---------------------------------------------------------


def _pinned_keys(name: str) -> np.ndarray:
    rng = np.random.default_rng(23)
    n = 12_000
    if name == "random":
        return rng.random(n)
    if name == "descending":
        return np.arange(n, 0, -1, dtype=float)
    if name == "duplicates":
        return rng.integers(0, 40, size=n).astype(float)
    keys = rng.random(n)  # "nan": about one key in ten is NaN
    keys[rng.random(n) < 0.1] = np.nan
    return keys


#: ``config -> (k, offset, memory_rows, buckets_per_run)``.
PINNED_CONFIGS = {
    "plain": (1_500, 0, 400, 50),
    "offset": (700, 400, 300, 9),
}


def _pin_digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pinned_run(name: str, config: str, chunk_rows: int):
    keys = _pinned_keys(name)
    k, offset, memory_rows, buckets_per_run = PINNED_CONFIGS[config]
    buckets, cutoffs = [], []
    operator = VectorizedHistogramTopK(
        k=k, memory_rows=memory_rows, offset=offset,
        buckets_per_run=buckets_per_run,
        histogram_sink=lambda bucket: buckets.append(
            (bucket.boundary_key, bucket.size)),
        cutoff_listener=cutoffs.append)
    output = operator.execute_keys(chunked(keys, chunk_rows))
    finite = np.sort(keys[~np.isnan(keys)])
    assert np.array_equal(output, finite[offset:offset + k])
    stats, filter_stats = operator.stats, operator.cutoff_filter.stats
    return (stats.rows_consumed, stats.rows_eliminated_on_arrival,
            stats.rows_eliminated_at_spill, stats.cutoff_comparisons,
            stats.io.rows_spilled, stats.io.runs_written,
            filter_stats.buckets_inserted, filter_stats.buckets_popped,
            filter_stats.refinements, len(buckets), _pin_digest(buckets),
            len(cutoffs), _pin_digest(cutoffs), _pin_digest(output.tolist()))


#: ``(input, config, chunk rows) -> (rows_consumed,
#: rows_eliminated_on_arrival, rows_eliminated_at_spill,
#: cutoff_comparisons, rows_spilled, runs_written, buckets_inserted,
#: buckets_popped, refinements, histogram_sink length and digest,
#: cutoff_listener length and digest, output digest)``.  Every input but
#: ``nan`` was pinned before a run's buckets went to the filter in one
#: call; the ``nan`` tuples were taken once NaN keys were dropped on
#: arrival (before, a NaN boundary could become the cutoff, and the
#: ``plain`` configuration returned wrong keys).
PINNED = {
    ("random", "plain", 1):
        (12000, 6891, 749, 10000, 4360, 13, 591, 376, 377, 591,
         "f25dd8a7740f2018", 377, "b90c1e9c8482a476", "b86baa65a415c2b0"),
    ("random", "plain", 777):
        (12000, 6891, 749, 9669, 4360, 13, 591, 376, 377, 591,
         "f25dd8a7740f2018", 377, "b90c1e9c8482a476", "b86baa65a415c2b0"),
    ("random", "plain", 4096):
        (12000, 6891, 749, 7904, 4360, 13, 591, 376, 377, 591,
         "f25dd8a7740f2018", 377, "b90c1e9c8482a476", "b86baa65a415c2b0"),
    ("random", "offset", 1):
        (12000, 7656, 581, 10500, 3763, 15, 118, 81, 82, 118,
         "ed1aefdf2540d876", 82, "acfa10c3d60e75c5", "9b062e4d66a55404"),
    ("random", "offset", 777):
        (12000, 7656, 581, 10446, 3763, 15, 118, 81, 82, 118,
         "ed1aefdf2540d876", 82, "acfa10c3d60e75c5", "9b062e4d66a55404"),
    ("random", "offset", 4096):
        (12000, 7656, 581, 7904, 3763, 15, 118, 81, 82, 118,
         "ed1aefdf2540d876", 82, "acfa10c3d60e75c5", "9b062e4d66a55404"),
    ("descending", "plain", 1):
        (12000, 0, 0, 10000, 12000, 30, 1500, 1285, 1286, 1500,
         "eca00f05c4f45e3d", 1286, "863d7de569f3038d", "7778a6865f7845f0"),
    ("descending", "plain", 777):
        (12000, 0, 0, 9669, 12000, 30, 1500, 1285, 1286, 1500,
         "eca00f05c4f45e3d", 1286, "863d7de569f3038d", "7778a6865f7845f0"),
    ("descending", "plain", 4096):
        (12000, 0, 0, 7904, 12000, 30, 1500, 1285, 1286, 1500,
         "eca00f05c4f45e3d", 1286, "863d7de569f3038d", "7778a6865f7845f0"),
    ("descending", "offset", 1):
        (12000, 0, 0, 10500, 12000, 40, 360, 323, 324, 360, "d6cc0a491354eab9",
         324, "bcceda8788188df2", "5ced859c28207ea8"),
    ("descending", "offset", 777):
        (12000, 0, 0, 10446, 12000, 40, 360, 323, 324, 360, "d6cc0a491354eab9",
         324, "bcceda8788188df2", "5ced859c28207ea8"),
    ("descending", "offset", 4096):
        (12000, 0, 0, 7904, 12000, 40, 360, 323, 324, 360, "d6cc0a491354eab9",
         324, "bcceda8788188df2", "5ced859c28207ea8"),
    ("duplicates", "plain", 1):
        (12000, 6840, 670, 10000, 4490, 13, 609, 394, 31, 609,
         "5660d6b30b1c9d98", 31, "f1072021fd2de1d8", "3cb00bb4cf44842a"),
    ("duplicates", "plain", 777):
        (12000, 6840, 670, 9669, 4490, 13, 609, 394, 31, 609,
         "5660d6b30b1c9d98", 31, "f1072021fd2de1d8", "3cb00bb4cf44842a"),
    ("duplicates", "plain", 4096):
        (12000, 6840, 670, 7904, 4490, 13, 609, 394, 31, 609,
         "5660d6b30b1c9d98", 31, "f1072021fd2de1d8", "3cb00bb4cf44842a"),
    ("duplicates", "offset", 1):
        (12000, 7488, 569, 10500, 3943, 16, 122, 85, 26, 122,
         "048c34592cbf6696", 26, "d76bb24b47d15789", "6c7dd8f75c3f23cc"),
    ("duplicates", "offset", 777):
        (12000, 7488, 569, 10446, 3943, 16, 122, 85, 26, 122,
         "048c34592cbf6696", 26, "d76bb24b47d15789", "6c7dd8f75c3f23cc"),
    ("duplicates", "offset", 4096):
        (12000, 7488, 569, 7904, 3943, 16, 122, 85, 26, 122,
         "048c34592cbf6696", 26, "d76bb24b47d15789", "6c7dd8f75c3f23cc"),
    ("nan", "plain", 1):
        (12000, 7072, 701, 9762, 4227, 13, 570, 355, 356, 570,
         "547ef92b87d54cd5", 356, "605d7166d5b54251", "f1952f1d08c32690"),
    ("nan", "plain", 777):
        (12000, 7072, 701, 9669, 4227, 13, 570, 355, 356, 570,
         "547ef92b87d54cd5", 356, "605d7166d5b54251", "f1952f1d08c32690"),
    ("nan", "plain", 4096):
        (12000, 7072, 701, 7904, 4227, 13, 570, 355, 356, 570,
         "547ef92b87d54cd5", 356, "605d7166d5b54251", "f1952f1d08c32690"),
    ("nan", "offset", 1):
        (12000, 7812, 584, 10329, 3604, 14, 113, 76, 77, 113,
         "e46d1dd48db9e3d7", 77, "ad0d37e013177d63", "de0b32608ce8cc72"),
    ("nan", "offset", 777):
        (12000, 7812, 584, 9669, 3604, 14, 113, 76, 77, 113,
         "e46d1dd48db9e3d7", 77, "ad0d37e013177d63", "de0b32608ce8cc72"),
    ("nan", "offset", 4096):
        (12000, 7812, 584, 7904, 3604, 14, 113, 76, 77, 113,
         "e46d1dd48db9e3d7", 77, "ad0d37e013177d63", "de0b32608ce8cc72"),
}


@pytest.mark.parametrize("chunk_rows", (1, 777, 4_096))
@pytest.mark.parametrize("config", list(PINNED_CONFIGS))
@pytest.mark.parametrize("name", ("random", "descending", "duplicates",
                                  "nan"))
def test_decisions_are_pinned(name, config, chunk_rows):
    assert _pinned_run(name, config, chunk_rows) \
        == PINNED[name, config, chunk_rows]
