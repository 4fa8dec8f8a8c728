"""Tests for the cutoff filter — the paper's core mechanism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cutoff import CutoffFilter, _ReverseKey
from repro.core.histogram import Bucket
from repro.errors import ConfigurationError


class TestReverseKey:
    def test_inverts(self):
        assert _ReverseKey(5) < _ReverseKey(3)


class TestEstablishment:
    def test_no_cutoff_before_k_coverage(self):
        filt = CutoffFilter(k=100)
        filt.insert(Bucket(0.5, 99))
        assert not filt.is_established
        assert filt.cutoff_key is None
        assert not filt.eliminate(0.99)

    def test_cutoff_established_at_k_coverage(self):
        filt = CutoffFilter(k=100)
        filt.insert(Bucket(0.5, 60))
        filt.insert(Bucket(0.8, 40))
        assert filt.is_established
        assert filt.cutoff_key == 0.8  # largest boundary in the queue

    def test_figure1_style_walkthrough(self):
        """Figure 1's mechanism: k=8, size-2 buckets, two runs.

        Hand-traced: after run 1 the four buckets cover exactly k rows and
        the top boundary (90) is the cutoff.  Every insertion from run 2
        raises coverage to 10, allowing one pop (10 - 2 >= 8), so the
        cutoff falls 90 -> 70 -> 45 and stays at 45.
        """
        filt = CutoffFilter(k=8)
        for boundary in (10, 40, 70, 90):
            filt.insert(Bucket(boundary, 2))
        assert filt.is_established
        assert filt.cutoff_key == 90
        filt.insert(Bucket(20, 2))
        assert filt.cutoff_key == 70
        filt.insert(Bucket(45, 2))
        assert filt.cutoff_key == 45
        filt.insert(Bucket(60, 2))   # 60 itself pops right back out
        filt.insert(Bucket(70, 2))   # so does 70
        assert filt.cutoff_key == 45
        assert filt.coverage == 8
        # Figure 1's elimination examples: keys 200 and 170 are dropped.
        assert filt.eliminate(200)
        assert filt.eliminate(170)
        assert not filt.eliminate(45)  # ties with the cutoff survive

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            CutoffFilter(k=0)
        with pytest.raises(ConfigurationError):
            CutoffFilter(k=5, bucket_capacity=0)

    def test_zero_size_bucket_rejected(self):
        with pytest.raises(ConfigurationError):
            CutoffFilter(k=5).insert(Bucket(0.5, 0))


class TestSharpening:
    def test_pop_requires_full_coverage_without_top(self):
        filt = CutoffFilter(k=10)
        filt.insert(Bucket(0.9, 10))
        assert filt.cutoff_key == 0.9
        filt.insert(Bucket(0.5, 9))
        # 19 - 10 = 9 < 10: popping the 0.9 bucket would break coverage.
        assert filt.cutoff_key == 0.9
        filt.insert(Bucket(0.4, 1))
        # 20 - 10 = 10 >= 10: now 0.9 pops and the cutoff drops to 0.5.
        assert filt.cutoff_key == 0.5

    def test_cascading_pops(self):
        filt = CutoffFilter(k=4)
        for boundary in (0.9, 0.8, 0.7, 0.6):
            filt.insert(Bucket(boundary, 4))
        # Coverage 16: everything above one bucket pops.
        assert filt.cutoff_key == 0.6
        assert filt.coverage == 4

    def test_cutoff_never_increases(self):
        import random
        rng = random.Random(3)
        filt = CutoffFilter(k=50)
        previous = None
        for _ in range(500):
            filt.insert(Bucket(rng.random(), rng.randrange(1, 10)))
            if filt.cutoff_key is not None:
                if previous is not None:
                    assert filt.cutoff_key <= previous
                previous = filt.cutoff_key

    def test_coverage_invariant_once_established(self):
        import random
        rng = random.Random(7)
        filt = CutoffFilter(k=30)
        for _ in range(300):
            filt.insert(Bucket(rng.random(), rng.randrange(1, 5)))
            if filt.is_established:
                assert filt.coverage >= filt.k

    def test_refinement_counter(self):
        filt = CutoffFilter(k=2)
        filt.insert(Bucket(0.9, 2))
        filt.insert(Bucket(0.5, 2))
        filt.insert(Bucket(0.3, 2))
        assert filt.stats.refinements >= 2


class TestElimination:
    def test_strictly_greater_only(self):
        filt = CutoffFilter(k=1)
        filt.insert(Bucket(0.5, 1))
        assert filt.eliminate(0.6)
        assert not filt.eliminate(0.5)
        assert not filt.eliminate(0.4)

    def test_elimination_counted(self):
        filt = CutoffFilter(k=1)
        filt.insert(Bucket(0.5, 1))
        filt.eliminate(0.9)
        filt.eliminate(0.1)
        assert filt.stats.rows_eliminated == 1

    def test_works_with_tuple_keys(self):
        filt = CutoffFilter(k=2)
        filt.insert(Bucket((1, "m"), 2))
        assert filt.eliminate((2, "a"))
        assert not filt.eliminate((0, "z"))


class TestConsolidation:
    def test_consolidation_collapses_to_single_bucket(self):
        filt = CutoffFilter(k=100, bucket_capacity=5)
        for index in range(6):
            filt.insert(Bucket(0.1 * (index + 1), 10))
        assert filt.bucket_count == 1
        assert filt.coverage == 60
        assert filt.stats.consolidations == 1

    def test_consolidated_boundary_is_previous_top(self):
        filt = CutoffFilter(k=1_000, bucket_capacity=3)
        for boundary in (0.2, 0.4, 0.9, 0.3):
            filt.insert(Bucket(boundary, 5))
        assert filt.bucket_count == 1
        # The surviving bucket carries the old top's boundary (0.9) and
        # the combined size of everything consolidated.
        top = filt.top_bucket
        assert top.boundary_key == 0.9
        assert top.size == 20
        assert filt.coverage == 20

    def test_consolidation_preserves_established_cutoff(self):
        filt = CutoffFilter(k=10, bucket_capacity=4)
        for boundary in (0.5, 0.6, 0.7, 0.8):
            filt.insert(Bucket(boundary, 5))
        cutoff_before = filt.cutoff_key
        filt.insert(Bucket(0.4, 5))  # triggers consolidation
        assert filt.cutoff_key is not None
        assert filt.cutoff_key <= cutoff_before if cutoff_before else True

    def test_filter_still_correct_after_consolidation(self):
        """Consolidation must never let the filter overstate coverage."""
        import random
        rng = random.Random(9)
        keys = [rng.random() for _ in range(5_000)]
        k = 200
        filt = CutoffFilter(k=k, bucket_capacity=8)
        # Feed buckets as if from sorted runs of 100.
        for start in range(0, len(keys), 100):
            run = sorted(keys[start:start + 100])
            for position in range(9, 100, 10):
                filt.insert(Bucket(run[position], 10))
        if filt.cutoff_key is not None:
            survivors = [key for key in keys if key <= filt.cutoff_key]
            assert len(survivors) >= k

    def test_describe(self):
        filt = CutoffFilter(k=5)
        filt.insert(Bucket(0.5, 5))
        text = filt.describe()
        assert "cutoff=0.5" in text
        assert "coverage=5/5" in text


class TestAgainstSortedListModel:
    """Every insert against a plain model: a list kept sorted by boundary
    (largest first) and, among equal boundaries, by insertion order."""

    @given(k=st.integers(1, 30),
           capacity=st.one_of(st.none(), st.integers(1, 6)),
           buckets=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 6)),
                            max_size=60),
           byte_keys=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_model_after_every_insert(self, k, capacity, buckets,
                                              byte_keys):
        filt = CutoffFilter(k=k, bucket_capacity=capacity)
        model: list[tuple] = []  # (boundary, insertion order, size)
        coverage = 0
        cutoff = None
        order = 0
        for boundary, size in buckets:
            key = bytes([boundary]) if byte_keys else boundary
            filt.insert(Bucket(key, size))
            order += 1
            model.append((key, order, size))
            coverage += size
            model.sort(key=lambda entry: entry[1])
            model.sort(key=lambda entry: entry[0], reverse=True)
            while model and coverage - model[0][2] >= k:
                coverage -= model.pop(0)[2]
            if coverage >= k and (cutoff is None or model[0][0] < cutoff):
                cutoff = model[0][0]
            if capacity is not None and len(model) > capacity:
                order += 1
                model = [(model[0][0], order, coverage)]
            assert filt.cutoff_key == cutoff
            assert filt.coverage == coverage
            assert filt.bucket_count == len(model)
            assert filt.top_bucket == (Bucket(model[0][0], model[0][2])
                                       if model else None)
