"""Tests for I/O and operator statistics."""

from repro.storage.stats import IOStats, OperatorStats


class TestIOStats:
    def test_defaults_zero(self):
        stats = IOStats()
        assert stats.rows_spilled == 0
        assert stats.runs_written == 0

    def test_snapshot_is_independent(self):
        stats = IOStats(rows_spilled=5)
        snap = stats.snapshot()
        stats.rows_spilled = 10
        assert snap.rows_spilled == 5

    def test_subtraction_scopes_a_region(self):
        stats = IOStats(rows_spilled=10, bytes_written=100)
        before = stats.snapshot()
        stats.rows_spilled += 7
        stats.bytes_written += 50
        delta = stats - before
        assert delta.rows_spilled == 7
        assert delta.bytes_written == 50

    def test_addition(self):
        total = IOStats(rows_read=1) + IOStats(rows_read=2, runs_written=3)
        assert total.rows_read == 3
        assert total.runs_written == 3

    def test_merge_in_place(self):
        stats = IOStats(write_requests=1)
        stats.merge(IOStats(write_requests=4, read_requests=2))
        assert stats.write_requests == 5
        assert stats.read_requests == 2

    def test_describe_mentions_key_counters(self):
        text = IOStats(rows_spilled=9, runs_written=2).describe()
        assert "9" in text
        assert "2" in text


class TestOperatorStats:
    def test_rows_eliminated_sums_both_sites(self):
        stats = OperatorStats(rows_eliminated_on_arrival=7,
                              rows_eliminated_at_spill=3)
        assert stats.rows_eliminated == 10

    def test_elimination_fraction(self):
        stats = OperatorStats(rows_consumed=100,
                              rows_eliminated_on_arrival=25)
        assert stats.elimination_fraction == 0.25

    def test_elimination_fraction_no_input(self):
        assert OperatorStats().elimination_fraction == 0.0

    def test_io_is_owned_instance(self):
        first, second = OperatorStats(), OperatorStats()
        first.io.rows_spilled = 5
        assert second.io.rows_spilled == 0

    def test_operator_stats_merge_includes_io(self):
        total = OperatorStats()
        local = OperatorStats(rows_consumed=10, rows_output=5)
        local.io.rows_spilled = 7
        total.merge(local)
        total.merge(local)
        assert total.rows_consumed == 20
        assert total.io.rows_spilled == 14
