"""Tests for workload builders."""

import pytest

from repro.datagen.distributions import LOGNORMAL
from repro.datagen.workloads import keys_only_workload, lineitem_workload
from repro.errors import ConfigurationError
from repro.rows.lineitem import LINEITEM_SCHEMA


class TestKeysOnlyWorkload:
    def test_basic_shape(self):
        workload = keys_only_workload(1_000, 50, 100)
        rows = list(workload.make_input())
        assert len(rows) == 1_000
        assert all(len(row) == 1 for row in rows)

    def test_repeatable_input(self):
        workload = keys_only_workload(500, 50, 100, seed=3)
        assert list(workload.make_input()) == list(workload.make_input())

    def test_distribution_injected(self):
        workload = keys_only_workload(500, 50, 100,
                                      distribution=LOGNORMAL)
        assert workload.distribution_label == "lognormal"
        assert all(row[0] > 0 for row in workload.make_input())

    def test_regime_flag(self):
        assert keys_only_workload(100, 200, 50).output_exceeds_memory
        assert not keys_only_workload(100, 20, 50).output_exceeds_memory

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            keys_only_workload(100, 0, 10)
        with pytest.raises(ConfigurationError):
            keys_only_workload(100, 10, 0)
        with pytest.raises(ConfigurationError):
            keys_only_workload(-1, 10, 10)

    def test_sort_spec_orders_by_key(self):
        workload = keys_only_workload(10, 5, 10)
        assert workload.sort_spec.key((0.7,)) == 0.7


class TestLineitemWorkload:
    def test_full_width_rows(self):
        workload = lineitem_workload(200, 50, 100, seed=1)
        rows = list(workload.make_input())
        assert len(rows) == 200
        assert len(rows[0]) == len(LINEITEM_SCHEMA)

    def test_keys_in_orderkey_column(self):
        workload = lineitem_workload(200, 50, 100, seed=1)
        keys = [row[0] for row in workload.make_input()]
        assert len(set(keys)) > 50  # distribution-driven, not constant

    def test_sorting_column(self):
        workload = lineitem_workload(10, 5, 10)
        assert workload.sort_spec.columns[0].name == "L_ORDERKEY"

    def test_repeatable(self):
        workload = lineitem_workload(50, 5, 10, seed=9)
        assert list(workload.make_input()) == list(workload.make_input())
