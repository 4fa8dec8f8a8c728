"""Smoke test of the performance benchmark: every workload at a tiny size.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as perf  # noqa: E402
from layers import targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(group: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[group]}


def test_benchmark_json_lists_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    originals = [(namespace, attribute, vars(namespace)[attribute])
                 for namespace, attribute, _layer, _kind in targets()]

    record = perf.measure(name, seed=3, seconds=0.2, size="smoke",
                          trace=True, out=tmp_path)

    # Outputs match the oracle on every query, and the mechanism the
    # workload exists for engaged.
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] > perf.TRACED
    assert record["engaged"]

    # Every metric BENCHMARK.json names is emitted, with its unit.
    for group, line_trace in (("end_to_end", False), ("per_layer", True)):
        units = _units(group)
        metrics = perf.contract_line(record, line_trace)["metrics"]
        assert {m: e["unit"] for m, e in metrics.items()} == units

    # Main-thread self times tile the root span; none is negative.
    assert len(record["traced_queries"]) == perf.TRACED
    for query in record["traced_queries"]:
        assert query["min_self_s"] >= 0
        assert query["main_self_sum_s"] == pytest.approx(query["root_s"],
                                                         rel=0.01)
    trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
    assert trace["traceEvents"]

    # The traced pass put every wrapped name back.
    for namespace, attribute, original in originals:
        assert vars(namespace)[attribute] is original, attribute


def test_command_line_contract():
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "topk_uniform_numeric", "--seed", "5", "--seconds", "0.2",
         "--trace", "0", "--size", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert child.returncode == 0, child.stderr
    line = json.loads(child.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(_units("end_to_end"))


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "groupby_zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert child.returncode != 0
    assert not child.stdout.strip()


def _report(query_ms: list[float], rows_spilled: int) -> dict:
    return {"workloads": {"w": {
        "samples": {"query_ms": query_ms, "query_cpu_ms": query_ms,
                    "setup_s": [1.0, 1.0, 1.0]},
        "end_to_end": {"peak_alloc_mb": {"value": 2.0, "unit": "MiB"}},
        "per_layer": {"rows_spilled": {"value": rows_spilled,
                                       "unit": "rows"},
                      "bytes_spilled": {"value": 8 * rows_spilled,
                                        "unit": "bytes"}},
    }}}


@pytest.mark.parametrize("query_ms, rows_spilled, status, verdict", [
    ([100.0, 101.0, 99.0, 100.0], 10, 0, "ok"),
    ([150.0, 151.0, 149.0, 150.0], 10, 1, "REGRESSION"),
    ([100.0, 101.0, 99.0, 100.0], 11, 1, "REGRESSION"),
    ([60.0, 140.0, 100.0, 100.0], 10, 0, "unresolved"),
])
def test_compare(tmp_path, capsys, query_ms, rows_spilled, status, verdict):
    base = tmp_path / "a.json"
    base.write_text(json.dumps(_report([100.0, 101.0, 99.0, 100.0], 10)))
    other = tmp_path / "b.json"
    other.write_text(json.dumps(_report(query_ms, rows_spilled)))
    assert perf.compare(base, other) == status
    assert verdict in capsys.readouterr().out
