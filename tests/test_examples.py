"""Smoke tests for the example scripts.

All examples must at least import cleanly (they are documentation);
the fast ones are executed end to end.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
FAST_EXAMPLES = ("strategy_bakeoff.py", "adaptive_memory_pressure.py",
                 "service_dashboard.py", "trace_query.py")


def test_examples_exist():
    names = {path.name for path in ALL_EXAMPLES}
    assert {"quickstart.py", "weblog_analytics.py",
            "bi_dashboard_paging.py", "grouped_top_customers.py",
            "adaptive_memory_pressure.py",
            "strategy_bakeoff.py"} <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_imports_cleanly(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __main__ guard keeps this cheap
    assert callable(module.main)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name, tmp_path):
    # Files an example leaves for its reader (trace_query.py's Chrome
    # trace) go to a per-test temp directory.
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=240,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
