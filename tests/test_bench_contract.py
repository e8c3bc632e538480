"""The benchmark's read contract: what perfbench/traced.py wraps and reads.

``perfbench/traced.py`` replaces the library functions named in its
``TARGETS`` and reads fields of the values they return; ``perfbench/run.py``
then reads every counter and function total of the trace. Each test here
runs one tiny CLI invocation under traced.py in a subprocess and checks
that it exits 0 and that the trace holds everything run.py reads, so a
rename or deletion in the library cannot silently break ``--trace 1``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

CONFIG = {
    "network": {"n_deployed": 10, "initial_dead": 1},
    "energy": {"capacity": 100.0},
    "detector": {"source": "monte_carlo", "baseline_runs": 3},
    "run": {"max_ticks": 300, "seed": 42, "runs": 2, "death_mode": "energy"},
}


@pytest.fixture(scope="module")
def harness():
    """perfbench/run.py, imported without leaving its modules behind."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            del sys.modules[name]


def traced(tmp_path: Path, *cli_args: str) -> dict:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(CONFIG))
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(trace_path), "cli", *cli_args,
         "--config", str(config)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace_path.read_text())


def check_contract(harness, trace: dict) -> dict:
    counters = trace["counters"]
    assert set(harness.COUNT_UNITS) <= set(counters)
    assert all(isinstance(value, int) for value in counters.values())
    measures = harness.layer_measures(trace)  # reads every wrapped function's totals
    assert set(measures) | {"trace.overhead_s"} == set(harness.MEASURE_UNITS)
    return counters


def test_detect_with_monte_carlo_baseline(tmp_path, harness):
    trace = traced(tmp_path, "detect")
    counters = check_contract(harness, trace)
    # the baseline and the scenario are each one run_many in lockstep, which keeps no traces
    assert trace["functions"]["simulate.run_many"]["calls"] == 2
    assert counters["simulate.run_one_calls"] == 0
    assert counters["simulate.trace_records"] == 0
    assert counters["detect.detect_calls"] == 1


def test_simulate_with_trace_files(tmp_path, harness):
    counters = check_contract(harness, traced(tmp_path, "simulate", "--out", str(tmp_path / "out")))
    assert counters["simulate.run_one_calls"] == 2
    assert counters["simulate.ticks"] > 0
    assert counters["simulate.node_steps"] > 0
    assert counters["simulate.trace_records"] > 0
    assert counters["serialize.csv_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "out").glob("run_*.csv"))


def test_analyze(tmp_path, harness):
    out = tmp_path / "out"
    trace = traced(tmp_path, "analyze", "--out", str(out))
    counters = check_contract(harness, trace)
    # dead-count chain at M = 8 (transient states 1..7) plus the node lifetime
    # chain (Sleep, Active, Inactive)
    assert counters["chain.transient_states"] == 7 + 3
    assert counters["network.closed_form_calls"] == 3
    # the CLI streams its report with serialize.dump_canonical, which traced.py
    # does not wrap: it sees no dumps_canonical call and counts no JSON bytes
    assert trace["functions"]["serialize.dumps_canonical"]["calls"] == 0
    assert counters["serialize.json_bytes"] == 0
    assert (out / "analyze.json").stat().st_size > 0
