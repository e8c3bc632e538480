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

from sleepwatch.simulate import simulate_chain_trajectory

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


def run_traced(tmp_path: Path, program: str, *args: str) -> dict:
    """The trace of ``program`` (``cli`` or ``watch``) run under traced.py, which must exit 0."""
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(trace_path), program, *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace_path.read_text())


def traced(tmp_path: Path, *cli_args: str) -> dict:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(CONFIG))
    return run_traced(tmp_path, "cli", *cli_args, "--config", str(config))


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


def test_online_watch(tmp_path, harness):
    view = simulate_chain_trajectory(80, 10, 0.5, 42, 1000)
    assert view.size == 1001 and 0 < view[-1] < 80  # live: no window sees death
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text("tick,dead\n" + "".join(f"{t},{d}\n" for t, d in enumerate(view)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "network": {"n_deployed": 100, "initial_dead": 10},  # M = 80
        "detector": {"source": "analytic", "ticks_per_chain_step": 2.0},
    }))
    out = tmp_path / "out"
    trace = run_traced(tmp_path, "watch", "--config", str(config), "--trajectory", str(trajectory),
                       "--out", str(out), "--window", "200", "--stride", "1")
    counters = check_contract(harness, trace)
    assert len(json.loads((out / "watch.json").read_text())) == 801
    assert trace["functions"]["detect.online_estimate"]["calls"] == 1
    # one closed-form call for the analytic baseline, one projecting all 801 windows
    assert counters["network.closed_form_calls"] == 2
    # traced.py counts windows through estimate_step_rate calls, and online_estimate
    # makes none: counting them from the returned verdicts is ROADMAP item 7
    assert counters["detect.windows"] == 0
