"""Smoke test of the benchmark; exits non-zero on the first broken promise.

    python3 perfbench/selftest.py

- Runs every workload at ``--tiny`` size with ``--trace 0`` and
  ``--trace 1``. Each run must be correct and must emit exactly the
  metrics BENCHMARK.json declares for that mode, each with its declared
  unit and a numeric value.
- Checks that ``schema.py`` accepts and rejects the same documents as
  the ``jsonschema`` package, where that package is installed.
- Checks that the benchmark fails, without printing a result, in a
  directory that holds only BENCHMARK.json and the benchmark.

It takes about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import schema
import workloads
from workloads import BENCH, ROOT, SCHEMAS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workloads() -> None:
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS), f"BENCHMARK.json workloads {declared}"
    for name in declared:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            assert done.returncode == 0, f"{name} --trace {trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
            assert result["correct"] and result["failed"] == 0, f"{name} --trace {trace}: {done.stderr}"
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} --trace {trace}: metrics {got} != declared {want}"
            for metric, value in result["metrics"].items():
                assert type(value["value"]) in (int, float), f"{name}: {metric} = {value!r}"
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} invocations")


def _variants(doc: dict) -> list:
    """The document plus one broken copy per kind of constraint."""
    broken = []
    for key in doc:
        missing = copy.deepcopy(doc)
        del missing[key]
        wrong = copy.deepcopy(doc)
        wrong[key] = {"not": "valid"}
        broken += [missing, wrong]
    extra = copy.deepcopy(doc)
    extra["unexpected"] = 1
    return [doc, extra, *broken]


def check_schema_validator() -> None:
    try:
        import jsonschema
    except ImportError:
        print("skip schema cross-check: jsonschema is not installed")
        return
    verdict = {"decision": "normal", "observed": None, "baseline": 10.5, "theta": 0.8,
               "source": "analytic", "detail": "d"}
    summary = {"n_deployed": 20, "m_threshold": 16, "m_rounding": "half-up", "runs": 2,
               "seed": 0, "max_ticks": 600, "death_mode": "energy", "attack_kind": "none",
               "death_ticks": [150, None], "censored_count": 1, "mean_death_tick": 150,
               "std_death_tick": None}
    vector = {"closed_form": [0.0, 0.5, 1.0], "oracle": [0.0, 0.5, 1.0], "max_abs_deviation": 0.0}
    analyze = {"n_deployed": 3, "m_threshold": 2, "m_rounding": "half-up", "initial_dead": 1,
               "states": [0, 1, 2], "death_probability": vector, "expected_death_time": vector,
               "expected_visits": {"closed_form": [[2.0]], "oracle": [[2.0]], "max_abs_deviation": 0.0},
               "node": {"expected_lifetime_ticks": None, "start_state": "sleep"}}
    extra_cases = {
        "verdict": [dict(verdict, decision="maybe"), dict(verdict, theta=1.5),
                    dict(verdict, baseline=0), dict(verdict, observed=True)],
        "run_summary": [dict(summary, death_ticks=[0]), dict(summary, runs=1.5),
                        dict(summary, m_rounding="half-even")],
        "analyze_report": [dict(analyze, states=[-1]),
                           dict(analyze, expected_visits=dict(analyze["expected_visits"], oracle=[["x"]]))],
    }
    checked = 0
    for name, doc in (("verdict", verdict), ("run_summary", summary), ("analyze_report", analyze)):
        spec = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
        reference = jsonschema.Draft202012Validator(spec)
        for case in _variants(doc) + extra_cases[name]:
            try:
                schema.validate(case, spec)
                ours = True
            except schema.SchemaError:
                ours = False
            assert ours == reference.is_valid(case), f"{name}: validators disagree on {case}"
            checked += 1
    print(f"ok  schema.py agrees with jsonschema on {checked} documents")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(Path(bare), "--workload", "detect-mc", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert done.returncode != 0, "run.py succeeded without sources"
    assert '"correct"' not in done.stdout, "run.py printed a result without sources"
    print(f"ok  fails with exit code {done.returncode} without the sleepwatch sources")


def main() -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_schema_validator()
    check_fails_without_sources()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
