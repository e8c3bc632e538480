"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload writes its inputs (a scenario config, plus a trajectory for
``online-watch``) into a work directory, names the program invocation
that consumes them, and checks the artifacts one invocation produced.
Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import schema

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "sleepwatch" / "schemas"

#: Seed whose artifact digests are recorded in digests.json.
DEFAULT_SEED = 42

# Acceptance tolerances of tests/test_acceptance.py, criteria 1-3:
# death probability absolute, death time and visit counts relative.
PSI_ABS_TOL = 1e-9
REL_TOL = 1e-9

# The README example scenario, which detect-mc and simulate-wide start from.
README_CONFIG = {
    "network": {"n_deployed": 20, "initial_dead": 1},
    "energy": {"capacity": 300.0},
    "attack": {"kind": "rts_cts_flood", "coverage": 1.0, "sleep_block": 0.9, "extra_drain": 2.0},
    "detector": {"source": "monte_carlo", "baseline_runs": 100},
    "run": {"max_ticks": 600, "seed": 42, "runs": 1, "death_mode": "energy"},
}

CLI_PROBE = "import sys, sleepwatch.cli as cli; cli.load_config(sys.argv[1])"
WATCH_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import watch; "
               "watch.load_inputs(sys.argv[2], sys.argv[3])")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text())


def _load_json(path: Path):
    _require(path.is_file(), f"{path.name} was not written")
    return json.loads(path.read_text())


def _validated(path: Path, schema_name: str):
    doc = _load_json(path)
    try:
        schema.validate(doc, _schema(schema_name))
    except schema.SchemaError as exc:
        raise CheckFailed(f"{path.name} breaks {schema_name}: {exc}") from None
    return doc


def _write_config(work: Path, doc: dict) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class Case:
    """One workload's inputs for one seed, ready to run."""

    program: str          # "cli" or "watch"
    args: list[str]       # program arguments, up to but excluding --out
    probe: list[str]      # python arguments of the set-up probe


class Workload:
    name = ""
    expected_exit = 0

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def prepare(self, work: Path, seed: int) -> Case:
        raise NotImplementedError

    def check(self, out: Path, stdout: bytes) -> None:
        """Raise CheckFailed unless the artifacts in ``out`` are correct."""
        raise NotImplementedError

    def _cli_case(self, command: str, config: Path) -> Case:
        return Case("cli", [command, "--config", str(config)],
                    ["-c", CLI_PROBE, str(config)])


def _stdout_matches(stdout: bytes, path: Path) -> None:
    _require(stdout == path.read_bytes(), f"stdout differs from {path.name}")


class DetectMC(Workload):
    name = "detect-mc"
    expected_exit = 2  # UnderAttack: full-coverage flooding kills the network early

    @property
    def baseline_runs(self) -> int:
        return 5 if self.tiny else 300

    def prepare(self, work: Path, seed: int) -> Case:
        doc = json.loads(json.dumps(README_CONFIG))
        doc["detector"]["baseline_runs"] = self.baseline_runs
        doc["run"]["seed"] = seed
        return self._cli_case("detect", _write_config(work, doc))

    def check(self, out: Path, stdout: bytes) -> None:
        verdict = _validated(out / "verdict.json", "verdict.schema.json")
        _require(verdict["decision"] == "under_attack", f"decision {verdict['decision']!r}")
        _require(verdict["source"] == "monte_carlo", f"baseline source {verdict['source']!r}")
        _stdout_matches(stdout, out / "verdict.json")


class SimulateWide(Workload):
    name = "simulate-wide"

    @property
    def size(self) -> tuple[int, int]:
        return (200, 2) if self.tiny else (20_000, 8)

    def prepare(self, work: Path, seed: int) -> Case:
        n, runs = self.size
        doc = json.loads(json.dumps(README_CONFIG))
        del doc["detector"]
        doc["network"]["n_deployed"] = n
        doc["attack"]["coverage"] = 0.5
        doc["run"].update(seed=seed, runs=runs)
        return self._cli_case("simulate", _write_config(work, doc))

    def check(self, out: Path, stdout: bytes) -> None:
        n, runs = self.size
        summary = _validated(out / "summary.json", "run_summary.schema.json")
        _require(summary["n_deployed"] == n and summary["runs"] == runs, "wrong n_deployed or runs")
        ticks = summary["death_ticks"]
        _require(len(ticks) == runs, f"{len(ticks)} death ticks for {runs} runs")
        _require(summary["censored_count"] == ticks.count(None), "censored_count disagrees")
        expected = {f"run_{k:03d}.csv" for k in range(runs)} | {"summary.json"}
        found = {p.name for p in out.iterdir()}
        _require(found == expected, f"artifacts {sorted(found)}")
        for k, death in enumerate(ticks):
            with open(out / f"run_{k:03d}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            _require(rows[0] == ["tick", "dead", "sleep", "active", "inactive", "battery"],
                     f"run_{k:03d}.csv header {rows[0]}")
            last = death if death is not None else summary["max_ticks"]
            _require(len(rows) == last + 2, f"run_{k:03d}.csv has {len(rows) - 1} ticks, want {last + 1}")
            for tick, row in enumerate(rows[1:]):
                counts = [int(x) for x in row[:5]]
                _require(counts[0] == tick and sum(counts[1:]) == n,
                         f"run_{k:03d}.csv row {tick} does not conserve {n} nodes")
                _require(math.isfinite(float(row[5])), f"run_{k:03d}.csv row {tick} battery")
            dead_last = int(rows[-1][1])
            _require((dead_last >= summary["m_threshold"]) == (death is not None),
                     f"run_{k:03d}.csv ends at {dead_last} dead, death tick {death}")
        _stdout_matches(stdout, out / "summary.json")


class AnalyzeM800(Workload):
    name = "analyze-m800"

    @property
    def n(self) -> int:
        return 40 if self.tiny else 1000

    def prepare(self, work: Path, seed: int) -> Case:
        m = (8 * self.n + 5) // 10
        # The report covers every state; the seed only moves the start state.
        doc = {"network": {"n_deployed": self.n, "initial_dead": 1 + seed % (m - 1)}}
        return self._cli_case("analyze", _write_config(work, doc))

    def check(self, out: Path, stdout: bytes) -> None:
        report = _validated(out / "analyze.json", "analyze_report.schema.json")
        m = report["m_threshold"]
        _require(report["n_deployed"] == self.n and m == (8 * self.n + 5) // 10,
                 f"n_deployed {report['n_deployed']}, m_threshold {m}")
        _require(report["states"] == list(range(m + 1)), "states are not 0..M")
        for key, flat in (("death_probability", False), ("expected_death_time", False),
                          ("expected_visits", True)):
            part = report[key]
            closed, oracle = part["closed_form"], part["oracle"]
            if flat:
                _require(len(closed) == m - 1 and all(len(r) == m - 1 for r in closed),
                         f"{key} closed form is not (M-1)x(M-1)")
                _require(len(oracle) == m - 1 and all(len(r) == m - 1 for r in oracle),
                         f"{key} oracle is not (M-1)x(M-1)")
                closed = [x for row in closed for x in row]
                oracle = [x for row in oracle for x in row]
            else:
                _require(len(closed) == m + 1 and len(oracle) == m + 1, f"{key} length != M+1")
            dev = max(abs(a - b) for a, b in zip(closed, oracle))
            _require(dev == part["max_abs_deviation"],
                     f"{key}: max_abs_deviation {part['max_abs_deviation']!r}, recomputed {dev!r}")
            if key == "death_probability":
                _require(dev <= PSI_ABS_TOL, f"{key}: deviation {dev!r} > {PSI_ABS_TOL}")
            else:
                rel = max(abs(a - b) / abs(b) for a, b in zip(closed, oracle) if b != 0.0)
                _require(rel <= REL_TOL, f"{key}: relative deviation {rel!r} > {REL_TOL}")
        _stdout_matches(stdout, out / "analyze.json")


class OnlineWatch(Workload):
    name = "online-watch"

    M, START, STEP_PROB, WINDOW, STRIDE = 80, 10, 0.5, 200, 10
    N_DEPLOYED = 100  # round(4 * 100 / 5) = M

    @property
    def ticks(self) -> int:
        return 1_000 if self.tiny else 20_000

    def prepare(self, work: Path, seed: int) -> Case:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from sleepwatch.simulate import simulate_chain_trajectory

        # Take the first run of this seed that is still live after ``ticks``
        # ticks and keep its first ``ticks`` ticks: every seed then hands the
        # estimator the same number of windows, and no window sees death.
        for run_index in range(10_000):
            view = simulate_chain_trajectory(self.M, self.START, self.STEP_PROB, seed,
                                             self.ticks, run_index=run_index)
            if view.size == self.ticks + 1 and 0 < view[-1] < self.M:
                break
        else:
            raise CheckFailed(f"no live trajectory of {self.ticks} ticks for seed {seed}")
        trajectory = work / "trajectory.csv"
        trajectory.write_text("tick,dead\n" + "".join(f"{t},{d}\n" for t, d in enumerate(view)))
        config = _write_config(work, {
            "network": {"n_deployed": self.N_DEPLOYED, "initial_dead": self.START},
            "detector": {"source": "analytic", "ticks_per_chain_step": 1.0 / self.STEP_PROB},
        })
        args = ["--config", str(config), "--trajectory", str(trajectory),
                "--window", str(self.WINDOW), "--stride", str(self.STRIDE)]
        probe = ["-c", WATCH_PROBE, str(BENCH), str(config), str(trajectory)]
        return Case("watch", args, probe)

    def check(self, out: Path, stdout: bytes) -> None:
        verdicts = _load_json(out / "watch.json")
        _require(isinstance(verdicts, list), "watch.json is not a list")
        windows = len(range(self.WINDOW, self.ticks + 1, self.STRIDE))
        _require(len(verdicts) == windows, f"{len(verdicts)} verdicts for {windows} windows")
        verdict_schema = _schema("verdict.schema.json")
        for k, verdict in enumerate(verdicts):
            try:
                schema.validate(verdict, verdict_schema)
            except schema.SchemaError as exc:
                raise CheckFailed(f"verdict {k} breaks verdict.schema.json: {exc}") from None
            _require(verdict["observed"] is None, f"verdict {k} observed a death")
        _stdout_matches(stdout, out / "watch.json")


WORKLOADS = {w.name: w for w in (DetectMC, SimulateWide, AnalyzeM800, OnlineWatch)}
