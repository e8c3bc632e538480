"""sleepwatch benchmark: end-to-end timings and a traced per-layer breakdown.

    python3 perfbench/run.py --workload detect-mc --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20 --trace 0

Each invocation of the program is a fresh interpreter, started from this
one process, one at a time (a closed loop with a single client), so
every timing includes interpreter start and imports, as a CLI user pays
them. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
median wall time, median set-up time (interpreter start, import of
``sleepwatch.cli`` and input load, probed several times) and median
peak RSS, each per invocation. The two times are rescaled to a
reference host speed, measured by a fixed program that runs before
every invocation (see README.md, "Noise"). ``--trace 1`` alternates untraced
invocations with traced ones (see traced.py) and reports the per-layer
metrics. Every invocation is checked: exit code, schemas, tolerances,
and identical artifact digests across all invocations of the run (and
against digests.json for the default seed). The last stdout line is the
JSON result; the lines before it are for people.

``--tiny`` shrinks every workload for the self-test; ``--record-digests``
rewrites digests.json from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import BENCH, DEFAULT_SEED, ROOT, SRC, CheckFailed

WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 10     # timed set-up probes per run, after one warm-up probe
MIN_INVOCATIONS = 3   # untraced invocations per --trace 0 run, whatever --seconds says
MIN_TRACED = 2        # traced (and untraced) invocations per --trace 1 run
START_BY_S = 140      # start no invocation after this many seconds of the run ...
KILL_AT_S = 170       # ... and kill any still running at this point (runs must end within 180 s)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Reference program for host speed. It shares nothing with sleepwatch but
# the interpreter and numpy, and runs in a fresh process before every
# invocation and set-up probe, so it meets the same machine state. See
# README.md, "Noise".
REFERENCE_CODE = """
import json
import numpy as np
rows = [{"tick": t, "dead": t % 7, "battery": t * 0.5} for t in range(20000)]
text = json.dumps(rows, sort_keys=True)
acc = 0
for k in range(200000):
    acc += k * k % 7
arr = np.arange(1000.0)
for _ in range(2000):
    arr = np.cumsum(arr) % 13.0
"""
REFERENCE_NOMINAL_S = 0.35

# Per-layer metrics: exact work counts first; they must repeat exactly
# across the traced invocations of one run.
COUNT_UNITS = {
    "simulate.run_one_calls": "count",
    "simulate.ticks": "count",
    "simulate.node_steps": "count",
    "simulate.trace_records": "count",
    "detect.detect_calls": "count",
    "detect.windows": "count",
    "detect.windows_inconclusive": "count",
    "network.closed_form_calls": "count",
    "chain.transient_states": "count",
    "serialize.json_bytes": "B",
    "serialize.csv_bytes": "B",
    "rng.substreams": "count",
}
MEASURE_UNITS = {
    "simulate.run_one_s": "s",
    "simulate.run_many_s": "s",
    "simulate.us_per_tick": "us",
    "simulate.ns_per_node_step": "ns",
    "simulate.uncensored_ratio": "ratio",
    "detect.compute_baseline_s": "s",
    "detect.detect_s": "s",
    "detect.online_estimate_s": "s",
    "detect.estimate_step_rate_s": "s",
    "detect.us_per_window": "us",
    "network.death_probability_s": "s",
    "network.expected_death_time_s": "s",
    "network.expected_visits_closed_s": "s",
    "network.build_matrix_s": "s",
    "chain.validate_s": "s",
    "chain.analyze_s": "s",
    "lifecycle.expected_node_lifetime_s": "s",
    "serialize.dumps_canonical_s": "s",
    "serialize.write_trace_csv_s": "s",
    "attack.affected_set_s": "s",
    "attack.transform_policy_s": "s",
    "cli.import_s": "s",
    "config.load_config_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_measures(trace: dict) -> dict[str, float]:
    """Per-layer times and rates of one traced invocation (trace.overhead_s aside)."""
    fn, c = trace["functions"], trace["counters"]

    def total(key: str) -> float:
        return fn[key]["total_s"]

    return {
        "simulate.run_one_s": total("simulate.run_one"),
        "simulate.run_many_s": fn["simulate.run_many"]["self_s"],
        "simulate.us_per_tick": _ratio(total("simulate.run_one"), c["simulate.ticks"], 1e6),
        "simulate.ns_per_node_step": _ratio(total("simulate.run_one"), c["simulate.node_steps"], 1e9),
        "simulate.uncensored_ratio": _ratio(c["simulate.uncensored_runs"], c["simulate.run_one_calls"]),
        "detect.compute_baseline_s": fn["detect.compute_baseline"]["self_s"],
        "detect.detect_s": total("detect.detect"),
        "detect.online_estimate_s": total("detect.online_estimate"),
        "detect.estimate_step_rate_s": total("detect.estimate_step_rate"),
        "detect.us_per_window": _ratio(total("detect.online_estimate"), c["detect.windows"], 1e6),
        "network.death_probability_s": total("network.death_probability"),
        "network.expected_death_time_s": total("network.expected_death_time"),
        "network.expected_visits_closed_s": total("network.expected_visits_closed"),
        "network.build_matrix_s": total("network.build_matrix"),
        "chain.validate_s": total("chain.validate"),
        "chain.analyze_s": total("chain.analyze"),
        "lifecycle.expected_node_lifetime_s": total("lifecycle.expected_node_lifetime"),
        "serialize.dumps_canonical_s": total("serialize.dumps_canonical"),
        "serialize.write_trace_csv_s": total("serialize.write_trace_csv"),
        "attack.affected_set_s": total("attack.affected_set"),
        "attack.transform_policy_s": total("attack.transform_policy"),
        "cli.import_s": trace["import_s"],
        "config.load_config_s": total("config.load_config"),
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _spawn(argv: list[str], stdout_path: Path, kill_at: float) -> tuple[float, float, int]:
    """Run one child to completion: wall seconds, its own peak RSS in MiB, exit code.

    The child runs under launch.py, which times and reaps it; see there
    why peak RSS is not read from this process's own wait4. Launcher and
    child share a new session, so a run past ``kill_at`` kills both and
    reads as exit code -9.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(stdout_path), *argv],
                                stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    t0 = time.perf_counter()
    try:
        report, _ = launcher.communicate(timeout=max(kill_at - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill_session(launcher)
        return time.perf_counter() - t0, 0.0, -signal.SIGKILL
    except BaseException:
        _kill_session(launcher)
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launcher exited with {launcher.returncode} for {argv}")
    done = json.loads(report)
    return done["wall_s"], done["peak_rss_kib"] / 1024.0, done["exit_code"]


def _kill_session(launcher: subprocess.Popen) -> None:
    """Kill the launcher and its program, and wait until both have ended."""
    try:
        os.killpg(launcher.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    launcher.wait()
    for _ in range(100):
        try:
            os.killpg(launcher.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class WorkloadRun:
    """Invocations of one workload for one seed, and their checks."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path,
                 expected_digests: dict | None, started: float) -> None:
        self.workload = workload
        self.work = work
        self.case = workload.prepare(work, seed)
        self.expected_digests = expected_digests
        self.reference: dict | None = None   # digests of the first checked invocation
        self.start_by = started + START_BY_S
        self.kill_at = started + KILL_AT_S
        self.attempted = 0    # every process started: probes and invocations
        self.invocations = 0
        self.failures: list[str] = []

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        print(f"FAILED {self.workload.name} {what}: {reason}", file=sys.stderr)

    def time_reference(self) -> float:
        """Wall time of one run of REFERENCE_CODE in a fresh interpreter."""
        wall, _, code = _spawn([sys.executable, "-c", REFERENCE_CODE], self.work / "reference.out",
                               self.kill_at)
        if code != 0:
            self.fail("reference program", f"exit code {code}")
        return wall

    def probe(self) -> float:
        """Time one set-up probe: interpreter start, CLI import, input load."""
        self.attempted += 1
        wall, _, code = _spawn([sys.executable, *self.case.probe], self.work / "probe.out", self.kill_at)
        if code != 0:
            self.fail("set-up probe", f"exit code {code}")
        return wall

    def invoke(self, trace_path: Path | None = None) -> tuple[float, float] | None:
        """Run the program once; (wall_s, peak_rss_mib), or None if it failed."""
        self.attempted += 1
        self.invocations += 1
        what = f"invocation {self.invocations}" + (" (traced)" if trace_path else "")
        out = self.work / "out"
        stdout_path = self.work / "stdout"
        shutil.rmtree(out, ignore_errors=True)
        args = [*self.case.args, "--out", str(out)]
        if self.case.program == "cli":
            program = ["-m", "sleepwatch.cli", *args]
        else:
            program = [str(BENCH / "watch.py"), *args]
        if trace_path is not None:
            program = [str(BENCH / "traced.py"), str(trace_path), self.case.program, *args]
        wall, rss, code = _spawn([sys.executable, *program], stdout_path, self.kill_at)
        if code != self.workload.expected_exit:
            self.fail(what, f"exit code {code}, expected {self.workload.expected_exit}")
            return None
        if not out.is_dir():
            self.fail(what, "no output directory was written")
            return None
        digests = {"<stdout>": _sha256(stdout_path)}
        digests.update((p.name, _sha256(p)) for p in sorted(out.iterdir()))
        if self.expected_digests is not None and digests != self.expected_digests:
            self.fail(what, f"artifact digests {digests} differ from digests.json")
            return None
        if self.reference is None:
            # Identical bytes pass identical checks, so the full check runs once.
            try:
                self.workload.check(out, stdout_path.read_bytes())
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                self.fail(what, f"{type(exc).__name__}: {exc}")
                return None
            self.reference = digests
        elif digests != self.reference:
            self.fail(what, "artifacts differ from the first invocation of this run")
            return None
        return wall, rss

    def may_start(self) -> bool:
        return time.monotonic() < self.start_by


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _line(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"  {name}: no successful samples"
    return (f"  {name} = {_median(values):.6g} {unit}  (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def measure_end_to_end(run: WorkloadRun, seconds: float) -> tuple[dict, list[str]]:
    run.probe()  # warm-up: compiles bytecode caches and fills the page cache
    # Set-up probes alternate with invocations, so both sample the same
    # stretch of machine time; any probes still missing run at the end.
    setup, walls, rss, reference = [], [], [], []
    invocations = 0
    t0 = time.monotonic()
    while (time.monotonic() - t0 < seconds or invocations < MIN_INVOCATIONS) and run.may_start():
        if len(setup) < SETUP_PROBES:
            reference.append(run.time_reference())
            setup.append(run.probe())
        invocations += 1
        reference.append(run.time_reference())
        sample = run.invoke()
        if sample is not None:
            walls.append(sample[0])
            rss.append(sample[1])
    while len(setup) < SETUP_PROBES and run.may_start():
        reference.append(run.time_reference())
        setup.append(run.probe())
    values = {"wall_s": walls, "setup_s": setup, "peak_rss_mib": rss}
    lines = [_line(f"raw {name}", values[name], unit) for name, unit in END_TO_END_UNITS.items()]
    metrics = {name: {"value": _median(values[name]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    # Times are reported at the host speed where the reference takes
    # REFERENCE_NOMINAL_S; a change to sleepwatch moves them as it moves raw time.
    scale = REFERENCE_NOMINAL_S / _median(reference)
    for name in ("wall_s", "setup_s"):
        metrics[name]["value"] *= scale
    lines.append(_line("reference program", reference, "s") + f"; scale {scale:.4f}")
    lines += [f"  {name} = {metrics[name]['value']:.6g} s at reference host speed"
              for name in ("wall_s", "setup_s")]
    lines.append(f"  failed_frac = {len(run.failures)}/{run.attempted} = "
                 f"{len(run.failures) / run.attempted:.6g}")
    return metrics, lines


def measure_layers(run: WorkloadRun, seconds: float, keep_trace: Path) -> tuple[dict, list[str]]:
    untraced, traced, traces = [], [], []
    t0 = time.monotonic()
    while (time.monotonic() - t0 < seconds or min(len(untraced), len(traced)) < MIN_TRACED) \
            and run.may_start():
        sample = run.invoke()
        if sample is not None:
            untraced.append(sample[0])
        trace_path = run.work / f"trace{len(traces)}.json"
        sample = run.invoke(trace_path)
        if sample is not None:
            traced.append(sample[0])
            traces.append(json.loads(trace_path.read_text()))
    lines = [_line("untraced wall_s", untraced, "s"), _line("traced wall_s", traced, "s")]
    counts = traces[0]["counters"] if traces else {}
    for k, trace in enumerate(traces[1:], start=2):
        differing = sorted(name for name in counts if trace["counters"][name] != counts[name])
        if differing:
            run.fail(f"traced invocation {k}", f"work counters changed between invocations: {differing}")
    if traces:
        shutil.copyfile(run.work / f"trace{len(traces) - 1}.json", keep_trace)
        lines.append(f"  spans of the last traced invocation kept in {keep_trace.relative_to(ROOT)}")
    per_trace = [layer_measures(t) for t in traces]
    metrics = {name: {"value": counts.get(name, 0), "unit": unit} for name, unit in COUNT_UNITS.items()}
    for name, unit in MEASURE_UNITS.items():
        if name == "trace.overhead_s":
            value = _median(traced) - _median(untraced)
        else:
            value = _median([m[name] for m in per_trace])
        metrics[name] = {"value": value, "unit": unit}
    width = max(map(len, metrics))
    lines += [f"  {name:<{width}} {m['value']:{'d' if name in COUNT_UNITS else '.6g'}} {m['unit']}"
              for name, m in metrics.items()]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 record: bool) -> tuple[dict, list[str], dict | None]:
    started = time.monotonic()
    workload = workloads.WORKLOADS[name](tiny=tiny)
    expected = None
    if seed == DEFAULT_SEED and not tiny and not record:
        expected = json.loads(DIGESTS.read_text())["workloads"][name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = WorkloadRun(workload, seed, work, expected, started)
        if trace:
            metrics, lines = measure_layers(run, seconds, WORK / f"trace-{name}.json")
        else:
            metrics, lines = measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, [f"{name} (seed {seed}, {'traced' if trace else 'untraced'}):", *lines], run.reference


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_start: float) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite digests.json from seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not (SRC / "sleepwatch" / "cli.py").is_file():
        print(f"error: no sleepwatch sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.record_digests and (args.seed != DEFAULT_SEED or args.tiny):
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED} and full-size inputs")

    load_start = os.getloadavg()[0]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    recorded = {}
    for name in names:
        result, lines, digests = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                              args.tiny, args.record_digests)
        print("\n".join(lines), flush=True)
        results[name] = result
        recorded[name] = digests
    if args.record_digests:
        if not all(r["correct"] for r in results.values()):
            print("error: not recording digests of a failed run", file=sys.stderr)
            return 1
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
        doc["workloads"].update(recorded)
        DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"recorded digests of {', '.join(names)} in {DIGESTS.relative_to(ROOT)}")

    print(json.dumps({"environment": environment(load_start)}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
