"""Command-line entry point.

Subcommands: analyze, simulate, detect, sweep. All take --config (scenario
JSON, see :mod:`sleepwatch.config`) and --out for artifact files, which
only simulate requires; --seed, --runs and --theta override the file
values. Bad arguments are refused, and the --out directory is created,
before anything is simulated.

Exit codes are a stable contract:

    0  success / verdict Normal
    1  configuration, validation, I/O or out-of-memory error
    2  verdict UnderAttack
    3  verdict Inconclusive
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import chain
from .attack import AttackModel, no_attack
from .config import BASELINE_SEED_OFFSET, ParsedConfig, load_config
from .detect import Baseline, BaselineSource, Decision, Verdict, compute_baseline, detect
from .errors import NoAbsorptionPath, SleepwatchError
from .lifecycle import NodeState, expected_node_lifetime
from .network import (
    THRESHOLD_ROUNDING,
    NetworkChainParams,
    build_matrix,
    death_probability,
    expected_death_time,
    expected_visits_closed,
)
from .serialize import dump_canonical, format_float, write_trace_csv
from .simulate import RunSummary, ScenarioConfig, run_many

_EXIT_FOR_DECISION = {
    Decision.NORMAL: 0,
    Decision.UNDER_ATTACK: 2,
    Decision.INCONCLUSIVE: 3,
}

SWEEP_PARAMS = ("m", "theta", "coverage", "sleep_block")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide
    # with the UnderAttack exit code; funnel everything through status 1.
    def error(self, message: str):
        raise SleepwatchError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sleepwatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "closed-form death math with oracle cross-checks"),
        ("simulate", "run the node simulator and write trace CSVs"),
        ("detect", "run the scenario and judge it against the baseline"),
        ("sweep", "re-evaluate baseline and verdicts over a parameter grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", required=name == "simulate", help="directory for output artifacts")
        cmd.add_argument("--seed", type=int, help="override run.seed")
        cmd.add_argument("--runs", type=int, help="override run.runs")
        cmd.add_argument("--theta", type=float, help="override detector.theta")
        if name == "sweep":
            cmd.add_argument("--param", required=True,
                             help=f"parameter to sweep, one of {', '.join(SWEEP_PARAMS)}")
            cmd.add_argument("--values", required=True,
                             help="comma-separated values")
    return parser


def _load(args: argparse.Namespace) -> ParsedConfig:
    parsed = load_config(args.config)
    scenario = parsed.scenario
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.runs is not None:
        scenario = replace(scenario, runs=args.runs)
    detector = parsed.detector
    if args.theta is not None:
        detector = replace(detector, theta=args.theta)
    return ParsedConfig(scenario=scenario, detector=detector)


def _publish(doc: dict, out: Path | None, name: str) -> None:
    """Write ``doc`` as canonical JSON to stdout and, with --out, to ``out / name``."""
    if out is None:
        dump_canonical(doc, [sys.stdout])
        return
    with (out / name).open("w") as f:
        dump_canonical(doc, [sys.stdout, f])


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _analyze_report(parsed: ParsedConfig) -> dict:
    params = parsed.params
    m = params.m_threshold
    analysis = chain.analyze(build_matrix(m))
    toward_m = analysis.absorbing_order.index(m)

    states = np.arange(m + 1)
    transient = states[1:m]
    closed_and_oracle = {
        "death_probability": (death_probability(states, m),
                              np.concatenate(([0.0], analysis.absorb_prob[:, toward_m], [1.0]))),
        "expected_death_time": (expected_death_time(states, m),
                                np.concatenate(([0.0], analysis.expected_steps, [0.0]))),
        "expected_visits": (expected_visits_closed(transient[:, None], transient, m),
                            analysis.fundamental),
    }

    try:
        lifetime = expected_node_lifetime(parsed.scenario.policy, NodeState.SLEEP)
    except NoAbsorptionPath:
        lifetime = None

    report = {
        "n_deployed": params.n_deployed,
        "m_threshold": m,
        "m_rounding": THRESHOLD_ROUNDING,
        "initial_dead": params.initial_dead,
        "states": states.tolist(),
        "node": {
            "expected_lifetime_ticks": lifetime,
            "start_state": "sleep",
        },
    }
    for key, (closed, oracle) in closed_and_oracle.items():
        deviation = closed - oracle
        np.abs(deviation, out=deviation)  # one full-size temporary, not two
        report[key] = {
            "closed_form": closed,
            "oracle": oracle,
            "max_abs_deviation": float(deviation.max()),
        }
    return report


def _summary_dict(summary: RunSummary, scenario: ScenarioConfig) -> dict:
    return {
        "n_deployed": scenario.network.n_deployed,
        "m_threshold": scenario.network.m_threshold,
        "m_rounding": THRESHOLD_ROUNDING,
        "runs": summary.runs,
        "seed": scenario.seed,
        "max_ticks": summary.max_ticks,
        "death_mode": scenario.death_mode.value,
        "attack_kind": scenario.attack.kind.value,
        "death_ticks": list(summary.death_ticks),
        "censored_count": summary.censored_count,
        "mean_death_tick": summary.mean_death_tick,
        "std_death_tick": summary.std_death_tick,
    }


def _verdict_dict(verdict: Verdict, baseline: Baseline) -> dict:
    return {
        "decision": verdict.decision.value,
        "observed": verdict.observed_death_ticks,
        "baseline": verdict.baseline_ticks,
        "theta": verdict.threshold_factor,
        "source": baseline.source.value,
        "detail": verdict.detail,
    }


def _build_baseline(parsed: ParsedConfig) -> Baseline:
    det = parsed.detector
    if det.source is BaselineSource.ANALYTIC:
        return compute_baseline(parsed.params, ticks_per_chain_step=det.ticks_per_chain_step)
    seed = det.baseline_seed
    if seed is None:
        seed = parsed.scenario.seed + BASELINE_SEED_OFFSET
    calibration = replace(parsed.scenario, attack=no_attack(), runs=det.baseline_runs, seed=seed)
    return compute_baseline(parsed.params, scenario=calibration)


def _cmd_analyze(args: argparse.Namespace) -> int:
    parsed = _load(args)
    out = _out_dir(args)
    _publish(_analyze_report(parsed), out, "analyze.json")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    parsed = _load(args)
    out = _out_dir(args)
    summary = run_many(parsed.scenario, keep_traces=True)
    for trace in summary.traces:
        write_trace_csv(out / f"run_{trace.run_index:03d}.csv", trace)
    _publish(_summary_dict(summary, parsed.scenario), out, "summary.json")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    parsed = _load(args)
    out = _out_dir(args)
    baseline = _build_baseline(parsed)
    summary = run_many(parsed.scenario)
    verdict = detect(summary, baseline, parsed.detector.theta)
    _publish(_verdict_dict(verdict, baseline), out, "verdict.json")
    return _EXIT_FOR_DECISION[verdict.decision]


def _sweep_point(parsed: ParsedConfig, param: str, value: float) -> ParsedConfig:
    """Config for one sweep point; its baseline comes from :func:`_build_baseline`."""
    scenario = parsed.scenario
    if param == "m":
        m = int(value)
        network = replace(scenario.network, m_threshold=m,
                          initial_dead=min(scenario.network.initial_dead, m - 1))
        return replace(parsed, scenario=replace(scenario, network=network))
    if param == "theta":
        return replace(parsed, detector=replace(parsed.detector, theta=value))
    attack = replace(scenario.attack, **{param: value})
    return replace(parsed, scenario=replace(scenario, attack=attack))


def _cmd_sweep(args: argparse.Namespace) -> int:
    parsed = _load(args)
    if args.param not in SWEEP_PARAMS:
        raise SleepwatchError(
            f"unknown sweep parameter {args.param!r}; expected one of {', '.join(SWEEP_PARAMS)}"
        )
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise SleepwatchError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise SleepwatchError("--values is empty")
    if args.param == "m" and not all(v.is_integer() for v in values):
        raise SleepwatchError(f"--param m needs integer values, got {args.values}")

    # every point is built, and so checked, before the first baseline or run
    points = [_sweep_point(parsed, args.param, value) for value in values]
    out = _out_dir(args)
    rows = ["value,baseline,mean_death_tick,normal,under_attack,inconclusive"]
    # calibration strips the attack, so a point's baseline depends only on its chain params
    baselines: dict[NetworkChainParams, Baseline] = {}
    # a point changes only the network, the attack or theta, so each distinct scenario runs once
    summaries: dict[tuple[NetworkChainParams, AttackModel], RunSummary] = {}
    for value, point in zip(values, points):
        if point.params not in baselines:
            baselines[point.params] = _build_baseline(point)
        baseline = baselines[point.params]
        scenario_key = (point.scenario.network, point.scenario.attack)
        if scenario_key not in summaries:
            summaries[scenario_key] = run_many(point.scenario)
        summary = summaries[scenario_key]
        # max_ticks as decide reads it, a float; a censored run (None) is no death within it
        codes = baseline._decisions(summary.death_ticks, float(summary.max_ticks), point.detector.theta)
        counts = ",".join(map(str, np.bincount(codes, minlength=3).tolist()))  # in Decision's order
        mean = summary.mean_death_tick
        mean = format_float(mean) if mean is not None else ""
        value_text = str(int(value)) if args.param == "m" else format_float(value)
        rows.append(f"{value_text},{format_float(baseline.expected_death_ticks)},{mean},{counts}")
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if out is not None:
        (out / "sweep.csv").write_text(table)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SleepwatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the refused allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
