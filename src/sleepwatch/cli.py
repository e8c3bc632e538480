"""Command-line entry point.

Subcommands: analyze, simulate, detect, sweep. All take --config (scenario
JSON, see :mod:`sleepwatch.config`) and optionally --out for artifact
files; --seed, --runs and --theta override the file values.

Exit codes are a stable contract:

    0  success / verdict Normal
    1  configuration, validation or I/O error
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
from .attack import no_attack
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
from .serialize import dumps_canonical, write_json_text, write_trace_csv
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
        cmd.add_argument("--out", help="directory for output artifacts")
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
    return ParsedConfig(scenario=scenario, params=parsed.params, detector=detector)


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _analyze_report(parsed: ParsedConfig) -> dict:
    params = parsed.params
    m = params.m_threshold
    analysis = chain.analyze(chain.canonicalize(build_matrix(params)))
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
        report[key] = {
            "closed_form": closed.tolist(),
            "oracle": oracle.tolist(),
            "max_abs_deviation": float(np.max(np.abs(closed - oracle))),
        }
    return report


def _summary_dict(summary: RunSummary, scenario: ScenarioConfig) -> dict:
    return {
        "n_deployed": summary.n_deployed,
        "m_threshold": summary.m_threshold,
        "m_rounding": THRESHOLD_ROUNDING,
        "runs": summary.runs,
        "seed": summary.seed,
        "max_ticks": summary.max_ticks,
        "death_mode": scenario.death_mode.value,
        "attack_kind": (scenario.attack.kind.value if scenario.attack else "none"),
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
    text = dumps_canonical(_analyze_report(parsed))
    print(text)
    out = _out_dir(args)
    if out is not None:
        write_json_text(out / "analyze.json", text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    parsed = _load(args)
    summary = run_many(parsed.scenario)
    out = _out_dir(args)
    if out is None:
        raise SleepwatchError("simulate requires --out for its trace files")
    for trace in summary.traces:
        write_trace_csv(out / f"run_{trace.run_index:03d}.csv", trace)
    text = dumps_canonical(_summary_dict(summary, parsed.scenario))
    write_json_text(out / "summary.json", text)
    print(text)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    parsed = _load(args)
    baseline = _build_baseline(parsed)
    summary = run_many(parsed.scenario)
    verdict = detect(summary, baseline, parsed.detector.theta)
    text = dumps_canonical(_verdict_dict(verdict, baseline))
    print(text)
    out = _out_dir(args)
    if out is not None:
        write_json_text(out / "verdict.json", text)
    return _EXIT_FOR_DECISION[verdict.decision]


def _sweep_point(parsed: ParsedConfig, param: str, value: float) -> ParsedConfig:
    """Config for one sweep point; its baseline comes from :func:`_build_baseline`."""
    scenario = parsed.scenario
    if param == "m":
        m = int(value)
        scenario = replace(scenario, m_override=m)
        params = NetworkChainParams.with_threshold(m, min(parsed.params.initial_dead, m - 1))
        return replace(parsed, scenario=scenario, params=params)
    if param in ("coverage", "sleep_block"):
        attack = scenario.attack if scenario.attack is not None else no_attack()
        attack = replace(attack, **{param: float(value)})
        return replace(parsed, scenario=replace(scenario, attack=attack))
    return parsed


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

    rows = ["value,baseline,mean_death_tick,normal,under_attack,inconclusive"]
    for value in values:
        theta = float(value) if args.param == "theta" else parsed.detector.theta
        point = _sweep_point(parsed, args.param, value)
        baseline = _build_baseline(point)
        summary = run_many(point.scenario)
        counts = {Decision.NORMAL: 0, Decision.UNDER_ATTACK: 0, Decision.INCONCLUSIVE: 0}
        for trace in summary.traces:
            counts[detect(trace, baseline, theta).decision] += 1
        observed = [t for t in summary.death_ticks if t is not None]
        mean = f"{np.mean(observed):.17g}" if observed else ""
        value_text = str(int(value)) if args.param == "m" else f"{value:.17g}"
        rows.append(
            f"{value_text},{baseline.expected_death_ticks:.17g},{mean},"
            f"{counts[Decision.NORMAL]},{counts[Decision.UNDER_ATTACK]},"
            f"{counts[Decision.INCONCLUSIVE]}"
        )
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    out = _out_dir(args)
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
    except SleepwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
