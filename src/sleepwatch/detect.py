"""Death-time based denial-of-sleep detection.

The detector compares how fast the network is dying against how fast it
is expected to die under normal conditions. The baseline is the expected
network death time, either analytic (closed-form chain steps scaled by a
ticks-per-chain-step calibration constant) or Monte Carlo (mean death
tick of attack-free simulation runs). A strict "died earlier than
expected" rule would fire on every downward fluctuation, so the verdict
uses a configurable margin: death at tick t is an attack iff
t < theta * baseline, with theta = 0.8 by default.

``online_estimate`` applies the same comparison before death is observed:
it estimates how many chain steps elapse per tick from the dead-count
trajectory, projects the remaining time to death from the current state,
and compares elapsed + projected against the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attack import AttackKind
from .errors import ConfigInvalid, DegenerateBaseline, OutOfRange, Uncalibratable, WindowTooShort
from .network import NetworkChainParams, expected_death_time, step_probs
from .simulate import RunSummary, ScenarioConfig, SimulationTrace, run_many

DEFAULT_THRESHOLD_FACTOR = 0.8


class Decision(Enum):
    NORMAL = "normal"
    UNDER_ATTACK = "under_attack"
    INCONCLUSIVE = "inconclusive"


class BaselineSource(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class Baseline:
    """Expected death time of the healthy network, in simulator ticks."""

    expected_death_ticks: float
    source: BaselineSource
    ticks_per_chain_step: float
    m_threshold: int
    initial_dead: int

    def __post_init__(self) -> None:
        if not 0.0 < self.ticks_per_chain_step < math.inf:
            raise ConfigInvalid(f"ticks_per_chain_step must be finite and > 0, got {self.ticks_per_chain_step}")
        if not 0.0 < self.expected_death_ticks < math.inf:
            raise DegenerateBaseline(f"baseline must be finite and > 0, got {self.expected_death_ticks}")


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    observed_death_ticks: float | None
    baseline_ticks: float
    threshold_factor: float
    detail: str


def compute_baseline(
    params: NetworkChainParams,
    ticks_per_chain_step: float | None = None,
    scenario: ScenarioConfig | None = None,
) -> Baseline:
    """Normal-lifetime yardstick, analytic or Monte Carlo.

    Exactly one calibration must be supplied: a ticks-per-chain-step
    constant (analytic: closed-form expected death time, scaled) or an
    attack-free scenario to simulate (Monte Carlo: mean uncensored death
    tick) at the same death threshold M as ``params``. The start state
    must be transient; a baseline of zero chain steps cannot anchor any
    comparison (DegenerateBaseline).
    """
    if (ticks_per_chain_step is None) == (scenario is None):
        raise ConfigInvalid("provide exactly one of ticks_per_chain_step or scenario")
    i0, m = params.initial_dead, params.m_threshold
    steps = expected_death_time(i0, m)
    if steps <= 0.0:
        raise DegenerateBaseline(f"start state {i0} of {m} is already absorbed; baseline is zero")

    if ticks_per_chain_step is not None:
        return Baseline(ticks_per_chain_step * steps, BaselineSource.ANALYTIC,
                        ticks_per_chain_step, m, i0)

    if scenario.attack is not None and scenario.attack.kind is not AttackKind.NO_ATTACK:
        raise ConfigInvalid("Monte Carlo baseline requires an attack-free scenario")
    if scenario.m_threshold != m:
        raise ConfigInvalid(f"calibration scenario dies at M={scenario.m_threshold}, params at M={m}")
    summary = run_many(scenario)
    if summary.mean_death_tick is None:
        raise Uncalibratable(
            f"all {summary.runs} baseline runs censored at {summary.max_ticks} ticks"
        )
    return Baseline(summary.mean_death_tick, BaselineSource.MONTE_CARLO,
                    summary.mean_death_tick / steps, m, i0)


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise ConfigInvalid(f"threshold_factor must lie in (0, 1], got {theta}")


def _calibration_note(baseline: Baseline) -> str:
    return (f"baseline={baseline.source.value}, "
            f"ticks_per_chain_step={baseline.ticks_per_chain_step:.6g}")


def decide(
    observed_death_tick: float | None,
    elapsed_ticks: float,
    baseline: Baseline,
    theta: float = DEFAULT_THRESHOLD_FACTOR,
) -> Verdict:
    """Core decision rule shared by trace, summary, and online paths.

    Death observed at t: attack iff t < theta * baseline, normal
    otherwise. No death: normal once the baseline has fully elapsed,
    inconclusive before that.
    """
    _check_theta(theta)
    b = baseline.expected_death_ticks
    note = _calibration_note(baseline)
    if observed_death_tick is not None:
        if observed_death_tick < theta * b:
            return Verdict(
                Decision.UNDER_ATTACK, float(observed_death_tick), b, theta,
                f"death at tick {observed_death_tick:g} < {theta:g} * baseline {b:.6g} [{note}]",
            )
        return Verdict(
            Decision.NORMAL, float(observed_death_tick), b, theta,
            f"death at tick {observed_death_tick:g} >= {theta:g} * baseline {b:.6g} [{note}]",
        )
    if elapsed_ticks >= b:
        return Verdict(
            Decision.NORMAL, None, b, theta,
            f"no death within {elapsed_ticks:g} ticks >= baseline {b:.6g} [{note}]",
        )
    return Verdict(
        Decision.INCONCLUSIVE, None, b, theta,
        f"no death yet at tick {elapsed_ticks:g} < baseline {b:.6g} [{note}]",
    )


def detect(
    observation: SimulationTrace | RunSummary,
    baseline: Baseline,
    theta: float = DEFAULT_THRESHOLD_FACTOR,
) -> Verdict:
    """Apply the decision rule to a single trace or to a run summary.

    A summary is judged by its mean uncensored death tick; a fully
    censored summary counts as no observed death with max_ticks elapsed.
    """
    if isinstance(observation, SimulationTrace):
        return decide(observation.network_death_tick, observation.elapsed_ticks, baseline, theta)
    if isinstance(observation, RunSummary):
        return decide(observation.mean_death_tick, observation.max_ticks, baseline, theta)
    raise TypeError(f"expected SimulationTrace or RunSummary, got {type(observation).__name__}")


def estimate_step_rate(window_view: np.ndarray, m: int, min_events: int) -> float:
    """Chain steps per tick, estimated from one window of dead counts.

    Transitions out of state i move with probability up(i) + down(i) per
    chain step, so the step rate is the observed move count divided by
    the per-tick expected moves accumulated along the window. Raises
    WindowTooShort when fewer than ``min_events`` moves were observed or
    when no moves were expected (window pinned at a boundary).
    """
    view = np.asarray(window_view, dtype=np.int64)
    if view.size < 2:
        raise WindowTooShort(f"window has {view.size} ticks; need at least 2")
    events = int(np.abs(np.diff(view)).sum())
    if events < min_events:
        raise WindowTooShort(f"{events} events in window, need at least {min_events}")
    move, states = step_probs(m)[0], view[:-1]
    if states.min() < 0 or states.max() > m:
        raise OutOfRange(f"window states outside [0, {m}]")
    expected_moves = np.cumsum(2.0 * move[states])[-1]  # summed in tick order
    if expected_moves <= 0.0:
        raise WindowTooShort("no moves expected in window; states pinned at a boundary")
    return float(events / expected_moves)


def online_estimate(
    chain_view: np.ndarray,
    params: NetworkChainParams,
    baseline: Baseline,
    theta: float = DEFAULT_THRESHOLD_FACTOR,
    window: int = 200,
    min_events: int = 5,
    stride: int | None = None,
) -> list[Verdict]:
    """Windowed verdicts over a live dead-count trajectory.

    Every ``stride`` ticks, the trailing ``window`` ticks are used to
    estimate the chain step rate; the remaining death time from the
    current dead count is the closed-form chain-step count divided by
    that rate, and elapsed + projected is compared against the baseline
    exactly like an observed death time. Windows too quiet to fit a rate
    yield inconclusive verdicts. If the trajectory reaches the death
    threshold, the final verdict is the plain observed-death decision and
    evaluation stops there.
    """
    _check_theta(theta)
    view = np.asarray(chain_view, dtype=np.int64)
    if view.size == 0:
        raise ConfigInvalid("chain view is empty")
    if window < 2 or (stride is not None and stride < 1):
        raise ConfigInvalid("window must be >= 2 and stride >= 1")
    stride = stride if stride is not None else window
    m = params.m_threshold
    b = baseline.expected_death_ticks
    note = _calibration_note(baseline)

    death_positions = np.flatnonzero(view >= m)
    horizon = int(death_positions[0]) if death_positions.size else view.size - 1

    verdicts: list[Verdict] = []
    for t in range(window, horizon + 1, stride):
        segment = view[t - window : t + 1]
        try:
            rate = estimate_step_rate(segment, m, min_events)
        except WindowTooShort as exc:
            verdicts.append(Verdict(
                Decision.INCONCLUSIVE, None, b, theta,
                f"tick {t}: {exc} [{note}]",
            ))
            continue
        remaining = expected_death_time(int(view[t]), m) / rate
        projected = t + remaining
        decision = Decision.UNDER_ATTACK if projected < theta * b else Decision.NORMAL
        verdicts.append(Verdict(
            decision, None, b, theta,
            f"tick {t}: rate {rate:.6g} steps/tick, projected death {projected:.6g} "
            f"vs {theta:g} * baseline {b:.6g} [{note}]",
        ))
    if death_positions.size:
        verdicts.append(decide(float(horizon), float(horizon), baseline, theta))
    return verdicts
