"""Death-time based denial-of-sleep detection.

The detector compares how fast the network is dying against how fast it
is expected to die under normal conditions. The baseline is the expected
network death time, either analytic (closed-form chain steps scaled by a
ticks-per-chain-step calibration constant) or Monte Carlo (mean death
tick of attack-free simulation runs). A strict "died earlier than
expected" rule would fire on every downward fluctuation, so the verdict
uses a configurable margin: death at tick t is an attack iff
t < theta * baseline, with theta = 0.8 by default. The rule is one array
comparison, ``Baseline._decisions``, with four users: ``decide`` on one
observation, ``detect`` through ``decide``, ``online_estimate`` on every
window and the CLI's ``sweep`` on every run of a value, each at once.

``online_estimate`` applies the same comparison before death is observed:
it estimates how many chain steps elapse per tick from the dead-count
trajectory, projects the remaining time to death from the current state,
and compares elapsed + projected against the baseline. It evaluates its
trailing windows in one array pass, and every window gets the bits a
window-by-window loop gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attack import AttackKind
from .errors import (ConfigInvalid, DegenerateBaseline, OutOfRange, Uncalibratable, WindowTooShort,
                     require_array, require_fraction, require_int, require_positive, require_real, require_type)
from .network import NetworkChainParams, _check_threshold, expected_death_time, step_probs
from .simulate import RunSummary, ScenarioConfig, SimulationTrace, run_many

DEFAULT_THRESHOLD_FACTOR = 0.8

#: Values per block of the online detector's rows of expected moves (0.5 MB of floats).
_CHUNK = 1 << 16


class Decision(Enum):
    NORMAL = "normal"
    UNDER_ATTACK = "under_attack"
    INCONCLUSIVE = "inconclusive"


class BaselineSource(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class Baseline:
    """Expected death time of the healthy network, in simulator ticks.

    The death ticks and the ticks per chain step are finite reals above 0,
    kept as floats, and ``source`` is a ``BaselineSource``.
    """

    expected_death_ticks: float
    source: BaselineSource
    ticks_per_chain_step: float

    def __post_init__(self) -> None:
        require_type("source", self.source, BaselineSource)
        for name, check in (("ticks_per_chain_step", require_positive), ("expected_death_ticks", require_real)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        if not 0.0 < self.expected_death_ticks < math.inf:
            raise DegenerateBaseline(f"baseline must be finite and > 0, got {self.expected_death_ticks}")

    def _decisions(self, death_ticks, elapsed_ticks: float, theta: float):
        """The death-time rule in float64, as indices in ``Decision``'s order: under attack where
        t < theta * baseline, inconclusive where no death (None or NaN) was seen within ``elapsed_ticks``
        and the baseline has not elapsed, normal otherwise."""
        ticks, b = np.asarray(death_ticks, float), self.expected_death_ticks
        return np.where(ticks < theta * b, 1, np.where(np.isnan(ticks) & (elapsed_ticks < b), 2, 0))


@dataclass(frozen=True, slots=True)
class Verdict:
    """One decision and what it was measured against; slotted, as ``online_estimate`` makes one per window.

    Unchecked: only ``decide`` and ``online_estimate`` build one, and no library call takes one.
    """

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
    tick) whose ``network`` is ``params``. The start state
    must be transient; a baseline of zero chain steps cannot anchor any
    comparison (DegenerateBaseline). ``params`` must be a
    ``NetworkChainParams``, ``scenario`` a ``ScenarioConfig`` and the
    constant a real number.
    """
    require_type("params", params, NetworkChainParams)
    if (ticks_per_chain_step is None) == (scenario is None):
        raise ConfigInvalid("provide exactly one of ticks_per_chain_step or scenario")
    if scenario is None:
        # Baseline checks its value
        ticks_per_chain_step = require_real("ticks_per_chain_step", ticks_per_chain_step)
    else:
        require_type("scenario", scenario, ScenarioConfig)
    i0, m = params.initial_dead, params.m_threshold
    steps = expected_death_time(i0, m)
    if steps <= 0.0:
        raise DegenerateBaseline(f"start state {i0} of {m} is already absorbed; baseline is zero")

    if ticks_per_chain_step is not None:
        return Baseline(ticks_per_chain_step * steps, BaselineSource.ANALYTIC, ticks_per_chain_step)

    if scenario.attack.kind is not AttackKind.NO_ATTACK:
        raise ConfigInvalid("Monte Carlo baseline requires an attack-free scenario")
    if scenario.network != params:
        raise ConfigInvalid(f"calibration scenario describes {scenario.network}, params {params}")
    summary = run_many(scenario)
    if summary.mean_death_tick is None:
        raise Uncalibratable(
            f"all {summary.runs} baseline runs censored at {summary.max_ticks} ticks"
        )
    return Baseline(summary.mean_death_tick, BaselineSource.MONTE_CARLO, summary.mean_death_tick / steps)


def _calibration_note(baseline: Baseline) -> str:
    return (f"baseline={baseline.source.value}, "
            f"ticks_per_chain_step={baseline.ticks_per_chain_step:.6g}")


def decide(
    observed_death_tick: float | None,
    elapsed_ticks: float,
    baseline: Baseline,
    theta: float = DEFAULT_THRESHOLD_FACTOR,
) -> Verdict:
    """The death-time rule on one observation, as a ``Verdict``.

    Death observed at t: attack iff t < theta * baseline, normal
    otherwise. No death: normal once the baseline has fully elapsed,
    inconclusive before that. It is ``Baseline._decisions``, which also
    judges ``online_estimate``'s windows and ``sweep``'s runs, on one value,
    and adds the detail, the baseline, theta and the calibration note. The
    observed tick is None or a finite real number, the elapsed ticks a
    finite real number; a ``bool`` is neither.
    """
    theta = require_fraction("threshold_factor", theta)
    require_type("baseline", baseline, Baseline)
    if observed_death_tick is not None:
        observed_death_tick = require_real("observed_death_tick", observed_death_tick, finite=True)
    elapsed_ticks = require_real("elapsed_ticks", elapsed_ticks, finite=True)
    b = baseline.expected_death_ticks
    decision = list(Decision)[int(baseline._decisions(observed_death_tick, elapsed_ticks, theta))]
    if observed_death_tick is not None:
        text = (f"death at tick {observed_death_tick:g} "
                f"{'<' if decision is Decision.UNDER_ATTACK else '>='} {theta:g} * baseline")
    elif decision is Decision.NORMAL:
        text = f"no death within {elapsed_ticks:g} ticks >= baseline"
    else:
        text = f"no death yet at tick {elapsed_ticks:g} < baseline"
    return Verdict(decision, observed_death_tick, b, theta, f"{text} {b:.6g} [{_calibration_note(baseline)}]")


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
    raise ConfigInvalid(f"expected SimulationTrace or RunSummary, got {type(observation).__name__}")


def _dead_counts(view: np.ndarray) -> np.ndarray:
    """``view`` as int64, refused unless it is 1-D with an integer dtype.

    A ``uint64`` value past int64 would wrap to a negative count; it is no
    dead count of any chain (M is below 2**63), so it is OutOfRange.
    """
    if view.ndim != 1:
        raise ConfigInvalid(f"chain view must be 1-D, got shape {view.shape}")
    if view.dtype.kind not in "iu":
        raise ConfigInvalid(f"chain view must hold integer dead counts, got dtype {view.dtype}")
    counts = view.astype(np.int64, copy=False)
    if view.dtype.kind == "u":
        wrapped = view[counts < 0]
        if wrapped.size:
            raise OutOfRange(f"dead count {wrapped[0]} is past the int64 range")
    return counts


def _window_rates(view: np.ndarray, m: int, window: int, ends: np.ndarray, min_events: int):
    """``(rates, reasons)`` of the windows ``view[t - window : t + 1]``, ``t`` in ``ends[:stop]``.

    ``stop`` is the first fitted window (at least ``min_events`` moves)
    whose states, apart from its end tick, leave [0, m]. A window's rate
    is its observed move count over its expected moves, and its reason
    None; with fewer than ``min_events`` moves or none expected, its rate
    is NaN and its reason the WindowTooShort message. Move counts are
    differences of an exact int64 prefix sum, as is the count of ticks
    outside [0, m]; the fitted windows' expected moves are summed by a
    row-wise cumsum, in blocks of at most ``_CHUNK`` values.
    """
    starts = ends - window
    events_before = np.concatenate(([0], np.cumsum(np.abs(np.diff(view)))))
    outside_before = np.concatenate(([0], np.cumsum((view < 0) | (view > m))))
    events = events_before[ends] - events_before[starts]
    fitted = events >= min_events
    outside = np.flatnonzero(fitted & (outside_before[ends] > outside_before[starts]))
    stop = int(outside[0]) if outside.size else ends.size
    fit = np.flatnonzero(fitted[:stop])
    expected = np.zeros(stop)
    if fit.size:  # a window as long as the view has no slice
        moves = sliding_window_view((2.0 * step_probs(m)[0])[np.clip(view[:-1], 0, m)], window)
        rows = max(1, _CHUNK // window)
        for lo in range(0, fit.size, rows):
            block = moves[starts[fit[lo:lo + rows]]]  # a copy: one row per fitted window
            # each row is summed left to right, in tick order, as np.cumsum sums one window
            expected[fit[lo:lo + rows]] = np.cumsum(block, axis=1, out=block)[:, -1]
            del block  # freed before the next block is taken, which then reuses its memory
        del moves  # as are the per-tick moves, before the rates and reasons are built
    rates = np.divide(events[:stop], expected, out=np.full(stop, np.nan), where=expected > 0.0)
    reasons = [f"{count} events in window, need at least {min_events}" if count < min_events
               else "no moves expected in window; states pinned at a boundary" if math.isnan(rate) else None
               for count, rate in zip(events[:stop].tolist(), rates.tolist())]
    return rates, reasons


def estimate_step_rate(window_view: np.ndarray, m: int, min_events: int) -> float:
    """Chain steps per tick, estimated from one window of dead counts.

    Transitions out of state i move with probability up(i) + down(i) per
    chain step, so the step rate is the observed move count divided by
    the per-tick expected moves accumulated along the window. Raises
    WindowTooShort when fewer than ``min_events`` moves were observed or
    when no moves were expected (window pinned at a boundary), and
    ConfigInvalid unless the window is 1-D with an integer dtype and ``m``
    and ``min_events`` are integers. ``m`` is checked as a threshold
    before the window is read.
    """
    m, min_events = _check_threshold(require_int("m", m)), require_int("min_events", min_events)
    view = require_array("chain view", window_view)
    if view.size < 2:
        raise WindowTooShort(f"window has {view.size} ticks; need at least 2")
    view = _dead_counts(view)
    rates, reasons = _window_rates(view, m, view.size - 1, np.array([view.size - 1]), min_events)
    if rates.size and reasons[0] is None:
        return float(rates[0])
    raise WindowTooShort(reasons[0]) if rates.size else OutOfRange(f"window states outside [0, {m}]")


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
    exactly like an observed death time, by one comparison over every
    window. Windows too quiet to fit a rate yield inconclusive verdicts;
    one ``Verdict`` per window adds its decision, tick and reason, the
    baseline, theta and the calibration note. If the trajectory reaches
    the death threshold, the final verdict is the plain observed-death
    decision and evaluation stops there.

    The windows are evaluated as arrays: a row-wise cumsum sums each
    window's expected moves in tick order and one closed-form call
    projects every fitted window, so every verdict, and the first window
    that raises, are those of a window-by-window loop. The
    view must be 1-D with an integer dtype, ``window`` and ``stride``
    integers, ``min_events`` an integer of at least 1, ``params`` a
    ``NetworkChainParams`` and ``baseline`` a ``Baseline``. A ``window``
    or ``stride`` past the view's length acts as that length.
    """
    theta = require_fraction("threshold_factor", theta)
    require_type("params", params, NetworkChainParams)
    require_type("baseline", baseline, Baseline)
    view = require_array("chain view", chain_view)
    if view.size == 0:
        raise ConfigInvalid("chain view is empty")
    view = _dead_counts(view)
    window = require_int("window", window)
    stride = stride if stride is None else require_int("stride", stride)
    if window < 2 or (stride is not None and stride < 1):
        raise ConfigInvalid("window must be >= 2 and stride >= 1")
    if require_int("min_events", min_events) < 1:
        raise ConfigInvalid(f"min_events must be >= 1, got {min_events}")
    # a window or stride past the view's length gives the windows that length gives;
    # np.arange refuses one past its size limit, and ``ends - window`` one past int64
    window = min(window, view.size)
    stride = min(stride if stride is not None else window, view.size)
    m = params.m_threshold
    b = baseline.expected_death_ticks
    note = _calibration_note(baseline)

    death_positions = np.flatnonzero(view >= m)
    horizon = int(death_positions[0]) if death_positions.size else view.size - 1
    ends = np.arange(window, horizon + 1, stride)
    rates, reasons = _window_rates(view[:horizon + 1], m, window, ends, min_events)
    t = ends[:rates.size]
    fit = ~np.isnan(rates)
    projected = np.full(t.size, np.nan)
    # a fitted window's end state outside [0, m] raises here, before a later window's OutOfRange
    projected[fit] = t[fit] + expected_death_time(view[t[fit]], m) / rates[fit]
    codes = baseline._decisions(projected, 0.0, theta).tolist()  # unfitted: NaN, 0 elapsed, inconclusive
    decisions, verdicts = list(Decision), []
    for code, tick, rate, proj, reason in zip(codes, t.tolist(), rates.tolist(), projected.tolist(), reasons):
        text = reason or (f"rate {rate:.6g} steps/tick, projected death {proj:.6g} "
                          f"vs {theta:g} * baseline {b:.6g}")
        verdicts.append(Verdict(decisions[code], None, b, theta, f"tick {tick}: {text} [{note}]"))
    if t.size < ends.size:
        raise OutOfRange(f"window states outside [0, {m}]")
    if death_positions.size:
        verdicts.append(decide(float(horizon), float(horizon), baseline, theta))
    return verdicts
