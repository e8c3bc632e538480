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
and compares elapsed + projected against the baseline. Its view, like
``estimate_step_rate``'s window, is read once, by ``_dead_counts``: every
count must be a chain state in [0, M], and the first that is not is
refused before any window. It then evaluates its trailing windows in one
array pass, and every window gets the bits a window-by-window loop gives it.
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


def _dead_counts(value, m: int) -> np.ndarray:
    """The chain view ``value`` as int64 dead counts, every one a state in [0, m].

    A view that is not 1-D with an integer dtype is ConfigInvalid, and the
    first count outside [0, m] is OutOfRange. The counts are compared in the
    view's own dtype, so a ``uint64`` count past int64 is refused with its
    true value before the cast could wrap it.
    """
    view = require_array("chain view", value)
    if view.ndim != 1:
        raise ConfigInvalid(f"chain view must be 1-D, got shape {view.shape}")
    if view.dtype.kind not in "iu":
        raise ConfigInvalid(f"chain view must hold integer dead counts, got dtype {view.dtype}")
    outside = np.flatnonzero((view < 0) | (view > m))
    if outside.size:
        raise OutOfRange(f"dead count {view[outside[0]]} at tick {outside[0]} outside [0, {m}]")
    return view.astype(np.int64, copy=False)


def _window_rates(view: np.ndarray, m: int, window: int, ends: np.ndarray, min_events: int):
    """``(rates, reasons)`` of the windows ``view[t - window : t + 1]``, ``t`` in ``ends``.

    Every count of ``view`` is a state in [0, m], as ``_dead_counts``
    checked it, so no window can fail on one. A window's rate is its
    observed move count over its expected moves, and its reason None; with
    fewer than ``min_events`` moves or none expected, its rate is NaN and
    its reason the WindowTooShort message. Move counts are differences of
    an exact int64 prefix sum; the fitted windows' expected moves are
    summed by a row-wise cumsum, in blocks of at most ``_CHUNK`` values.
    """
    starts = ends - window
    events_before = np.concatenate(([0], np.cumsum(np.abs(np.diff(view)))))
    events = events_before[ends] - events_before[starts]
    fit = np.flatnonzero(events >= min_events)
    expected = np.zeros(ends.size)
    if fit.size:  # a window as long as the view has no slice
        moves = sliding_window_view((2.0 * step_probs(m)[0])[view[:-1]], window)
        rows = max(1, _CHUNK // window)
        for lo in range(0, fit.size, rows):
            block = moves[starts[fit[lo:lo + rows]]]  # a copy: one row per fitted window
            # each row is summed left to right, in tick order, as np.cumsum sums one window
            expected[fit[lo:lo + rows]] = np.cumsum(block, axis=1, out=block)[:, -1]
            del block  # freed before the next block is taken, which then reuses its memory
        del moves  # as are the per-tick moves, before the rates and reasons are built
    rates = np.divide(events, expected, out=np.full(ends.size, np.nan), where=expected > 0.0)
    reasons = [f"{count} events in window, need at least {min_events}" if count < min_events
               else "no moves expected in window; states pinned at a boundary" if math.isnan(rate) else None
               for count, rate in zip(events.tolist(), rates.tolist())]
    return rates, reasons


def estimate_step_rate(window_view: np.ndarray, m: int, min_events: int) -> float:
    """Chain steps per tick, estimated from one window of dead counts.

    Transitions out of state i move with probability up(i) + down(i) per
    chain step, so the step rate is the observed move count divided by
    the per-tick expected moves accumulated along the window. ``m`` is
    checked as a threshold before the window is read. The window must be
    1-D with an integer dtype (ConfigInvalid), and every count, the end
    tick's too, must lie in [0, m] (OutOfRange), whether or not the window
    could be fitted. Raises WindowTooShort for a window of fewer than 2
    ticks, when fewer than ``min_events`` moves were observed or when no
    moves were expected (window pinned at a boundary), and ConfigInvalid
    unless ``m`` and ``min_events`` are integers.
    """
    m, min_events = _check_threshold(require_int("m", m)), require_int("min_events", min_events)
    view = _dead_counts(window_view, m)
    if view.size < 2:
        raise WindowTooShort(f"window has {view.size} ticks; need at least 2")
    rates, reasons = _window_rates(view, m, view.size - 1, np.array([view.size - 1]), min_events)
    if reasons[0] is not None:
        raise WindowTooShort(reasons[0])
    return float(rates[0])


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

    The view is the chain's: every count, wherever the windows fall, must
    be a state in [0, M] (OutOfRange for the first one outside it, before
    any window is evaluated), and it must be 1-D with an integer dtype.
    The windows are then evaluated as arrays: a row-wise cumsum sums each
    window's expected moves in tick order and one closed-form call
    projects every fitted window, so every verdict is that of a
    window-by-window loop. ``window`` and ``stride`` must be integers,
    ``min_events`` an integer of at least 1, ``params`` a
    ``NetworkChainParams`` and ``baseline`` a ``Baseline``. A ``window``
    or ``stride`` past the view's length acts as that length.
    """
    theta = require_fraction("threshold_factor", theta)
    require_type("params", params, NetworkChainParams)
    require_type("baseline", baseline, Baseline)
    m = params.m_threshold
    view = _dead_counts(chain_view, m)
    if view.size == 0:
        raise ConfigInvalid("chain view is empty")
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
    b = baseline.expected_death_ticks
    note = _calibration_note(baseline)

    death_positions = np.flatnonzero(view >= m)
    horizon = int(death_positions[0]) if death_positions.size else view.size - 1
    ends = np.arange(window, horizon + 1, stride)
    rates, reasons = _window_rates(view[:horizon + 1], m, window, ends, min_events)
    fit = ~np.isnan(rates)
    projected = np.full(ends.size, np.nan)
    projected[fit] = ends[fit] + expected_death_time(view[ends[fit]], m) / rates[fit]
    codes = baseline._decisions(projected, 0.0, theta).tolist()  # unfitted: NaN, 0 elapsed, inconclusive
    decisions, verdicts = list(Decision), []
    for code, tick, rate, proj, reason in zip(codes, ends.tolist(), rates.tolist(), projected.tolist(), reasons):
        text = reason or (f"rate {rate:.6g} steps/tick, projected death {proj:.6g} "
                          f"vs {theta:g} * baseline {b:.6g}")
        verdicts.append(Verdict(decisions[code], None, b, theta, f"tick {tick}: {text} [{note}]"))
    if death_positions.size:
        verdicts.append(decide(float(horizon), float(horizon), baseline, theta))
    return verdicts
