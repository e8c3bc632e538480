"""Window-by-window reference for the online detector.

``online_estimate`` here fits one trailing window at a time: its own
``estimate_step_rate`` sums the window's expected moves with a 1-D
``np.cumsum`` and raises for a window it cannot fit, and a scalar
``expected_death_time`` call projects each fitted window.
:func:`sleepwatch.detect.online_estimate` evaluates the windows as arrays,
with one projection call, and must return the same verdicts and raise the
same errors, so ``test_detect`` compares the two. The range rule (every
count of the view a state in [0, m], the first one outside refused before
any window) is the library's, restated here as one up-front check in
``_dead_counts``: it is shared, not cross-checked. Nothing here is used by
the library.
"""

from __future__ import annotations

import numpy as np

from sleepwatch.detect import (
    DEFAULT_THRESHOLD_FACTOR,
    Baseline,
    Decision,
    Verdict,
    _calibration_note,
    decide,
)
from sleepwatch.errors import ConfigInvalid, OutOfRange, WindowTooShort, require_fraction
from sleepwatch.network import NetworkChainParams, expected_death_time, step_probs


def _dead_counts(view: np.ndarray, m: int) -> np.ndarray:
    """``view`` as int64, refused at its first count outside [0, m]."""
    outside = np.flatnonzero((view < 0) | (view > m))
    if outside.size:
        raise OutOfRange(f"dead count {view[outside[0]]} at tick {outside[0]} outside [0, {m}]")
    return view.astype(np.int64)


def estimate_step_rate(window_view: np.ndarray, m: int, min_events: int) -> float:
    """Observed moves over expected moves along one window of dead counts."""
    view = _dead_counts(np.asarray(window_view), m)
    if view.size < 2:
        raise WindowTooShort(f"window has {view.size} ticks; need at least 2")
    events = int(np.abs(np.diff(view)).sum())
    if events < min_events:
        raise WindowTooShort(f"{events} events in window, need at least {min_events}")
    move, states = step_probs(m)[0], view[:-1]
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
    """Verdicts of the trailing windows, fitted and projected one at a time."""
    require_fraction("threshold_factor", theta)
    m = params.m_threshold
    view = _dead_counts(np.asarray(chain_view), m)
    if view.size == 0:
        raise ConfigInvalid("chain view is empty")
    if window < 2 or (stride is not None and stride < 1):
        raise ConfigInvalid("window must be >= 2 and stride >= 1")
    stride = stride if stride is not None else window
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
