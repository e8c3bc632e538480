"""Network-level death chain over the dead-node count.

The network is modeled as a birth-death chain on i = 0..M, where i counts
dead nodes and M = round(4N/5) is the death threshold for N deployed
nodes. Both boundaries are absorbing; absorption at M is network death.
One chain step is one death/recovery event opportunity (the mapping to
simulator ticks is a calibration constant owned by the detector).

Transition probabilities are symmetric:

    up(i) = down(i) = ((M - i) / M) * (i / M)
    stay(i) = ((M - i) / M)^2 + (i / M)^2

which makes every down/up ratio equal to 1 and collapses the absorption
probability into i / M. The closed forms below (``death_probability``,
``expected_visits_closed``, ``expected_death_time``) are all checked
against the fundamental-matrix oracle in :mod:`sleepwatch.chain`;
``death_probability`` deliberately evaluates the general ratio-sum
formula rather than the i / M shortcut, so the collapse is a tested
consequence instead of an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix, validate
from .errors import ConfigInvalid, OutOfRange, TooFewNodes

#: Dead-node fraction at which the network is declared dead.
DEATH_FRACTION = 4, 5

#: Rounding rule used to turn (4/5) * N into an integer threshold.
THRESHOLD_ROUNDING = "half-up"


def threshold_from_deployed(n: int) -> int:
    """Death threshold M = round(4n/5), rounded half-up.

    Uses exact integer arithmetic: (8n + 5) // 10. Raises TooFewNodes for
    n < 2 or whenever the threshold would land below 2 (a chain with
    M < 2 has no transient state to analyze).
    """
    if n < 2:
        raise TooFewNodes(f"need at least 2 deployed nodes, got {n}")
    num, den = DEATH_FRACTION
    m = (2 * num * n + den) // (2 * den)
    if m < 2:
        raise TooFewNodes(f"threshold {m} below 2 for {n} deployed nodes")
    return m


@dataclass(frozen=True)
class NetworkChainParams:
    """Deployed count N, death threshold M, and starting dead count i.

    M is always derived from N with half-up rounding; passing an explicit
    ``m_threshold`` that disagrees with the derived value is rejected.
    """

    n_deployed: int
    initial_dead: int = 1
    m_threshold: int | None = None

    def __post_init__(self) -> None:
        derived = threshold_from_deployed(self.n_deployed)
        if self.m_threshold is None:
            object.__setattr__(self, "m_threshold", derived)
        elif self.m_threshold != derived:
            raise ConfigInvalid(
                f"m_threshold {self.m_threshold} inconsistent with "
                f"round(4*{self.n_deployed}/5) = {derived}"
            )
        if not 0 <= self.initial_dead <= self.m_threshold:
            raise OutOfRange(
                f"initial_dead {self.initial_dead} outside [0, {self.m_threshold}]"
            )

    @classmethod
    def with_threshold(cls, m: int, initial_dead: int = 1) -> "NetworkChainParams":
        """Params for a desired threshold M, back-solving a compatible N."""
        if m < 2:
            raise OutOfRange(f"threshold must be at least 2, got {m}")
        n = (2 * 5 * m + 4) // (2 * 4)  # round(5m/4) half-up
        return cls(n_deployed=n, initial_dead=initial_dead)


def _check_threshold(m: int) -> None:
    if m < 2:
        raise OutOfRange(f"threshold must be at least 2, got {m}")


def _states(i, m: int, low: int, high: int) -> np.ndarray:
    """State argument as an int array, every entry checked to lie in [low, high]."""
    _check_threshold(m)
    states = np.asarray(i, dtype=np.int64)
    bad = states[(states < low) | (states > high)]
    if bad.size:
        raise OutOfRange(f"state {bad[0]} outside [{low}, {high}]")
    return states


def _result(values: np.ndarray):
    """A Python float for a scalar state argument, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def step_probs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition probabilities out of every dead-count state 0..m.

    Returns ``(move, stay)``: ``move[i]`` = ((m-i)/m) * (i/m) is both the
    up (+1) and the down (-1) probability, ``stay[i]`` = ((m-i)/m)^2 +
    (i/m)^2; every other destination has probability 0. Both boundaries
    are absorbing: at i = 0 and i = m the move terms vanish and stay = 1.
    """
    _check_threshold(m)
    states = np.arange(m + 1)
    healthy = (m - states) / m
    dead = states / m
    return healthy * dead, healthy * healthy + dead * dead


def death_probability(i, m: int):
    """Probability of absorption at m (network death) starting from i dead.

    Evaluates sum(beta(k) for k < i) / sum(beta(k) for k < m), where
    beta(k) = down(k) / up(k) and beta(0) = 1. Every ratio is 1, so this
    collapses to i / m: 0 at i = 0 and 1 at i = m. ``i`` is one state or
    an array of states.
    """
    states = _states(i, m, 0, m)
    move = step_probs(m)[0]
    beta = np.concatenate(([1.0], move[1:m] / move[1:m]))
    ratio_sums = np.concatenate(([0.0], np.cumsum(beta)))
    return _result(ratio_sums[states] / ratio_sums[m])


def expected_visits_closed(i, j, m: int):
    """Closed-form expected visits to state j before absorption, from i.

    Equals m*(m-i)/(m-j) for j <= i and m*i/j for j > i; matches the
    fundamental-matrix entry of the assembled chain. Both states must be
    transient (1 <= i, j <= m-1); arrays of states broadcast.
    """
    i, j = _states(i, m, 1, m - 1), _states(j, m, 1, m - 1)
    return _result(np.where(j <= i, m * (m - i) / (m - j), m * i / j))


def expected_death_time(i, m: int):
    """Expected chain steps to absorption starting from i dead nodes.

    Closed form: m*(m-i) * sum(1/(m-j) for j in 1..i)
               + m*i * sum(1/j for j in i+1..m-1).
    Zero at both absorbing boundaries. ``i`` is one state or an array of
    states. Agrees with the expected-steps vector of the fundamental
    matrix to relative 1e-9 over the tested threshold range.
    """
    states = _states(i, m, 0, m)
    j = np.arange(1, m)
    # running sums over zero-padded rows add the terms left to right, as the
    # formula reads; np.sum adds pairwise and would change the last bits
    below = np.cumsum(np.where(j <= states[..., None], 1.0 / (m - j), 0.0), axis=-1)[..., -1]
    above = np.cumsum(np.where(j > states[..., None], 1.0 / j, 0.0), axis=-1)[..., -1]
    return _result(m * (m - states) * below + m * states * above)


def build_matrix(params: NetworkChainParams) -> TransitionMatrix:
    """Assemble the (M+1)-state tridiagonal chain for oracle cross-checks.

    States 0 and M are absorbing; the rows come from ``step_probs``.
    The result passes :func:`sleepwatch.chain.validate`.
    """
    m = params.m_threshold
    move, stay = step_probs(m)
    probs = np.diag(stay)
    below = np.arange(m)
    probs[below + 1, below] = move[1:]
    probs[below, below + 1] = move[:-1]
    return validate(TransitionMatrix(probs, frozenset({0, m})))
