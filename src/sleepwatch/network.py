"""Network-level death chain over the dead-node count.

The network is modeled as a birth-death chain on i = 0..M, where i counts
dead nodes and M is the death threshold for N deployed nodes: round(4N/5)
unless set explicitly (see :class:`NetworkChainParams`). Both boundaries
are absorbing; absorption at M is network death. One chain step is one
death/recovery event opportunity (the mapping to simulator ticks is a
calibration constant owned by the detector).

Transition probabilities are symmetric:

    up(i) = down(i) = ((M - i) / M) * (i / M)
    stay(i) = ((M - i) / M)^2 + (i / M)^2

which makes every down/up ratio equal to 1, so the general birth-death
absorption probability (a ratio of sums of those ratios) is i / M. The
closed forms below (``death_probability``, ``expected_visits_closed``,
``expected_death_time``) are all checked against the fundamental-matrix
oracle in :mod:`sleepwatch.chain`, and ``death_probability`` also
against the general ratio-sum formula in the tests. Each of them, with
``step_probs`` and ``build_matrix``, refuses a threshold M past the
element count numpy can size an array for, and the closed forms take the
products M*(M-i) and M*i in float64, so no M they accept wraps int64.
``expected_death_time`` adds the terms of each of its two sums left to
right, as the plain-Python formula does, so its values are that formula's
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix
from .errors import _MAX_ITEMS, ConfigInvalid, OutOfRange, TooFewNodes, require_array, require_int

#: Dead-node fraction at which the network is declared dead.
DEATH_FRACTION = 4, 5

#: Rounding rule used to turn (4/5) * N into an integer threshold.
THRESHOLD_ROUNDING = "half-up"


def threshold_from_deployed(n: int) -> int:
    """Death threshold M = round(4n/5), rounded half-up.

    Uses exact integer arithmetic: (8n + 5) // 10. Raises TooFewNodes for
    n < 2; every n >= 2 gives M >= 2, so the chain has a transient state.
    """
    n = require_int("n_deployed", n)
    if n < 2:
        raise TooFewNodes(f"need at least 2 deployed nodes, got {n}")
    num, den = DEATH_FRACTION
    return (2 * num * n + den) // (2 * den)


@dataclass(frozen=True)
class NetworkChainParams:
    """Deployed count N, death threshold M, and starting dead count i.

    This is the one description of a deployment's chain: the simulator,
    the detector and the CLI all read N, M and i from here. M defaults to
    round(4N/5) with half-up rounding; an explicit ``m_threshold`` must
    lie in [2, N]. The start state must lie in [0, M]. N, M and the start
    state are integers, and N may not exceed the element count numpy can
    size for an 8-byte array.
    """

    n_deployed: int
    initial_dead: int = 1
    m_threshold: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_deployed", "initial_dead"):
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        derived = threshold_from_deployed(self.n_deployed)  # rejects N < 2
        if self.n_deployed > _MAX_ITEMS:
            raise ConfigInvalid(f"n_deployed {self.n_deployed} is too large for numpy arrays")
        m = derived if self.m_threshold is None else require_int("m_threshold", self.m_threshold)
        if not 2 <= m <= self.n_deployed:
            raise ConfigInvalid(f"m_threshold {m} outside [2, {self.n_deployed}]")
        object.__setattr__(self, "m_threshold", m)
        if not 0 <= self.initial_dead <= self.m_threshold:
            raise OutOfRange(
                f"initial_dead {self.initial_dead} outside [0, {self.m_threshold}]"
            )


def _check_threshold(m: int) -> int:
    """The threshold ``m`` as an ``int`` of at least 2 that numpy can size an array for."""
    m = require_int("threshold", m)
    if m < 2:
        raise OutOfRange(f"threshold must be at least 2, got {m}")
    if m > _MAX_ITEMS:
        raise ConfigInvalid(f"threshold {m} is too large for numpy arrays")
    return m


def _states(i, m: int, low: int, high: int) -> np.ndarray:
    """State argument as an int64 array, every entry checked to lie in [low, high].

    ``i`` is an integer or an array of an integer dtype: a bool, a float or
    a string is refused, not truncated to a state. Each item of a list or
    tuple is checked as a scalar is, since its array folds a bool into an
    integer and holds an int past ``int64`` as an object; a ragged one is
    refused.
    """
    if isinstance(i, (np.ndarray, list, tuple)):
        states = require_array("states", i)
        if not isinstance(i, np.ndarray) and states.dtype.kind in "iuO":
            for item in np.asarray(i, dtype=object).flat:
                require_int("state", item)
        elif states.dtype.kind not in "iu":
            raise ConfigInvalid(f"states must have an integer dtype, got {states.dtype}")
    else:
        # past int64 this is an object array, which the range check still compares
        states = np.asarray(require_int("state", i))
    bad = states[(states < low) | (states > high)]
    if bad.size:
        raise OutOfRange(f"state {bad[0]} outside [{low}, {high}]")
    return states.astype(np.int64, copy=False)


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
    m = _check_threshold(m)
    states = np.arange(m + 1)
    healthy = (m - states) / m
    dead = states / m
    return healthy * dead, healthy * healthy + dead * dead


def death_probability(i, m: int):
    """Probability of absorption at m (network death) starting from i dead.

    Every down/up ratio of the chain is 1, so this is i / m: 0 at i = 0
    and 1 at i = m. ``i`` is one state or an array of states.
    """
    m = _check_threshold(m)
    return _result(_states(i, m, 0, m) / m)


def expected_visits_closed(i, j, m: int):
    """Closed-form expected visits to state j before absorption, from i.

    Equals m*(m-i)/(m-j) for j <= i and m*i/j for j > i; matches the
    fundamental-matrix entry of the assembled chain. Both states must be
    transient (1 <= i, j <= m-1); arrays of states broadcast. The products
    are taken in float64, so a large m cannot wrap int64: below 2**53 both
    factors are exact floats, and the product rounds once, as the int64
    product did when it was converted.
    """
    m = _check_threshold(m)
    i, j = _states(i, m, 1, m - 1), _states(j, m, 1, m - 1)
    try:
        shape = np.broadcast_shapes(i.shape, j.shape)
    except ValueError:
        raise ConfigInvalid(f"states of shapes {i.shape} and {j.shape} do not broadcast") from None
    # each branch divides into one output array, only where it applies
    out = np.empty(shape)
    below = np.asarray(j <= i)  # an array also for two 0-d states
    np.divide(float(m) * (m - i), m - j, out=out, where=below)
    np.divide(float(m) * i, j, out=out, where=np.logical_not(below, out=below))
    return _result(out)


def expected_death_time(i, m: int):
    """Expected chain steps to absorption starting from i dead nodes.

    Closed form: m*(m-i) * sum(1/(m-j) for j in 1..i)
               + m*i * sum(1/j for j in i+1..m-1).
    Zero at both absorbing boundaries. ``i`` is one state or an array of
    states. Agrees with the expected-steps vector of the fundamental
    matrix to relative 1e-9 over the tested threshold range. The products
    m*(m-i) and m*i are taken in float64, as in ``expected_visits_closed``.

    Both sums add their terms left to right, as the formula reads (np.sum
    adds pairwise and would change the last bits). The first is one prefix
    sum over every state; the second is summed from j = i+1 up, once per
    distinct state asked for, so the memory held is a few arrays of m floats.
    """
    m = _check_threshold(m)
    states = _states(i, m, 0, m)
    inv = 1.0 / np.arange(1, m)
    below = np.zeros(m + 1)  # below[m] stays 0: its factor m - m is 0
    np.cumsum(inv[::-1], out=below[1:m])
    above = np.zeros(m + 1)
    asked = np.zeros(m + 1, dtype=bool)
    asked[states] = True
    for s in np.flatnonzero(asked[:m - 1]):
        above[s] = np.cumsum(inv[s:])[-1]
    return _result(float(m) * (m - states) * below[states] + float(m) * states * above[states])


def build_matrix(m: int) -> TransitionMatrix:
    """Assemble the (m+1)-state tridiagonal chain for oracle cross-checks.

    States 0 and m are absorbing; the rows come from ``step_probs``. An
    ``m`` whose (m+1)-square float matrix numpy cannot size is refused
    before anything is allocated.
    """
    m = _check_threshold(m)
    if (m + 1) ** 2 > _MAX_ITEMS:
        raise ConfigInvalid(f"a {m + 1}-state matrix is too large for numpy arrays")
    move, stay = step_probs(m)
    probs = np.diag(stay)
    below = np.arange(m)
    probs[below + 1, below] = move[1:]
    probs[below, below + 1] = move[:-1]
    return TransitionMatrix(probs, frozenset({0, m}))
