"""Plain-Python reference for the dead-count chain's closed forms.

One state at a time, with ``left_to_right`` adding terms one by one,
exactly as the closed forms were first written. The array versions in
:mod:`sleepwatch.network` must reproduce these values bit for bit, so
``test_network`` compares them with ``==``. ``conditional_death_time``
is the expected death time given that the network dies, which the
library does not compute yet; the tests check it against the
fundamental matrix and the chain stepper. ``chain_absorptions`` reads
empirical absorption times off the library's chain stepper, for the
Monte Carlo checks of the death time. Nothing here is used by the
library.
"""

from __future__ import annotations

import numpy as np

from sleepwatch.simulate import simulate_chain_trajectory


def move_prob(i: int, m: int) -> float:
    """Up (and down) probability out of state i: ((m-i)/m) * (i/m)."""
    return ((m - i) / m) * (i / m)


def stay_prob(i: int, m: int) -> float:
    healthy, dead = (m - i) / m, i / m
    return healthy * healthy + dead * dead


def beta(k: int, m: int) -> float:
    """Down/up ratio at state k, with beta(0) = 1."""
    return 1.0 if k == 0 else move_prob(k, m) / move_prob(k, m)


def death_probabilities(m: int) -> list[float]:
    """sum(beta(k) for k < i) / sum(beta(k) for k < m), for every i in 0..m."""
    betas = [beta(k, m) for k in range(m)]
    return [float(sum(betas[:i]) / sum(betas)) for i in range(m + 1)]


def expected_visits(i: int, j: int, m: int) -> float:
    return m * (m - i) / (m - j) if j <= i else m * i / j


def left_to_right(terms) -> float:
    """The terms added one at a time from the first, each sum rounded once.

    From Python 3.12 on, the builtin ``sum`` compensates the rounding of a
    float sum, which changes the last bits of most of these sums.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def expected_death_time(i: int, m: int) -> float:
    if i == 0 or i == m:
        return 0.0
    below = left_to_right(1.0 / (m - j) for j in range(1, i + 1))
    above = left_to_right(1.0 / j for j in range(i + 1, m))
    return m * (m - i) * below + m * i * above


def conditional_death_time(i: int, m: int) -> float:
    """E[T | death, start i] for a transient i: the mean steps of the runs absorbed at m.

    M(M-1-i) + (M(M-i)/i) * sum(j/(M-j) for j in 1..i). At i = 1 it is M(M-1).
    """
    return m * (m - 1 - i) + m * (m - i) / i * sum(j / (m - j) for j in range(1, i + 1))


def chain_absorptions(m: int, initial_dead: int, runs: int, seed: int,
                      max_ticks: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Steps to absorption and absorbing state of ``runs`` unthinned chain runs.

    Run k is ``simulate_chain_trajectory(..., run_index=k)`` at step
    probability 1, so each tick is one chain step. Every run must end at
    0 or m: a run cut off by ``max_ticks`` fails here instead of counting
    as an absorption.
    """
    steps = np.empty(runs, dtype=np.int64)
    absorbed_at = np.empty(runs, dtype=np.int64)
    for k in range(runs):
        view = simulate_chain_trajectory(m, initial_dead, 1.0, seed, max_ticks, run_index=k)
        steps[k], absorbed_at[k] = view.size - 1, view[-1]
    assert np.all((absorbed_at == 0) | (absorbed_at == m)), "chain run not absorbed within max_ticks"
    return steps, absorbed_at
