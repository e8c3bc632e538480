"""Exact law of the network death tick in probabilistic-death mode.

Given the attacker's target set, the nodes step independently and a dead
node stays dead, so the network death tick T (the first tick at which
at least M nodes are dead) has P(T <= t) = P(D(t) >= M). The dead count
D(t) is Bin(N - k, F_u(t)) convolved with Bin(k, F_a(t)), where k is
round(coverage * N), half-up, and F(t) is one node's death CDF: the
probability that the 4-state policy, started asleep, has reached DEAD
after t ticks. An attacked node steps with ``transform_policy`` on the
ticks inside the attack window and with the base policy elsewhere.
Binomial probabilities are taken in log space with ``math.lgamma``.
Nothing here is used by the library; ``test_simulate`` compares
``run_many`` with it.
"""

from __future__ import annotations

import math

import numpy as np

from sleepwatch.attack import transform_policy
from sleepwatch.lifecycle import NodeState
from sleepwatch.simulate import ScenarioConfig


def death_cdf(probs: np.ndarray, window_probs: np.ndarray, in_window, max_ticks: int) -> np.ndarray:
    """P(a node is dead after t ticks) for t = 0..max_ticks; ``window_probs`` on window ticks."""
    dist = np.zeros(4)
    dist[NodeState.SLEEP] = 1.0
    cdf = np.zeros(max_ticks + 1)
    for t in range(1, max_ticks + 1):
        dist = dist @ (window_probs if in_window(t) else probs)
        cdf[t] = dist[NodeState.DEAD]
    return cdf


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(Bin(n, p) = j) for j = 0..n, from log-space terms."""
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[0 if p <= 0.0 else n] = 1.0
        return pmf
    log_p, log_q = math.log(p), math.log1p(-p)
    return np.array([
        math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + j * log_p + (n - j) * log_q)
        for j in range(n + 1)
    ])


def death_tick_cdf(config: ScenarioConfig) -> np.ndarray:
    """P(T <= t) for t = 0..max_ticks, in probabilistic-death mode."""
    n, m = config.network.n_deployed, config.network.m_threshold
    attack = config.attack
    k = math.floor(attack.coverage * n + 0.5)  # 0 without an attack, whose coverage is 0
    base = config.policy.probs
    attacked = transform_policy(config.policy, attack).probs
    end = math.inf if attack.end_tick is None else attack.end_tick
    unaffected = death_cdf(base, base, lambda t: False, config.max_ticks)
    affected = death_cdf(base, attacked, lambda t: attack.start_tick <= t <= end, config.max_ticks)
    return np.array([
        np.convolve(binomial_pmf(n - k, fu), binomial_pmf(k, fa))[m:].sum()
        for fu, fa in zip(unaffected.tolist(), affected.tolist())
    ])


def death_tick_mean(cdf: np.ndarray) -> float:
    """Mean of T given T <= max_ticks, from its CDF: ``run_many`` averages the uncensored runs."""
    return float(np.diff(cdf) @ np.arange(1, cdf.size) / cdf[-1])
