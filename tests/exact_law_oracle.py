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

In energy-death mode the policy is ``strip_death_transitions`` of the
configured one, and a node dies on the tick its battery reaches 0. Its
law is a forward pass over (live state, battery), the battery counted
in the common unit of the capacity and the per-tick costs (0.1 for the
README drains 0.1/5.0/1.0 and extra drain 2.0, so capacity 300 has 3,001
levels); each tick pays the cost of the row the node was in before it
moves, as the simulator does. The simulator subtracts floats, so a path
that lands exactly on 0 can be left a rounding error above it and die
one tick late; ``late=True`` gives the law in which every such path
does, and the simulated law lies between the two.
The law reads its own model of one node, ``node_model``, built without
the library's ``NodeModel``. Nothing here is used by the library;
``test_simulate`` compares ``run_many`` with the law, and the kernel's
``NodeModel`` with ``node_model``, field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from sleepwatch.attack import transform_policy
from sleepwatch.lifecycle import DeathMode, NodeState, strip_death_transitions
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


def energy_death_cdf(probs: np.ndarray, window_probs: np.ndarray, in_window, max_ticks: int,
                     costs, window_costs, capacity: int, late: bool = False) -> np.ndarray:
    """P(a node is dead after t ticks) in energy mode; battery and costs in whole units.

    ``costs[s]`` is what a tick in live state ``s`` drains, ``window_costs``
    on window ticks. With ``late``, a battery at exactly 0 lives one more tick.
    """
    live = [NodeState.SLEEP, NodeState.ACTIVE, NodeState.INACTIVE]
    dist = np.zeros((len(live), capacity + 1))  # by live state and battery level
    dist[NodeState.SLEEP, capacity] = 1.0
    cdf = np.zeros(max_ticks + 1)
    for t in range(1, max_ticks + 1):
        rows, cost = (window_probs, window_costs) if in_window(t) else (probs, costs)
        moved = np.zeros_like(dist)
        died = 0.0
        for s in live:
            first = cost[s] if late else cost[s] + 1  # lowest level that survives the tick
            died += dist[s, :first].sum()
            moved[:, first - cost[s]:capacity + 1 - cost[s]] += np.outer(rows[s, live], dist[s, first:])
        dist = moved
        cdf[t] = cdf[t - 1] + died
    return cdf


def _in_units(values) -> list[int]:
    """``values`` as whole multiples of their common decimal unit."""
    exact = [Fraction(repr(float(v))) for v in values]
    unit = Fraction(1, math.lcm(*(f.denominator for f in exact)))
    return [int(f / unit) for f in exact]


@dataclass(frozen=True)
class OracleNode:
    """The oracle's own model of one node, built without the library's ``NodeModel``.

    ``rows`` stacks the plain policy (the configured one, or in energy mode
    ``strip_death_transitions`` of it) over ``transform_policy`` of it;
    ``costs`` is each row's drain per tick, an attacked awake node paying the
    extra drain too; ``k`` nodes are attacked; ``in_window(t)`` says whether
    the attack is on at tick ``t`` of the ``max_ticks`` simulated.
    """

    rows: np.ndarray
    costs: list[float]
    k: int
    in_window: Callable[[int], bool]
    energy: bool


def node_model(config: ScenarioConfig) -> OracleNode:
    """The oracle's model of one node under ``config``."""
    attack = config.attack
    energy = config.death_mode is DeathMode.ENERGY
    policy = strip_death_transitions(config.policy) if energy else config.policy
    drain = config.energy.drain.tolist()
    awake = [d + attack.extra_drain * (s != NodeState.SLEEP) for s, d in enumerate(drain)]
    end = config.max_ticks if attack.end_tick is None else min(attack.end_tick, config.max_ticks)
    return OracleNode(
        rows=np.vstack((policy.probs, transform_policy(policy, attack).probs)),
        costs=drain + awake,
        k=math.floor(attack.coverage * config.network.n_deployed + 0.5),  # 0 without an attack
        in_window=lambda t: attack.start_tick <= t <= end,
        energy=energy,
    )


def death_tick_cdf(config: ScenarioConfig, late: bool = False) -> np.ndarray:
    """P(T <= t) for t = 0..max_ticks; ``late`` only matters in energy mode."""
    n, m = config.network.n_deployed, config.network.m_threshold
    node = node_model(config)
    k, base, attacked, window = node.k, node.rows[:4], node.rows[4:], node.in_window
    if node.energy:
        live = range(NodeState.DEAD)
        capacity, *drain, extra = _in_units([config.energy.capacity, *config.energy.drain[live],
                                             config.attack.extra_drain])
        awake = [drain[s] + extra * (s != NodeState.SLEEP) for s in live]  # an attacked node's costs
        unaffected = energy_death_cdf(base, base, lambda t: False, config.max_ticks,
                                      drain, drain, capacity, late)
        affected = energy_death_cdf(base, attacked, window, config.max_ticks,
                                    drain, awake, capacity, late)
    else:
        unaffected = death_cdf(base, base, lambda t: False, config.max_ticks)
        affected = death_cdf(base, attacked, window, config.max_ticks)
    return np.array([
        np.convolve(binomial_pmf(n - k, fu), binomial_pmf(k, fa))[m:].sum()
        for fu, fa in zip(unaffected.tolist(), affected.tolist())
    ])


def death_tick_mean(cdf: np.ndarray) -> float:
    """Mean of T given T <= max_ticks, from its CDF: ``run_many`` averages the uncensored runs."""
    return float(np.diff(cdf) @ np.arange(1, cdf.size) / cdf[-1])
