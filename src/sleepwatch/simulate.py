"""Discrete-time simulation of a deployment under policy, energy and attack.

``run_one`` steps N nodes tick by tick and records the dead-count
trajectory until the dead count reaches the death threshold M or the
tick budget runs out. Every run is a pure function of (config, run_index):
the attacker's target set and the node stepping each draw from their own
PCG64 substreams (see :mod:`sleepwatch.rng`), so traces are byte-stable
across platforms and a no-op attack cannot shift any draw.

Tick ordering is fixed: transform policy, draw next states, pay drain,
apply battery deaths, record. Dead-count monotonicity and node-count
conservation are asserted inside the loop.

``simulate_chain`` runs the (M+1)-state dead-count chain itself instead
of individual nodes. The node-level death process is not that chain (dead
nodes never revive), so the chain mode exists to check the closed-form
death times against empirical absorption times in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackKind, AttackModel, affected_set, no_attack, transform_policy
from .errors import ConfigInvalid
from .lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    strip_death_transitions,
    validate_policy,
)
from .network import step_probs, threshold_from_deployed
from .rng import AFFECTED_STREAM, CHAIN_STREAM, STEP_STREAM, substream

DEAD = int(NodeState.DEAD)
SLEEP = int(NodeState.SLEEP)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation experiment."""

    n_deployed: int
    max_ticks: int
    seed: int
    policy: NodePolicy
    energy: EnergyModel
    attack: AttackModel | None = None
    death_mode: DeathMode = DeathMode.ENERGY
    runs: int = 1
    m_override: int | None = None  # death threshold override, for sweeps only

    def __post_init__(self) -> None:
        if self.n_deployed < 2:
            raise ConfigInvalid(f"n_deployed must be at least 2, got {self.n_deployed}")
        if self.max_ticks < 1:
            raise ConfigInvalid(f"max_ticks must be at least 1, got {self.max_ticks}")
        if self.runs < 1:
            raise ConfigInvalid(f"runs must be at least 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed}")
        validate_policy(self.policy)
        if self.m_override is not None and not 2 <= self.m_override <= self.n_deployed:
            raise ConfigInvalid(
                f"m_override {self.m_override} outside [2, {self.n_deployed}]"
            )

    @property
    def m_threshold(self) -> int:
        if self.m_override is not None:
            return self.m_override
        return threshold_from_deployed(self.n_deployed)


@dataclass(frozen=True)
class TickRecord:
    tick: int
    dead: int
    sleep: int
    active: int
    inactive: int
    battery: float


@dataclass(frozen=True)
class SimulationTrace:
    """Per-tick state counts plus the death tick, if reached."""

    per_tick: tuple[TickRecord, ...]
    network_death_tick: int | None
    m_threshold: int
    n_deployed: int
    seed: int
    run_index: int

    @property
    def elapsed_ticks(self) -> int:
        return self.per_tick[-1].tick if self.per_tick else 0


@dataclass(frozen=True)
class RunSummary:
    """Aggregate over the runs of one scenario.

    Censored runs (no network death within max_ticks) are excluded from
    the mean and standard deviation; ``mean_death_tick`` is None when
    every run was censored, ``std_death_tick`` needs at least two
    uncensored runs.
    """

    runs: int
    max_ticks: int
    m_threshold: int
    n_deployed: int
    seed: int
    death_ticks: tuple[int | None, ...]
    censored_count: int
    mean_death_tick: float | None
    std_death_tick: float | None
    traces: tuple[SimulationTrace, ...] = field(repr=False, default=())


def run_one(config: ScenarioConfig, run_index: int = 0) -> SimulationTrace:
    """Simulate one run; fully determined by (config.seed, run_index)."""
    if not 0 <= run_index < config.runs:
        raise ConfigInvalid(f"run_index {run_index} outside [0, {config.runs})")
    n = config.n_deployed
    m = config.m_threshold
    attack = config.attack if config.attack is not None else no_attack()

    base = config.policy
    if config.death_mode is DeathMode.ENERGY:
        base = strip_death_transitions(base)
    base_cum = np.cumsum(base.probs, axis=1)
    attacked_cum = np.cumsum(transform_policy(base, attack).probs, axis=1)

    affected = np.zeros(n, dtype=bool)
    if attack.kind is not AttackKind.NO_ATTACK:
        ids = affected_set(attack, n, substream(config.seed, run_index, AFFECTED_STREAM))
        if ids:
            affected[np.fromiter(ids, dtype=np.int64)] = True

    rng = substream(config.seed, run_index, STEP_STREAM)
    drain = config.energy.drain
    states = np.full(n, SLEEP, dtype=np.int64)
    batteries = np.full(n, config.energy.capacity, dtype=float)

    records = [TickRecord(0, 0, n, 0, 0, float(batteries.sum()))]
    death_tick: int | None = None
    prev_dead = 0

    for tick in range(1, config.max_ticks + 1):
        live = np.flatnonzero(states != DEAD)
        if live.size:
            current = states[live]
            under_attack = affected[live] & attack.in_window(tick)
            rows = np.where(under_attack[:, None], attacked_cum[current], base_cum[current])
            u = rng.random(live.size)
            nxt = np.minimum((u[:, None] >= rows).sum(axis=1), DEAD)
            cost = drain[current] + attack.extra_drain * (under_attack & (current != SLEEP))
            batteries[live] -= cost
            states[live] = nxt
            if config.death_mode is DeathMode.ENERGY:
                states[live[batteries[live] <= 0.0]] = DEAD

        counts = np.bincount(states, minlength=4)
        dead = int(counts[DEAD])
        assert dead >= prev_dead, "dead count must never decrease"
        assert int(counts.sum()) == n, "node count must be conserved"
        prev_dead = dead
        records.append(
            TickRecord(
                tick,
                dead,
                int(counts[SLEEP]),
                int(counts[NodeState.ACTIVE]),
                int(counts[NodeState.INACTIVE]),
                float(batteries.sum()),
            )
        )
        if dead >= m:
            death_tick = tick
            break

    return SimulationTrace(tuple(records), death_tick, m, n, config.seed, run_index)


def run_many(config: ScenarioConfig) -> RunSummary:
    """Run all configured replications and summarize their death ticks."""
    traces = tuple(run_one(config, k) for k in range(config.runs))
    death_ticks = tuple(t.network_death_tick for t in traces)
    observed = [t for t in death_ticks if t is not None]
    mean = float(np.mean(observed)) if observed else None
    std = float(np.std(observed, ddof=1)) if len(observed) >= 2 else None
    return RunSummary(
        runs=config.runs,
        max_ticks=config.max_ticks,
        m_threshold=config.m_threshold,
        n_deployed=config.n_deployed,
        seed=config.seed,
        death_ticks=death_ticks,
        censored_count=len(death_ticks) - len(observed),
        mean_death_tick=mean,
        std_death_tick=std,
        traces=traces,
    )


def dead_count_chain_view(trace: SimulationTrace) -> np.ndarray:
    """Per-tick dead counts clamped to [0, M], for the detector's estimators."""
    dead = np.array([rec.dead for rec in trace.per_tick], dtype=np.int64)
    return np.minimum(dead, trace.m_threshold)


@dataclass(frozen=True)
class ChainSimResult:
    """Absorption outcomes of direct dead-count-chain simulation."""

    steps: np.ndarray          # chain steps until absorption, per run
    absorbed_at: np.ndarray    # 0 or m, per run
    m_threshold: int
    initial_dead: int


def simulate_chain(
    m: int,
    initial_dead: int,
    runs: int,
    seed: int,
    max_steps: int = 5_000_000,
) -> ChainSimResult:
    """Simulate the dead-count chain directly until absorption.

    All runs advance in lockstep from one shared substream; each live run
    consumes one uniform per step. Raises ConfigInvalid if any run is
    still unabsorbed after ``max_steps`` steps (absorption is almost
    sure, so hitting the cap indicates a misconfigured chain).
    """
    if not 0 <= initial_dead <= m or m < 2:
        raise ConfigInvalid(f"initial_dead {initial_dead} outside [0, {m}] or m < 2")
    if runs < 1:
        raise ConfigInvalid(f"runs must be at least 1, got {runs}")
    move = step_probs(m)[0]
    rng = substream(seed, 0, CHAIN_STREAM)
    state = np.full(runs, initial_dead, dtype=np.int64)
    steps = np.zeros(runs, dtype=np.int64)
    alive = (state != 0) & (state != m)
    taken = 0
    while alive.any():
        taken += 1
        if taken > max_steps:
            raise ConfigInvalid(f"chain not absorbed after {max_steps} steps")
        idx = np.flatnonzero(alive)
        s = state[idx]
        u = rng.random(idx.size)
        delta = np.where(u < move[s], 1, np.where(u < 2.0 * move[s], -1, 0))
        state[idx] = s + delta
        steps[idx] += 1
        absorbed = (state[idx] == 0) | (state[idx] == m)
        alive[idx[absorbed]] = False
    return ChainSimResult(steps=steps, absorbed_at=state, m_threshold=m, initial_dead=initial_dead)


def simulate_chain_trajectory(
    m: int,
    initial_dead: int,
    step_prob: float,
    seed: int,
    max_ticks: int,
    run_index: int = 0,
) -> np.ndarray:
    """Tick-indexed dead-count view of a thinned chain run.

    Each tick performs one chain step with probability ``step_prob`` and
    otherwise dwells, so ``step_prob`` is the chain-steps-per-tick rate
    the online detector is expected to recover. The trajectory starts at
    tick 0 and stops at absorption or after ``max_ticks`` ticks.
    """
    if not 0.0 < step_prob <= 1.0:
        raise ConfigInvalid(f"step_prob must lie in (0, 1], got {step_prob}")
    if not 0 <= initial_dead <= m or m < 2:
        raise ConfigInvalid(f"initial_dead {initial_dead} outside [0, {m}] or m < 2")
    move = step_probs(m)[0]
    rng = substream(seed, run_index, CHAIN_STREAM)
    view = np.empty(max_ticks + 1, dtype=np.int64)
    view[0] = initial_dead
    i = initial_dead
    if i == 0 or i == m:
        return view[:1]
    end = max_ticks
    for tick in range(1, max_ticks + 1):
        if 0 < i < m and rng.random() < step_prob:
            u = rng.random()
            if u < move[i]:
                i += 1
            elif u < 2.0 * move[i]:
                i -= 1
        view[tick] = i
        if i == 0 or i == m:
            end = tick
            break
    return view[: end + 1]
