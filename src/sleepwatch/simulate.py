"""Discrete-time simulation of a deployment under policy, energy and attack.

``run_one`` steps N nodes tick by tick and records the dead-count
trajectory until the dead count reaches the death threshold M or the
tick budget runs out. Every run is a pure function of (config, run_index):
the attacker's target set and the node stepping each draw from their own
PCG64 substreams (see :mod:`sleepwatch.rng`), so traces are byte-stable
across platforms and a no-op attack cannot shift any draw.

Tick ordering is fixed: transform policy, draw next states, pay drain,
apply battery deaths, record. Dead-count monotonicity and node-count
conservation are checked inside the loop (InvariantViolated), also under
``python -O``.

``simulate_chain_trajectory`` runs the (M+1)-state dead-count chain
itself instead of individual nodes. The node-level death process is not
that chain (dead nodes never revive), so the chain mode exists to check
the closed-form death times and the online detector in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackKind, AttackModel, affected_set, no_attack, transform_policy
from .errors import ConfigInvalid, InvariantViolated
from .lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    strip_death_transitions,
    validate_policy,
)
from .network import NetworkChainParams, step_probs
from .rng import AFFECTED_STREAM, CHAIN_STREAM, STEP_STREAM, substream

DEAD = int(NodeState.DEAD)
SLEEP = int(NodeState.SLEEP)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation experiment.

    N and M come from ``network`` and are stored nowhere else. Every run
    starts with all N nodes asleep; ``network.initial_dead`` is the chain
    start state of the detector's baseline and is not simulated. No
    attacker is ``no_attack()``, the default.
    """

    network: NetworkChainParams
    max_ticks: int
    seed: int
    policy: NodePolicy
    energy: EnergyModel
    attack: AttackModel = field(default_factory=no_attack)
    death_mode: DeathMode = DeathMode.ENERGY
    runs: int = 1

    def __post_init__(self) -> None:
        if self.max_ticks < 1:
            raise ConfigInvalid(f"max_ticks must be at least 1, got {self.max_ticks}")
        if self.runs < 1:
            raise ConfigInvalid(f"runs must be at least 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed}")
        if not isinstance(self.attack, AttackModel):
            raise ConfigInvalid(f"attack must be an AttackModel, got {self.attack!r}")
        validate_policy(self.policy)


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
    death_ticks: tuple[int | None, ...]
    censored_count: int
    mean_death_tick: float | None
    std_death_tick: float | None
    traces: tuple[SimulationTrace, ...] = field(repr=False, default=())


def run_one(config: ScenarioConfig, run_index: int = 0) -> SimulationTrace:
    """Simulate one run; fully determined by (config.seed, run_index)."""
    if not 0 <= run_index < config.runs:
        raise ConfigInvalid(f"run_index {run_index} outside [0, {config.runs})")
    n, m = config.network.n_deployed, config.network.m_threshold
    attack = config.attack

    base = config.policy
    if config.death_mode is DeathMode.ENERGY:
        base = strip_death_transitions(base)
    # rows 0..3: cumulative base policy, rows 4..7: the attacked policy
    cum = np.cumsum(np.vstack((base.probs, transform_policy(base, attack).probs)), axis=1)

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
            u = rng.random(live.size)
            nxt = np.minimum((u[:, None] >= cum[current + 4 * under_attack]).sum(axis=1), DEAD)
            cost = drain[current] + attack.extra_drain * (under_attack & (current != SLEEP))
            batteries[live] -= cost
            states[live] = nxt
            if config.death_mode is DeathMode.ENERGY:
                states[live[batteries[live] <= 0.0]] = DEAD

        counts = np.bincount(states, minlength=4)
        dead = int(counts[DEAD])
        if dead < prev_dead:
            raise InvariantViolated(f"dead count fell from {prev_dead} to {dead} at tick {tick}")
        if int(counts.sum()) != n:
            raise InvariantViolated(f"{int(counts.sum())} nodes counted at tick {tick}, {n} deployed")
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

    return SimulationTrace(tuple(records), death_tick, m, n, run_index)


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
        death_ticks=death_ticks,
        censored_count=len(death_ticks) - len(observed),
        mean_death_tick=mean,
        std_death_tick=std,
        traces=traces,
    )


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
    if max_ticks < 0:
        raise ConfigInvalid(f"max_ticks must be non-negative, got {max_ticks}")
    move = step_probs(m)[0]
    rng = substream(seed, run_index, CHAIN_STREAM)
    view = np.empty(max_ticks + 1, dtype=np.int64)
    view[0] = i = initial_dead
    tick = 0
    while 0 < i < m and tick < max_ticks:
        tick += 1
        if rng.random() < step_prob:
            u = rng.random()
            if u < move[i]:
                i += 1
            elif u < 2.0 * move[i]:
                i -= 1
        view[tick] = i
    return view[: tick + 1]
