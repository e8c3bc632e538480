"""Scalar reference oracle for the vectorized simulator.

``step_node`` advances one node by one tick and ``attack_drain`` gives the
extra drain the attacker puts on one node; ``scalar_run`` loops them over
a deployment, node by node in id order, and is compared draw for draw
against :func:`sleepwatch.simulate.run_one`. Nothing here is used by the
library: it exists so that the one stepping kernel has an independent
implementation to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from sleepwatch.attack import AttackKind, AttackModel, affected_set, no_attack, transform_policy
from sleepwatch.lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    strip_death_transitions,
)
from sleepwatch.rng import AFFECTED_STREAM, STEP_STREAM, substream
from sleepwatch.simulate import ScenarioConfig

#: drain + x * AWAKE is the drain schedule of a node receiving x extra units
#: per tick while awake; the attacker does not reach sleeping or dead nodes.
AWAKE = np.array([0.0, 1.0, 1.0, 0.0])


@dataclass(frozen=True)
class Node:
    id: int
    state: NodeState
    battery: float


def _draw(row_cum: np.ndarray, u: float) -> int:
    # index of the first cumulative bin exceeding u, clipped for fp slack
    return min(int(np.searchsorted(row_cum, u, side="right")), 3)


def step_node(
    node: Node,
    policy: NodePolicy,
    energy: EnergyModel,
    rng: np.random.Generator,
    mode: DeathMode = DeathMode.ENERGY,
) -> Node:
    """Advance one node by one tick and return the new node value.

    Dead nodes are returned unchanged and consume no randomness. A live
    node draws its next state from the policy row of its current state,
    then pays the drain of the state it occupied this tick. In energy
    mode a battery at or below zero overrides the draw with Dead.
    """
    if node.state is NodeState.DEAD:
        return node
    u = rng.random()
    nxt = NodeState(_draw(np.cumsum(policy.probs[node.state]), u))
    battery = node.battery - float(energy.drain[node.state])
    if mode is DeathMode.ENERGY and battery <= 0.0:
        nxt = NodeState.DEAD
    return replace(node, state=nxt, battery=battery)


def attack_drain(model: AttackModel, node_state: NodeState, tick: int, affected: bool) -> float:
    """Extra per-tick battery drain on one node.

    Nonzero only for an affected node, inside the attack window, that is
    neither Dead nor asleep (a node that did manage to sleep is not
    receiving attack traffic).
    """
    if not affected or not model.in_window(tick):
        return 0.0
    if node_state is NodeState.DEAD or node_state is NodeState.SLEEP:
        return 0.0
    return model.extra_drain


def scalar_run(config: ScenarioConfig, run_index: int = 0) -> tuple[list[tuple], int | None]:
    """Per-tick ``(tick, dead, sleep, active, inactive, battery)`` rows and the death tick.

    Draws from the same ``(seed, run_index, ...)`` substreams as ``run_one``:
    one uniform per live node per tick, in node id order.
    """
    attack = config.attack if config.attack is not None else no_attack()
    base = config.policy
    if config.death_mode is DeathMode.ENERGY:
        base = strip_death_transitions(base)
    attacked = transform_policy(base, attack)
    affected: frozenset[int] = frozenset()
    if attack.kind is not AttackKind.NO_ATTACK:
        affected = affected_set(attack, config.n_deployed,
                                substream(config.seed, run_index, AFFECTED_STREAM))

    def row(nodes: list[Node], tick: int) -> tuple:
        states = [node.state for node in nodes]
        battery = float(np.sum(np.array([node.battery for node in nodes])))
        return (tick, states.count(NodeState.DEAD), states.count(NodeState.SLEEP),
                states.count(NodeState.ACTIVE), states.count(NodeState.INACTIVE), battery)

    rng = substream(config.seed, run_index, STEP_STREAM)
    nodes = [Node(k, NodeState.SLEEP, config.energy.capacity) for k in range(config.n_deployed)]
    rows = [row(nodes, 0)]
    for tick in range(1, config.max_ticks + 1):
        stepped = []
        for node in nodes:
            reached = node.id in affected
            policy = attacked if reached and attack.in_window(tick) else base
            extra = attack_drain(attack, node.state, tick, reached)
            energy = EnergyModel(config.energy.capacity, config.energy.drain + extra * AWAKE)
            stepped.append(step_node(node, policy, energy, rng, config.death_mode))
        nodes = stepped
        rows.append(row(nodes, tick))
        if rows[-1][1] >= config.m_threshold:
            return rows, tick
    return rows, None
