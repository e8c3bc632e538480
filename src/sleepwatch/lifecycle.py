"""Per-node four-state lifecycle and battery model.

A node is always in one of Sleep, Active, Inactive, or Dead. Allowed
moves: Sleep to {Sleep, Active, Inactive}, Active to anywhere, Inactive
to {Inactive, Active, Dead}, Dead only to Dead. Self-loops are allowed in
every live state; a policy row is a full distribution, not just a
reachability list.

Two death modes exist and are reconciled at the scenario level:

- probabilistic death: the policy's Dead column drives death; used for
  the analytic lifetime checks (the policy is literally an absorbing
  chain over 4 states).
- energy death: the Dead column is stripped and renormalized, and a node
  dies exactly when its battery hits zero; used for attack simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from . import chain
from .errors import ConfigInvalid, ForbiddenTransition, NotStochastic, require_array, require_real


class NodeState(IntEnum):
    SLEEP = 0
    ACTIVE = 1
    INACTIVE = 2
    DEAD = 3


class DeathMode(Enum):
    PROBABILISTIC = "probabilistic"
    ENERGY = "energy"


#: allowed[s, d] is True when a node may move from state s to state d.
ALLOWED = np.array(
    [
        [True, True, True, False],   # Sleep
        [True, True, True, True],    # Active
        [False, True, True, True],   # Inactive
        [False, False, False, True], # Dead
    ]
)

STATE_NAMES = ("sleep", "active", "inactive", "dead")


@dataclass(frozen=True)
class NodePolicy:
    """4x4 row-stochastic matrix over NodeState, row = current state.

    Construction refuses a policy that is not row-stochastic
    (NotStochastic) or that puts mass on a structurally forbidden move
    (ForbiddenTransition), including a non-identity Dead row.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = require_array("policy", self.probs, reals=True)
        if p.shape != (4, 4):
            raise NotStochastic(f"policy must be 4x4, got shape {p.shape}")
        chain.check_rows(p, "policy entries", lambda row, total: f"{NodeState(row).name} row sums to {total}")
        violations = (p != 0.0) & ~ALLOWED
        if violations.any():
            src, dst = np.argwhere(violations)[0]
            raise ForbiddenTransition(
                f"{NodeState(int(src)).name} -> {NodeState(int(dst)).name} must be 0, "
                f"got {float(p[src, dst])}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class EnergyModel:
    """Battery capacity and per-tick drain for each state.

    drain is indexed by NodeState. Active drain must dominate Inactive,
    which must dominate Sleep; Dead drains nothing; all values are finite.
    """

    capacity: float
    drain: np.ndarray

    def __post_init__(self) -> None:
        d = require_array("drain", self.drain, reals=True)
        if d.shape != (4,):
            raise ConfigInvalid(f"drain must have one entry per state, got shape {d.shape}")
        capacity = require_real("battery capacity", self.capacity)
        if not 0.0 < capacity < math.inf:
            raise ConfigInvalid(f"battery capacity must be positive and finite, got {capacity}")
        if d[NodeState.DEAD] != 0.0:
            raise ConfigInvalid("dead nodes must not drain battery")
        if not (math.inf > d[NodeState.ACTIVE] >= d[NodeState.INACTIVE] >= d[NodeState.SLEEP] >= 0.0):
            raise ConfigInvalid("drain must be finite, ordered active >= inactive >= sleep >= 0")
        d.setflags(write=False)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "drain", d)


def default_policy() -> NodePolicy:
    """Heavy sleep duty cycle with small death leakage from Active/Inactive."""
    return NodePolicy(
        [
            [0.70, 0.25, 0.05, 0.00],
            [0.35, 0.50, 0.13, 0.02],
            [0.00, 0.38, 0.60, 0.02],
            [0.00, 0.00, 0.00, 1.00],
        ]
    )


def default_energy() -> EnergyModel:
    """Capacity 1000 units; drain 0.1 / 5.0 / 1.0 per tick for sleep / active / inactive."""
    return EnergyModel(capacity=1000.0, drain=np.array([0.1, 5.0, 1.0, 0.0]))


def strip_death_transitions(policy: NodePolicy) -> NodePolicy:
    """Zero the Dead column of live rows and renormalize (energy-death mode)."""
    p = np.array(policy.probs, copy=True)
    live = [NodeState.SLEEP, NodeState.ACTIVE, NodeState.INACTIVE]
    for s in live:
        p[s, NodeState.DEAD] = 0.0
        total = p[s].sum()
        if total <= 0.0:
            raise ConfigInvalid(f"{s.name} row has no live mass to renormalize")
        p[s] /= total
    return NodePolicy(p)


def expected_node_lifetime(policy: NodePolicy, start: NodeState = NodeState.SLEEP) -> float:
    """Expected ticks until death under probabilistic-death semantics.

    Treats the policy as a 4-state absorbing chain and reads the
    expected-steps entry for ``start``. Raises NoAbsorptionPath when Dead
    is unreachable from some live state.
    """
    if start is NodeState.DEAD:
        return 0.0
    analysis = chain.analyze(chain.TransitionMatrix(policy.probs, frozenset({int(NodeState.DEAD)})))
    return float(analysis.expected_steps[analysis.transient_order.index(int(start))])

