"""Denial-of-sleep attack models.

An attack keeps nodes out of the Sleep state and burns extra battery on
the nodes it reaches. Radio range is abstracted to a coverage fraction:
the affected set is a seed-stable random subset of the deployment, drawn
once per scenario. The two concrete mechanisms differ only in their
default intensities:

- handshake flooding (forced control-packet responses): sleep_block 0.9,
  extra drain 2.0 per tick;
- replayed broadcast traffic: sleep_block 0.6, extra drain 1.0 per tick.

A blocked sleep attempt turns into radio activity, so the probability
mass removed from Sleep destinations lands on Active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigInvalid
from .lifecycle import NodePolicy, NodeState, validate_policy


class AttackKind(Enum):
    NO_ATTACK = "none"
    RTS_CTS_FLOOD = "rts_cts_flood"
    BROADCAST_REPLAY = "broadcast_replay"


@dataclass(frozen=True)
class AttackModel:
    """Attack mechanism plus its reach, intensity, and active window.

    coverage: fraction of nodes within attacker radio range.
    sleep_block: per-tick probability that a sleep attempt is prevented.
    extra_drain: additional battery units per tick on affected awake nodes.
    start_tick/end_tick: inclusive active window (end_tick None = forever).
    """

    kind: AttackKind
    coverage: float = 0.0
    sleep_block: float = 0.0
    extra_drain: float = 0.0
    start_tick: int = 0
    end_tick: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigInvalid(f"coverage must lie in [0, 1], got {self.coverage}")
        if not 0.0 <= self.sleep_block <= 1.0:
            raise ConfigInvalid(f"sleep_block must lie in [0, 1], got {self.sleep_block}")
        if not 0.0 <= self.extra_drain < math.inf:
            raise ConfigInvalid(f"extra_drain must be non-negative and finite, got {self.extra_drain}")
        if self.end_tick is not None and self.start_tick > self.end_tick:
            raise ConfigInvalid(
                f"attack window is empty: start {self.start_tick} > end {self.end_tick}"
            )
        if self.kind is AttackKind.NO_ATTACK and (
            self.coverage or self.sleep_block or self.extra_drain
        ):
            raise ConfigInvalid("a no-attack model must have zero coverage, sleep_block and extra_drain")

    def in_window(self, tick: int) -> bool:
        return tick >= self.start_tick and (self.end_tick is None or tick <= self.end_tick)


def no_attack() -> AttackModel:
    return AttackModel(kind=AttackKind.NO_ATTACK)


def rts_cts_flood(
    coverage: float = 1.0,
    sleep_block: float = 0.9,
    extra_drain: float = 2.0,
    start_tick: int = 0,
    end_tick: int | None = None,
) -> AttackModel:
    return AttackModel(AttackKind.RTS_CTS_FLOOD, coverage, sleep_block, extra_drain, start_tick, end_tick)


def broadcast_replay(
    coverage: float = 1.0,
    sleep_block: float = 0.6,
    extra_drain: float = 1.0,
    start_tick: int = 0,
    end_tick: int | None = None,
) -> AttackModel:
    return AttackModel(AttackKind.BROADCAST_REPLAY, coverage, sleep_block, extra_drain, start_tick, end_tick)


def affected_set(model: AttackModel, node_count: int, rng: np.random.Generator) -> frozenset[int]:
    """Seed-stable subset of node ids within attacker range.

    Size is round(coverage * node_count), half-up. A no-attack model
    yields the empty set without consuming any randomness, which keeps
    traces bit-identical to runs with no attacker at all.
    """
    if node_count < 1:
        raise ConfigInvalid(f"node_count must be at least 1, got {node_count}")
    if model.kind is AttackKind.NO_ATTACK:
        return frozenset()
    size = int(math.floor(model.coverage * node_count + 0.5))
    return frozenset(int(i) for i in rng.permutation(node_count)[:size])


def transform_policy(policy: NodePolicy, model: AttackModel) -> NodePolicy:
    """Policy seen by an affected node while the attack window is open.

    Each row's Sleep-destination mass (including the Sleep dwell) is
    scaled by (1 - sleep_block); the removed mass is added to that row's
    Active destination. Rows stay stochastic and structural zeros stay
    zero; the result is revalidated, so a violation is a program error.
    """
    if model.sleep_block == 0.0:
        return policy
    p = np.array(policy.probs, copy=True)
    moved = p[:, NodeState.SLEEP] * model.sleep_block
    p[:, NodeState.SLEEP] -= moved
    p[:, NodeState.ACTIVE] += moved
    return validate_policy(NodePolicy(p))

