"""Scenario configuration: one strict JSON document.

The file has up to six sections: network, policy, energy, attack,
detector, run. Every section is optional and falls back to the module
defaults documented below; unknown keys anywhere are an error, so a typo
cannot silently deconfigure an experiment.

Example::

    {
      "network": {"n_deployed": 20, "initial_dead": 1},
      "policy": {"probs": [[0.70, 0.25, 0.05, 0.00],
                           [0.35, 0.50, 0.13, 0.02],
                           [0.00, 0.38, 0.60, 0.02],
                           [0.00, 0.00, 0.00, 1.00]]},
      "energy": {"capacity": 1000.0,
                 "drain": {"sleep": 0.1, "active": 5.0, "inactive": 1.0, "dead": 0.0}},
      "attack": {"kind": "rts_cts_flood", "coverage": 1.0, "sleep_block": 0.9,
                 "extra_drain": 2.0, "start_tick": 0, "end_tick": null},
      "detector": {"source": "monte_carlo", "theta": 0.8, "baseline_runs": 100,
                   "baseline_seed": null, "ticks_per_chain_step": 1.0},
      "run": {"max_ticks": 1000, "seed": 42, "runs": 1, "death_mode": "energy"}
    }

Policy rows are ordered sleep, active, inactive, dead, matching
:class:`sleepwatch.lifecycle.NodeState`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import AttackKind, AttackModel, broadcast_replay, no_attack, rts_cts_flood
from .detect import DEFAULT_THRESHOLD_FACTOR, BaselineSource
from .errors import ConfigInvalid
from .lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    STATE_NAMES,
    default_energy,
    default_policy,
)
from .network import NetworkChainParams
from .simulate import ScenarioConfig

#: Offset applied to the scenario seed when no explicit baseline seed is
#: given, so Monte Carlo calibration never reuses the detection streams.
BASELINE_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class DetectorSettings:
    source: BaselineSource = BaselineSource.ANALYTIC
    theta: float = DEFAULT_THRESHOLD_FACTOR
    ticks_per_chain_step: float = 1.0
    baseline_runs: int = 100
    baseline_seed: int | None = None

    def __post_init__(self) -> None:
        # checked under either source, so a key the source ignores is still sane
        if not 0.0 < self.theta <= 1.0:
            raise ConfigInvalid(f"detector.theta must lie in (0, 1], got {self.theta}")
        if not 0.0 < self.ticks_per_chain_step < math.inf:
            raise ConfigInvalid(
                f"detector.ticks_per_chain_step must be finite and > 0, got {self.ticks_per_chain_step}"
            )
        if self.baseline_runs < 1:
            raise ConfigInvalid(f"detector.baseline_runs must be at least 1, got {self.baseline_runs}")
        seed = self.baseline_seed
        if seed is not None and seed < 0:
            raise ConfigInvalid(f"detector.baseline_seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class ParsedConfig:
    scenario: ScenarioConfig
    detector: DetectorSettings

    @property
    def params(self) -> NetworkChainParams:
        """N, M and the start state, as stored in the scenario."""
        return self.scenario.network


def _section(doc: dict, name: str, allowed: tuple[str, ...]) -> dict:
    part = doc.get(name, {})
    if not isinstance(part, dict):
        raise ConfigInvalid(f"section '{name}' must be an object")
    unknown = set(part) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in section '{name}': {sorted(unknown)}")
    return part


def _require(value, types, path: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigInvalid(f"'{path}' has the wrong type: {value!r}")
    return value


def _get_int(part: dict, key: str, default: int | None, section: str,
             nullable: bool = False) -> int | None:
    value = part.get(key, default)
    if value is None and nullable:
        return None
    return int(_require(value, int, f"{section}.{key}"))


def _get_enum(part: dict, key: str, enum, default, what: str):
    name = part.get(key, default.value)
    try:
        return enum(name)
    except ValueError:
        raise ConfigInvalid(
            f"unknown {what} {name!r}; expected one of {[e.value for e in enum]}"
        ) from None


def _float(value, path: str) -> float:
    try:
        return float(_require(value, (int, float), path))
    except OverflowError:
        raise ConfigInvalid(f"'{path}' is too large for a float") from None


def _get_float(part: dict, key: str, default: float, section: str) -> float:
    if key not in part:
        return default
    return _float(part[key], f"{section}.{key}")


def _parse_policy(part: dict) -> NodePolicy:
    if "probs" not in part:
        return default_policy()
    rows = [
        [_float(value, f"policy.probs[{r}][{c}]") for c, value in
         enumerate(_require(row, list, f"policy.probs[{r}]"))]
        for r, row in enumerate(_require(part["probs"], list, "policy.probs"))
    ]
    if len({len(row) for row in rows}) > 1:
        raise ConfigInvalid("'policy.probs' rows differ in length")
    return NodePolicy(rows)


def _parse_energy(part: dict) -> EnergyModel:
    base = default_energy()
    capacity = _get_float(part, "capacity", base.capacity, "energy")
    drain = np.array(base.drain, copy=True)
    if "drain" in part:
        entries = _require(part["drain"], dict, "energy.drain")
        unknown = set(entries) - set(STATE_NAMES)
        if unknown:
            raise ConfigInvalid(f"unknown state(s) in energy.drain: {sorted(unknown)}")
        for idx, name in enumerate(STATE_NAMES):
            drain[idx] = _get_float(entries, name, drain[idx], "energy.drain")
    return EnergyModel(capacity=capacity, drain=drain)


_ATTACK_DEFAULTS = {
    AttackKind.NO_ATTACK: no_attack,
    AttackKind.RTS_CTS_FLOOD: rts_cts_flood,
    AttackKind.BROADCAST_REPLAY: broadcast_replay,
}


def _parse_attack(part: dict) -> AttackModel:
    kind = _get_enum(part, "kind", AttackKind, AttackKind.NO_ATTACK, "attack kind")
    base = _ATTACK_DEFAULTS[kind]()
    return AttackModel(
        kind=kind,
        coverage=_get_float(part, "coverage", base.coverage, "attack"),
        sleep_block=_get_float(part, "sleep_block", base.sleep_block, "attack"),
        extra_drain=_get_float(part, "extra_drain", base.extra_drain, "attack"),
        start_tick=_get_int(part, "start_tick", base.start_tick, "attack"),
        end_tick=_get_int(part, "end_tick", base.end_tick, "attack", nullable=True),
    )


def parse_config(doc: dict) -> ParsedConfig:
    """Build the scenario, chain params and detector settings from a dict."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    unknown = set(doc) - {"network", "policy", "energy", "attack", "detector", "run"}
    if unknown:
        raise ConfigInvalid(f"unknown top-level section(s): {sorted(unknown)}")

    network_part = _section(doc, "network", ("n_deployed", "initial_dead"))
    policy_part = _section(doc, "policy", ("probs",))
    energy_part = _section(doc, "energy", ("capacity", "drain"))
    attack_part = _section(doc, "attack", ("kind", "coverage", "sleep_block",
                                           "extra_drain", "start_tick", "end_tick"))
    detector_part = _section(doc, "detector", ("source", "theta", "ticks_per_chain_step",
                                               "baseline_runs", "baseline_seed"))
    run = _section(doc, "run", ("max_ticks", "seed", "runs", "death_mode"))

    network = NetworkChainParams(
        n_deployed=_get_int(network_part, "n_deployed", 20, "network"),
        initial_dead=_get_int(network_part, "initial_dead", 1, "network"),
    )

    death_mode = _get_enum(run, "death_mode", DeathMode, DeathMode.ENERGY, "death_mode")
    scenario = ScenarioConfig(
        network=network,
        max_ticks=_get_int(run, "max_ticks", 1000, "run"),
        seed=_get_int(run, "seed", 0, "run"),
        policy=_parse_policy(policy_part),
        energy=_parse_energy(energy_part),
        attack=_parse_attack(attack_part),
        death_mode=death_mode,
        runs=_get_int(run, "runs", 1, "run"),
    )

    detector = DetectorSettings(
        source=_get_enum(detector_part, "source", BaselineSource, BaselineSource.ANALYTIC,
                         "baseline source"),
        theta=_get_float(detector_part, "theta", DEFAULT_THRESHOLD_FACTOR, "detector"),
        ticks_per_chain_step=_get_float(detector_part, "ticks_per_chain_step", 1.0, "detector"),
        baseline_runs=_get_int(detector_part, "baseline_runs", 100, "detector"),
        baseline_seed=_get_int(detector_part, "baseline_seed", None, "detector", nullable=True),
    )
    return ParsedConfig(scenario=scenario, detector=detector)


def _reject_constant(token: str):
    # json.loads accepts NaN/Infinity/-Infinity, which strict JSON does not have
    raise ConfigInvalid(f"non-finite number {token} is not allowed")


def load_config(path: str | Path) -> ParsedConfig:
    """Parse a scenario JSON file."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON: {exc}") from exc
    return parse_config(doc)
