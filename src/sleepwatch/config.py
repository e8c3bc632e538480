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
    validate_policy,
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


@dataclass(frozen=True)
class ParsedConfig:
    scenario: ScenarioConfig
    params: NetworkChainParams
    detector: DetectorSettings


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


def _get_int(part: dict, key: str, default: int, section: str) -> int:
    if key not in part:
        return default
    return int(_require(part[key], int, f"{section}.{key}"))

def _get_float(part: dict, key: str, default: float, section: str) -> float:
    if key not in part:
        return default
    try:
        return float(_require(part[key], (int, float), f"{section}.{key}"))
    except OverflowError:
        raise ConfigInvalid(f"'{section}.{key}' is too large for a float") from None


def _parse_policy(part: dict) -> NodePolicy:
    if "probs" not in part:
        return default_policy()
    rows = _require(part["probs"], list, "policy.probs")
    return validate_policy(NodePolicy(np.array(rows, dtype=float)))


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
    kind_name = part.get("kind", "none")
    try:
        kind = AttackKind(kind_name)
    except ValueError:
        raise ConfigInvalid(
            f"unknown attack kind {kind_name!r}; expected one of "
            f"{[k.value for k in AttackKind]}"
        ) from None
    base = _ATTACK_DEFAULTS[kind]()
    end_tick = part.get("end_tick", base.end_tick)
    if end_tick is not None:
        end_tick = int(_require(end_tick, int, "attack.end_tick"))
    return AttackModel(
        kind=kind,
        coverage=_get_float(part, "coverage", base.coverage, "attack"),
        sleep_block=_get_float(part, "sleep_block", base.sleep_block, "attack"),
        extra_drain=_get_float(part, "extra_drain", base.extra_drain, "attack"),
        start_tick=_get_int(part, "start_tick", base.start_tick, "attack"),
        end_tick=end_tick,
    )


def parse_config(doc: dict) -> ParsedConfig:
    """Build the scenario, chain params and detector settings from a dict."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    unknown = set(doc) - {"network", "policy", "energy", "attack", "detector", "run"}
    if unknown:
        raise ConfigInvalid(f"unknown top-level section(s): {sorted(unknown)}")

    network = _section(doc, "network", ("n_deployed", "initial_dead"))
    policy_part = _section(doc, "policy", ("probs",))
    energy_part = _section(doc, "energy", ("capacity", "drain"))
    attack_part = _section(doc, "attack", ("kind", "coverage", "sleep_block",
                                           "extra_drain", "start_tick", "end_tick"))
    detector_part = _section(doc, "detector", ("source", "theta", "ticks_per_chain_step",
                                               "baseline_runs", "baseline_seed"))
    run = _section(doc, "run", ("max_ticks", "seed", "runs", "death_mode"))

    n_deployed = _get_int(network, "n_deployed", 20, "network")
    params = NetworkChainParams(
        n_deployed=n_deployed,
        initial_dead=_get_int(network, "initial_dead", 1, "network"),
    )

    death_mode_name = run.get("death_mode", DeathMode.ENERGY.value)
    try:
        death_mode = DeathMode(death_mode_name)
    except ValueError:
        raise ConfigInvalid(
            f"unknown death_mode {death_mode_name!r}; expected one of "
            f"{[m.value for m in DeathMode]}"
        ) from None

    scenario = ScenarioConfig(
        n_deployed=n_deployed,
        max_ticks=_get_int(run, "max_ticks", 1000, "run"),
        seed=_get_int(run, "seed", 0, "run"),
        policy=_parse_policy(policy_part),
        energy=_parse_energy(energy_part),
        attack=_parse_attack(attack_part),
        death_mode=death_mode,
        runs=_get_int(run, "runs", 1, "run"),
    )

    source_name = detector_part.get("source", BaselineSource.ANALYTIC.value)
    try:
        source = BaselineSource(source_name)
    except ValueError:
        raise ConfigInvalid(
            f"unknown baseline source {source_name!r}; expected one of "
            f"{[s.value for s in BaselineSource]}"
        ) from None
    baseline_seed = detector_part.get("baseline_seed")
    if baseline_seed is not None:
        baseline_seed = int(_require(baseline_seed, int, "detector.baseline_seed"))
    detector = DetectorSettings(
        source=source,
        theta=_get_float(detector_part, "theta", DEFAULT_THRESHOLD_FACTOR, "detector"),
        ticks_per_chain_step=_get_float(detector_part, "ticks_per_chain_step", 1.0, "detector"),
        baseline_runs=_get_int(detector_part, "baseline_runs", 100, "detector"),
        baseline_seed=baseline_seed,
    )
    return ParsedConfig(scenario=scenario, params=params, detector=detector)


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
