"""Scenario configuration: one strict JSON document.

The file is UTF-8 (a byte-order mark is refused) and has up to six
sections: network, policy, energy, attack, detector, run. ``_SECTIONS``
declares every key once, with the reader that checks its JSON value.
Every section and key is optional; unknown sections and keys are an
error, and so is a key repeated in any one object, so a typo cannot
silently deconfigure an experiment.

A key that is left out takes the default of the object it configures:

- network: :class:`~sleepwatch.network.NetworkChainParams`, except
  ``n_deployed``, which is 20;
- policy: :func:`~sleepwatch.lifecycle.default_policy`;
- energy: :func:`~sleepwatch.lifecycle.default_energy`, per ``drain`` state;
- attack: the mechanism named by ``kind`` (see :mod:`sleepwatch.attack`),
  or no attack when ``kind`` is absent;
- detector: :class:`DetectorSettings`;
- run: :class:`~sleepwatch.simulate.ScenarioConfig`, except ``max_ticks``
  and ``seed``, which are 1000 and 0.

An example that sets every key (these are not the defaults)::

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attack import AttackKind, broadcast_replay, no_attack, rts_cts_flood
from .detect import DEFAULT_THRESHOLD_FACTOR, BaselineSource
from .errors import (ConfigInvalid, require_count, require_fraction, require_non_negative, require_positive,
                     require_type)
from .lifecycle import DeathMode, NodePolicy, STATE_NAMES, default_energy, default_policy
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
        require_type("detector.source", self.source, BaselineSource)
        # checked under either source, so a key the source ignores is still sane
        for name, check in (("theta", require_fraction), ("ticks_per_chain_step", require_positive)):
            object.__setattr__(self, name, check(f"detector.{name}", getattr(self, name)))
        runs = require_count("detector.baseline_runs", self.baseline_runs)
        seed = self.baseline_seed
        if seed is not None:
            seed = require_non_negative("detector.baseline_seed", seed)
        object.__setattr__(self, "baseline_runs", runs)
        object.__setattr__(self, "baseline_seed", seed)


@dataclass(frozen=True)
class ParsedConfig:
    scenario: ScenarioConfig
    detector: DetectorSettings

    @property
    def params(self) -> NetworkChainParams:
        """N, M and the start state, as stored in the scenario."""
        return self.scenario.network


def _require(value, types, path: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigInvalid(f"'{path}' has the wrong type: {value!r}")
    return value


def _int(value, path: str) -> int:
    return int(_require(value, int, path))


def _int_or_null(value, path: str) -> int | None:
    return None if value is None else _int(value, path)


def _float(value, path: str) -> float:
    try:
        return float(_require(value, (int, float), path))
    except OverflowError:
        raise ConfigInvalid(f"'{path}' is too large for a float") from None


def _enum(enum, what: str):
    def read(value, path: str):
        try:
            return enum(value)
        except ValueError:
            raise ConfigInvalid(
                f"unknown {what} {value!r}; expected one of {[e.value for e in enum]}"
            ) from None
    return read


def _probs(value, path: str) -> NodePolicy:
    rows = [
        [_float(v, f"{path}[{r}][{c}]") for c, v in enumerate(_require(row, list, f"{path}[{r}]"))]
        for r, row in enumerate(_require(value, list, path))
    ]
    if len({len(row) for row in rows}) > 1:
        raise ConfigInvalid(f"'{path}' rows differ in length")
    return NodePolicy(rows)


def _drain(value, path: str) -> np.ndarray:
    entries = _require(value, dict, path)
    unknown = set(entries) - set(STATE_NAMES)
    if unknown:
        raise ConfigInvalid(f"unknown state(s) in {path}: {sorted(unknown)}")
    drain = np.array(default_energy().drain, copy=True)
    for idx, name in enumerate(STATE_NAMES):
        if name in entries:
            drain[idx] = _float(entries[name], f"{path}.{name}")
    return drain


#: Every section, its keys, and the reader ``(value, path) -> value`` of each.
_SECTIONS = {
    "network": {"n_deployed": _int, "initial_dead": _int},
    "policy": {"probs": _probs},
    "energy": {"capacity": _float, "drain": _drain},
    "attack": {"kind": _enum(AttackKind, "attack kind"), "coverage": _float,
               "sleep_block": _float, "extra_drain": _float,
               "start_tick": _int, "end_tick": _int_or_null},
    "detector": {"source": _enum(BaselineSource, "baseline source"), "theta": _float,
                 "ticks_per_chain_step": _float, "baseline_runs": _int,
                 "baseline_seed": _int_or_null},
    "run": {"death_mode": _enum(DeathMode, "death_mode"), "max_ticks": _int,
            "seed": _int, "runs": _int},
}

_ATTACK_DEFAULTS = {
    AttackKind.NO_ATTACK: no_attack,
    AttackKind.RTS_CTS_FLOOD: rts_cts_flood,
    AttackKind.BROADCAST_REPLAY: broadcast_replay,
}


def _section(doc: dict, name: str) -> dict:
    part = doc.get(name, {})
    if not isinstance(part, dict):
        raise ConfigInvalid(f"section '{name}' must be an object")
    unknown = set(part) - set(_SECTIONS[name])
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in section '{name}': {sorted(unknown)}")
    return part


def parse_config(doc: dict) -> ParsedConfig:
    """Build the scenario, chain params and detector settings from a dict."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigInvalid(f"unknown top-level section(s): {sorted(unknown)}")
    parts = {name: _section(doc, name) for name in _SECTIONS}
    # only the keys present are read; every other key takes its owner's default
    read = {
        name: {key: reader(parts[name][key], f"{name}.{key}")
               for key, reader in readers.items() if key in parts[name]}
        for name, readers in _SECTIONS.items()
    }
    attack = read["attack"]
    scenario = ScenarioConfig(
        network=NetworkChainParams(**{"n_deployed": 20, **read["network"]}),
        policy=read["policy"].get("probs") or default_policy(),
        energy=replace(default_energy(), **read["energy"]),
        attack=replace(_ATTACK_DEFAULTS[attack["kind"]]() if "kind" in attack else no_attack(),
                       **attack),
        **{"max_ticks": 1000, "seed": 0, **read["run"]},
    )
    return ParsedConfig(scenario=scenario, detector=DetectorSettings(**read["detector"]))


def _reject_constant(token: str):
    # json.loads accepts NaN/Infinity/-Infinity, which strict JSON does not have
    raise ConfigInvalid(f"non-finite number {token} is not allowed")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps the last of two equal keys, which would hide the first
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigInvalid(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> ParsedConfig:
    """Parse a scenario JSON file, read as UTF-8 whatever the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path}: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # valid JSON too, once it nests about 1,000 deep
        raise ConfigInvalid(f"{path}: nested too deeply to parse") from exc
    except ValueError as exc:  # an integer longer than int() may parse, 4,300 digits by default
        raise ConfigInvalid(f"{path}: a number too long to parse") from exc
    return parse_config(doc)
