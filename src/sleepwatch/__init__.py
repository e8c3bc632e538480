"""Sensor-network lifetime analysis and denial-of-sleep detection.

The toolkit has three layers:

- closed-form math: an absorbing-chain engine (:mod:`sleepwatch.chain`)
  and the network dead-count chain built on it (:mod:`sleepwatch.network`);
- simulation: per-node lifecycle and battery (:mod:`sleepwatch.lifecycle`),
  attack transforms (:mod:`sleepwatch.attack`), and the deterministic
  tick-loop simulator (:mod:`sleepwatch.simulate`);
- detection: death-time baselines and verdicts (:mod:`sleepwatch.detect`),
  wired together by the config format (:mod:`sleepwatch.config`) and the
  ``sleepwatch`` CLI (:mod:`sleepwatch.cli`).
"""

from .attack import AttackKind, AttackModel, broadcast_replay, no_attack, rts_cts_flood
from .chain import AbsorptionAnalysis, CanonicalDecomposition, TransitionMatrix
from .detect import Baseline, BaselineSource, Decision, Verdict, compute_baseline, detect, online_estimate
from .errors import SleepwatchError
from .lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    default_energy,
    default_policy,
)
from .network import NetworkChainParams, expected_death_time, threshold_from_deployed
from .simulate import RunSummary, ScenarioConfig, SimulationTrace, run_many, run_one

__version__ = "0.1.0"

__all__ = [
    "AbsorptionAnalysis",
    "AttackKind",
    "AttackModel",
    "Baseline",
    "BaselineSource",
    "CanonicalDecomposition",
    "DeathMode",
    "Decision",
    "EnergyModel",
    "NetworkChainParams",
    "NodePolicy",
    "NodeState",
    "RunSummary",
    "ScenarioConfig",
    "SimulationTrace",
    "SleepwatchError",
    "TransitionMatrix",
    "Verdict",
    "broadcast_replay",
    "compute_baseline",
    "default_energy",
    "default_policy",
    "detect",
    "expected_death_time",
    "no_attack",
    "online_estimate",
    "rts_cts_flood",
    "run_many",
    "run_one",
    "threshold_from_deployed",
]
