import json
import re

import numpy as np
import pytest

from sleepwatch.attack import AttackKind
from sleepwatch.config import load_config, parse_config
from sleepwatch.detect import BaselineSource
from sleepwatch.errors import ConfigInvalid
from sleepwatch.lifecycle import DeathMode, NodeState, default_energy, default_policy


class TestDefaults:
    def test_empty_document_uses_module_defaults(self):
        parsed = parse_config({})
        scenario = parsed.scenario
        assert scenario.network.n_deployed == 20
        assert scenario.max_ticks == 1000
        assert scenario.seed == 0
        assert scenario.runs == 1
        assert scenario.death_mode is DeathMode.ENERGY
        assert scenario.attack.kind is AttackKind.NO_ATTACK
        np.testing.assert_array_equal(scenario.policy.probs, default_policy().probs)
        np.testing.assert_array_equal(scenario.energy.drain, default_energy().drain)
        assert parsed.params.m_threshold == 16
        assert parsed.params.initial_dead == 1
        assert parsed.detector.source is BaselineSource.ANALYTIC
        assert parsed.detector.theta == 0.8

    def test_attack_kind_pulls_mechanism_defaults(self):
        parsed = parse_config({"attack": {"kind": "rts_cts_flood"}})
        attack = parsed.scenario.attack
        assert attack.sleep_block == 0.9
        assert attack.extra_drain == 2.0
        assert attack.coverage == 1.0

    def test_attack_overrides_beat_mechanism_defaults(self):
        parsed = parse_config({"attack": {"kind": "broadcast_replay", "sleep_block": 0.3}})
        assert parsed.scenario.attack.sleep_block == 0.3
        assert parsed.scenario.attack.extra_drain == 1.0

    def test_partial_drain_override(self):
        parsed = parse_config({"energy": {"drain": {"active": 7.5}}})
        drain = parsed.scenario.energy.drain
        assert drain[NodeState.ACTIVE] == 7.5
        assert drain[NodeState.SLEEP] == 0.1


class TestStrictness:
    def test_unknown_top_level_section(self):
        with pytest.raises(ConfigInvalid, match="attacker"):
            parse_config({"attacker": {}})

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigInvalid, match="max_tick"):
            parse_config({"run": {"max_tick": 10}})

    def test_unknown_drain_state(self):
        with pytest.raises(ConfigInvalid, match="zombie"):
            parse_config({"energy": {"drain": {"zombie": 1.0}}})

    def test_unknown_attack_kind(self):
        with pytest.raises(ConfigInvalid, match="jamming"):
            parse_config({"attack": {"kind": "jamming"}})

    def test_unknown_death_mode(self):
        with pytest.raises(ConfigInvalid, match="sudden"):
            parse_config({"run": {"death_mode": "sudden"}})

    def test_unknown_baseline_source(self):
        with pytest.raises(ConfigInvalid, match="psychic"):
            parse_config({"detector": {"source": "psychic"}})

    @pytest.mark.parametrize("detector, message", [
        ({"source": "monte_carlo", "baseline_runs": 0},
         "detector.baseline_runs must be at least 1, got 0"),
        ({"source": "monte_carlo", "baseline_runs": -3},
         "detector.baseline_runs must be at least 1, got -3"),
        ({"source": "monte_carlo", "baseline_seed": -4},
         "detector.baseline_seed must be a non-negative integer, got -4"),
        ({"source": "analytic", "baseline_runs": 0},
         "detector.baseline_runs must be at least 1, got 0"),
    ], ids=["runs-zero", "runs-negative", "seed-negative", "analytic-runs-zero"])
    def test_bad_monte_carlo_settings_name_their_key(self, detector, message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            parse_config({"detector": detector})

    @pytest.mark.parametrize("source", ["analytic", "monte_carlo"])
    @pytest.mark.parametrize("key, value, message", [
        ("theta", 1.5, "detector.theta must lie in (0, 1], got 1.5"),
        ("theta", 0.0, "detector.theta must lie in (0, 1], got 0.0"),
        ("theta", -0.5, "detector.theta must lie in (0, 1], got -0.5"),
        ("ticks_per_chain_step", -2.0, "detector.ticks_per_chain_step must be finite and > 0, got -2.0"),
        ("ticks_per_chain_step", 0, "detector.ticks_per_chain_step must be finite and > 0, got 0.0"),
        ("ticks_per_chain_step", 1e300 * 1e300,
         "detector.ticks_per_chain_step must be finite and > 0, got inf"),
    ], ids=["theta-above-one", "theta-zero", "theta-negative", "tpcs-negative", "tpcs-zero",
            "tpcs-inf"])
    def test_bad_detector_settings_name_their_key(self, source, key, value, message):
        # a key the baseline source does not use is still refused
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            parse_config({"detector": {"source": source, key: value}})

    @pytest.mark.parametrize("theta", [1.0, 1e-9])
    def test_theta_bounds_are_inclusive_above(self, theta):
        assert parse_config({"detector": {"theta": theta}}).detector.theta == theta

    def test_wrong_value_type(self):
        with pytest.raises(ConfigInvalid, match="run.max_ticks"):
            parse_config({"run": {"max_ticks": "many"}})
        with pytest.raises(ConfigInvalid, match="run.seed"):
            parse_config({"run": {"seed": True}})

    def test_null_only_where_documented(self):
        parsed = parse_config({"attack": {"kind": "rts_cts_flood", "end_tick": None},
                               "detector": {"baseline_seed": None}})
        assert parsed.scenario.attack.end_tick is None
        assert parsed.detector.baseline_seed is None
        for section, key in (("network", "n_deployed"), ("run", "max_ticks"),
                             ("attack", "start_tick"), ("detector", "theta")):
            with pytest.raises(ConfigInvalid, match=f"{section}.{key}"):
                parse_config({section: {key: None}})

    @pytest.mark.parametrize("probs,match", [
        ([[1, 0, 0, 0], [0, 1]], "rows differ in length"),
        ([["a", 0, 0, 0]], r"policy\.probs\[0\]\[0\]"),
        ([[0.7, 0.25, 0.05, 0.0], [0.35, 0.5, 0.13, 0.02],
          [0.0, 0.38, 0.6, 0.02], [False, False, False, True]], r"policy\.probs\[3\]\[0\]"),
        ([[1, 0, 0, 0], 1], r"policy\.probs\[1\]"),
        ([[[1], 0, 0, 0]], r"policy\.probs\[0\]\[0\]"),
        ([[10 ** 400, 0, 0, 0]], "too large for a float"),
    ], ids=["ragged", "string", "boolean", "scalar-row", "nested", "huge-int"])
    def test_malformed_policy_rows(self, probs, match):
        with pytest.raises(ConfigInvalid, match=match):
            parse_config({"policy": {"probs": probs}})

    def test_policy_must_validate(self):
        bad = [[0.7, 0.2, 0.0, 0.1], [0.35, 0.5, 0.13, 0.02],
               [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]]
        with pytest.raises(Exception):
            parse_config({"policy": {"probs": bad}})


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        doc = {
            "network": {"n_deployed": 10, "initial_dead": 2},
            "run": {"max_ticks": 50, "seed": 9, "runs": 2, "death_mode": "probabilistic"},
            "detector": {"source": "monte_carlo", "baseline_runs": 7, "baseline_seed": 123},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        parsed = load_config(path)
        assert parsed.scenario.network.n_deployed == 10
        assert parsed.scenario.death_mode is DeathMode.PROBABILISTIC
        assert parsed.params.initial_dead == 2
        assert parsed.detector.baseline_runs == 7
        assert parsed.detector.baseline_seed == 123

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_config(path)
