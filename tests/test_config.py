import json
import re
from operator import attrgetter

import numpy as np
import pytest
from test_cli import CONFIG_KEYS

from sleepwatch import config
from sleepwatch.attack import AttackKind
from sleepwatch.config import DetectorSettings, load_config, parse_config
from sleepwatch.detect import BaselineSource
from sleepwatch.errors import _MAX_ITEMS, ConfigInvalid, OutOfRange, TooFewNodes
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

    @pytest.mark.parametrize("key, value", [
        ("baseline_runs", 2.5), ("baseline_runs", True), ("baseline_runs", np.float64(100.0)),
        ("baseline_seed", 1.5), ("baseline_seed", True), ("baseline_seed", "7"),
    ])
    def test_settings_refuse_non_integer_counts(self, key, value):
        # built directly, not through parse_config, whose key readers check the JSON type
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(f'detector.{key} must be an integer, got {value!r}')}$"):
            DetectorSettings(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("source", "analytic", "detector.source must be a BaselineSource, got str"),
        ("source", None, "detector.source must be a BaselineSource, got NoneType"),
        ("theta", True, "detector.theta must lie in (0, 1], got True"),
        ("theta", "a", "detector.theta must lie in (0, 1], got a"),
        ("ticks_per_chain_step", "a", "detector.ticks_per_chain_step must be a real number, got 'a'"),
        ("ticks_per_chain_step", True, "detector.ticks_per_chain_step must be a real number, got True"),
    ], ids=["source-str", "source-none", "theta-bool", "theta-str", "tpcs-str", "tpcs-bool"])
    def test_settings_refuse_a_value_of_the_wrong_type(self, key, value, message):
        # built directly: a string source would otherwise run the Monte Carlo baseline
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            DetectorSettings(**{key: value})

    def test_settings_store_numpy_integers_as_int(self):
        settings = DetectorSettings(baseline_runs=np.int64(5), baseline_seed=np.uint32(9))
        assert (type(settings.baseline_runs), type(settings.baseline_seed)) == (int, int)
        assert DetectorSettings(baseline_seed=None).baseline_seed is None

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

    @pytest.mark.parametrize("data", [
        b'{"network": {"n_deployed": 20}, "\xff": 1}',
        '{"network": {"n_deployed": 20}, "\u00e9": 1}'.encode("latin-1"),
        '{"run": {"seed": 1}}'.encode("utf-16"),
    ], ids=["stray-byte", "latin-1", "utf-16"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, data):
        path = tmp_path / "encoded.json"
        path.write_bytes(data)
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(str(path))}: not UTF-8: "):
            load_config(path)

    def test_byte_order_mark_stays_refused(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf{}")
        with pytest.raises(ConfigInvalid, match="not valid JSON: Unexpected UTF-8 BOM"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["unclosed-lists", "valid-objects"])
    def test_deep_nesting_is_config_error(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(str(path))}: nested too deeply to parse$"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        '{"network": {"n_deployed": ' + "9" * 5000 + "}}",
        '{"policy": {"probs": [[0.6, 0.2, 0.2, ' + "1" * 5000 + "]]}}",
    ], ids=["network", "policy-probs"])
    def test_integer_past_the_digit_limit_is_config_error(self, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(str(path))}: a number too long to parse$"):
            load_config(path)

    @pytest.mark.parametrize("text, key", [
        ('{"network": {"n_deployed": 20}, "network": {"n_deployed": 30}}', "network"),
        ('{"network": {"n_deployed": 20, "n_deployed": 30}}', "n_deployed"),
        ('{"energy": {"drain": {"sleep": 0.1, "active": 5.0, "sleep": 0.2}}}', "sleep"),
        ('{"run": {"seed": 1}, "detector": {"theta": 0.8, "theta": 0.8}}', "theta"),
    ], ids=["top-level", "section", "energy-drain", "same-value"])
    def test_repeated_key_is_config_error(self, tmp_path, text, key):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match=f"^repeated key '{key}' in a JSON object$"):
            load_config(path)

    def test_distinct_keys_parse_as_without_the_check(self, tmp_path, monkeypatch):
        doc = {
            "network": {"n_deployed": 30, "initial_dead": 2},
            "energy": {"capacity": 500.0, "drain": {"sleep": 0.2, "active": 4.0}},
            "attack": {"kind": "rts_cts_flood", "coverage": 0.5, "end_tick": None},
            "detector": {"source": "monte_carlo", "baseline_runs": 7},
            "run": {"max_ticks": 50, "seed": 9},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        read = []
        monkeypatch.setattr(config, "parse_config", read.append)
        load_config(path)
        assert read == [json.loads(path.read_text())] == [doc]
        assert type(read[0]) is dict and list(read[0]) == list(doc)


_KINDS = "['none', 'rts_cts_flood', 'broadcast_replay']"
_SOURCES = "['analytic', 'monte_carlo']"
_MODES = "['probabilistic', 'energy']"
_PROBS = [[0.6, 0.3, 0.1, 0.0], [0.35, 0.5, 0.13, 0.02],
          [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]]
_NO_ATTACK_ONLY = "a no-attack model must have zero coverage, sleep_block and extra_drain"


def _wrong_type(path: str, value) -> tuple:
    return ConfigInvalid, f"'{path}' has the wrong type: {value!r}"


#: One fault per document: (section, key, value, expected). ``expected`` is
#: either (exception type, exact message) or (attribute of the parsed
#: config, parsed value); for each key it covers a wrong type, null and an
#: in-range value.
SINGLE_FAULTS = [
    ("network", "n_deployed", "7", _wrong_type("network.n_deployed", "7")),
    ("network", "n_deployed", None, _wrong_type("network.n_deployed", None)),
    ("network", "n_deployed", 1.0, _wrong_type("network.n_deployed", 1.0)),
    ("network", "n_deployed", 1, (TooFewNodes, "need at least 2 deployed nodes, got 1")),
    ("network", "n_deployed", 7, ("scenario.network.n_deployed", 7)),
    ("network", "initial_dead", True, _wrong_type("network.initial_dead", True)),
    ("network", "initial_dead", None, _wrong_type("network.initial_dead", None)),
    ("network", "initial_dead", 17, (OutOfRange, "initial_dead 17 outside [0, 16]")),
    ("network", "initial_dead", 3, ("params.initial_dead", 3)),
    ("policy", "probs", "x", _wrong_type("policy.probs", "x")),
    ("policy", "probs", None, _wrong_type("policy.probs", None)),
    ("policy", "probs", _PROBS, ("scenario.policy.probs", _PROBS)),
    ("energy", "capacity", "250", _wrong_type("energy.capacity", "250")),
    ("energy", "capacity", None, _wrong_type("energy.capacity", None)),
    ("energy", "capacity", 0, (ConfigInvalid, "battery capacity must be positive and finite, got 0.0")),
    ("energy", "capacity", 250, ("scenario.energy.capacity", 250.0)),
    ("energy", "drain", [0.1], _wrong_type("energy.drain", [0.1])),
    ("energy", "drain", None, _wrong_type("energy.drain", None)),
    ("energy", "drain", {"active": 7.5}, ("scenario.energy.drain", [0.1, 7.5, 1.0, 0.0])),
    ("energy", "drain", {}, ("scenario.energy.drain", [0.1, 5.0, 1.0, 0.0])),
    ("energy", "drain", {"zombie": 1}, (ConfigInvalid, "unknown state(s) in energy.drain: ['zombie']")),
    ("energy", "drain", {"sleep": "x"}, _wrong_type("energy.drain.sleep", "x")),
    ("energy", "drain", {"active": None}, _wrong_type("energy.drain.active", None)),
    ("energy", "drain", {"inactive": False}, _wrong_type("energy.drain.inactive", False)),
    ("energy", "drain", {"dead": 10 ** 400}, (ConfigInvalid, "'energy.drain.dead' is too large for a float")),
    ("attack", "kind", 5, (ConfigInvalid, f"unknown attack kind 5; expected one of {_KINDS}")),
    ("attack", "kind", [], (ConfigInvalid, f"unknown attack kind []; expected one of {_KINDS}")),
    ("attack", "kind", None, (ConfigInvalid, f"unknown attack kind None; expected one of {_KINDS}")),
    ("attack", "kind", "broadcast_replay", ("scenario.attack.sleep_block", 0.6)),
    ("attack", "coverage", "1", _wrong_type("attack.coverage", "1")),
    ("attack", "coverage", None, _wrong_type("attack.coverage", None)),
    ("attack", "coverage", 0.5, (ConfigInvalid, _NO_ATTACK_ONLY)),
    ("attack", "coverage", 0, ("scenario.attack.coverage", 0.0)),
    ("attack", "sleep_block", {}, _wrong_type("attack.sleep_block", {})),
    ("attack", "sleep_block", None, _wrong_type("attack.sleep_block", None)),
    ("attack", "sleep_block", 1.5, (ConfigInvalid, "sleep_block must lie in [0, 1], got 1.5")),
    ("attack", "sleep_block", 0.0, ("scenario.attack.sleep_block", 0.0)),
    ("attack", "extra_drain", True, _wrong_type("attack.extra_drain", True)),
    ("attack", "extra_drain", None, _wrong_type("attack.extra_drain", None)),
    ("attack", "extra_drain", 10 ** 400, (ConfigInvalid, "'attack.extra_drain' is too large for a float")),
    ("attack", "extra_drain", 0, ("scenario.attack.extra_drain", 0.0)),
    ("attack", "start_tick", 0.0, _wrong_type("attack.start_tick", 0.0)),
    ("attack", "start_tick", None, _wrong_type("attack.start_tick", None)),
    ("attack", "start_tick", 5, ("scenario.attack.start_tick", 5)),
    ("attack", "end_tick", "9", _wrong_type("attack.end_tick", "9")),
    ("attack", "end_tick", None, ("scenario.attack.end_tick", None)),
    ("attack", "end_tick", -1, (ConfigInvalid, "attack window is empty: start 0 > end -1")),
    ("attack", "end_tick", 9, ("scenario.attack.end_tick", 9)),
    ("detector", "source", 1, (ConfigInvalid, f"unknown baseline source 1; expected one of {_SOURCES}")),
    ("detector", "source", None,
     (ConfigInvalid, f"unknown baseline source None; expected one of {_SOURCES}")),
    ("detector", "source", "monte_carlo", ("detector.source", BaselineSource.MONTE_CARLO)),
    ("detector", "theta", "0.5", _wrong_type("detector.theta", "0.5")),
    ("detector", "theta", None, _wrong_type("detector.theta", None)),
    ("detector", "theta", 1, ("detector.theta", 1.0)),
    ("detector", "ticks_per_chain_step", [2], _wrong_type("detector.ticks_per_chain_step", [2])),
    ("detector", "ticks_per_chain_step", None, _wrong_type("detector.ticks_per_chain_step", None)),
    ("detector", "ticks_per_chain_step", 2, ("detector.ticks_per_chain_step", 2.0)),
    ("detector", "baseline_runs", 7.0, _wrong_type("detector.baseline_runs", 7.0)),
    ("detector", "baseline_runs", None, _wrong_type("detector.baseline_runs", None)),
    ("detector", "baseline_runs", 7, ("detector.baseline_runs", 7)),
    ("detector", "baseline_runs", 2**64,
     (ConfigInvalid, "detector.baseline_runs 18446744073709551616 is too large for numpy arrays")),
    ("detector", "baseline_seed", "1", _wrong_type("detector.baseline_seed", "1")),
    ("detector", "baseline_seed", None, ("detector.baseline_seed", None)),
    ("detector", "baseline_seed", 0, ("detector.baseline_seed", 0)),
    ("run", "max_ticks", "many", _wrong_type("run.max_ticks", "many")),
    ("run", "max_ticks", None, _wrong_type("run.max_ticks", None)),
    ("run", "max_ticks", 0, (ConfigInvalid, "max_ticks must be at least 1, got 0")),
    ("run", "max_ticks", 50, ("scenario.max_ticks", 50)),
    ("run", "max_ticks", _MAX_ITEMS, ("scenario.max_ticks", _MAX_ITEMS)),
    ("run", "max_ticks", _MAX_ITEMS + 1,
     (ConfigInvalid, f"max_ticks {_MAX_ITEMS + 1} is too large for numpy arrays")),
    ("run", "seed", True, _wrong_type("run.seed", True)),
    ("run", "seed", None, _wrong_type("run.seed", None)),
    ("run", "seed", -1, (ConfigInvalid, "seed must be a non-negative integer, got -1")),
    ("run", "seed", 9, ("scenario.seed", 9)),
    ("run", "runs", [3], _wrong_type("run.runs", [3])),
    ("run", "runs", None, _wrong_type("run.runs", None)),
    ("run", "runs", 3, ("scenario.runs", 3)),
    ("run", "runs", 2**64, (ConfigInvalid, "runs 18446744073709551616 is too large for numpy arrays")),
    ("run", "death_mode", 0, (ConfigInvalid, f"unknown death_mode 0; expected one of {_MODES}")),
    ("run", "death_mode", None, (ConfigInvalid, f"unknown death_mode None; expected one of {_MODES}")),
    ("run", "death_mode", "probabilistic", ("scenario.death_mode", DeathMode.PROBABILISTIC)),
]


class TestSingleFaults:
    @pytest.mark.parametrize("section, key, value, expected", SINGLE_FAULTS,
                             ids=[f"{s}.{k}={v!r}" for s, k, v, _ in SINGLE_FAULTS])
    def test_one_key_parses_or_fails_exactly(self, section, key, value, expected):
        outcome, detail = expected
        if isinstance(outcome, type):
            with pytest.raises(outcome) as caught:
                parse_config({section: {key: value}})
            assert type(caught.value) is outcome
            assert str(caught.value) == detail
            return
        got = attrgetter(outcome)(parse_config({section: {key: value}}))
        if isinstance(got, np.ndarray):
            got = got.tolist()
        assert got == detail and type(got) is type(detail)

    def test_table_covers_every_key(self):
        assert {(s, k) for s, k, _, _ in SINGLE_FAULTS} == {
            (section, key) for section, keys in CONFIG_KEYS.items() for key in keys}
