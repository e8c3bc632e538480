import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sleepwatch
from sleepwatch import cli, config
from sleepwatch.cli import main
from sleepwatch.detect import Decision, decide
from sleepwatch.serialize import TRACE_HEADER
from sleepwatch.simulate import BATTERY_TOTAL_MAX, run_many

SCHEMA_DIR = Path(sleepwatch.__file__).parent / "schemas"


def schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def write_config(tmp_path: Path, doc: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fast_scenario(**extra) -> dict:
    doc = {
        "network": {"n_deployed": 10, "initial_dead": 1},
        "energy": {"capacity": 100.0},
        "run": {"max_ticks": 300, "seed": 42, "runs": 2, "death_mode": "energy"},
    }
    doc.update(extra)
    return doc


def readme_scenario(**extra) -> dict:
    """The example config from the README."""
    doc = {
        "network": {"n_deployed": 20, "initial_dead": 1},
        "energy": {"capacity": 300.0},
        "attack": {"kind": "rts_cts_flood", "coverage": 1.0, "sleep_block": 0.9,
                   "extra_drain": 2.0},
        "detector": {"source": "monte_carlo", "baseline_runs": 100},
        "run": {"max_ticks": 600, "seed": 42, "runs": 1, "death_mode": "energy"},
    }
    for section, values in extra.items():
        doc[section] = {**doc[section], **values}
    return doc


#: the default policy with its Dead column moved onto Inactive
NO_DEATH_PROBS = [[0.70, 0.25, 0.05, 0.0], [0.35, 0.50, 0.15, 0.0],
                  [0.0, 0.38, 0.62, 0.0], [0.0, 0.0, 0.0, 1.0]]


class TestAnalyze:
    def test_report_content_and_schema(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        assert main(["analyze", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema("analyze_report.schema.json"))
        assert report["m_threshold"] == 8
        assert report["m_rounding"] == "half-up"
        assert report["death_probability"]["max_abs_deviation"] <= 1e-9
        assert report["expected_death_time"]["max_abs_deviation"] <= 1e-9
        assert report["expected_visits"]["max_abs_deviation"] <= 1e-9
        assert report["node"]["expected_lifetime_ticks"] > 0

    def test_byte_identical_across_invocations(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        main(["analyze", "--config", config])
        first = capsys.readouterr().out
        main(["analyze", "--config", config])
        second = capsys.readouterr().out
        assert first == second

    def test_too_few_nodes_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario(network={"n_deployed": 1}))
        assert main(["analyze", "--config", config]) == 1
        assert "least 2" in capsys.readouterr().err

    def test_writes_artifact_when_out_given(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        out = tmp_path / "artifacts"
        assert main(["analyze", "--config", config, "--out", str(out)]) == 0
        assert json.loads((out / "analyze.json").read_text()) == json.loads(capsys.readouterr().out)

    def test_policy_without_path_to_dead_has_null_lifetime(self, tmp_path, capsys):
        # the default policy with its Dead column moved onto Inactive: no node ever dies
        config = write_config(tmp_path, {"policy": {"probs": NO_DEATH_PROBS}})
        assert main(["analyze", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema("analyze_report.schema.json"))
        assert report["node"]["expected_lifetime_ticks"] is None


class TestSimulate:
    def test_writes_named_traces_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--runs", "3"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["run_000.csv", "run_001.csv", "run_002.csv", "summary.json"]
        first_line = (out / "run_000.csv").read_text().splitlines()[0]
        assert first_line == TRACE_HEADER
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, schema("run_summary.schema.json"))
        assert summary["runs"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, fast_scenario())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out_a)])
        main(["simulate", "--config", config, "--out", str(out_b)])
        for path_a in sorted(out_a.iterdir()):
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()

    def test_requires_out_dir(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_many", lambda *args, **kwargs: ran.append(args))
        config = write_config(tmp_path, fast_scenario())
        assert main(["simulate", "--config", config]) == 1
        assert "--out" in capsys.readouterr().err
        assert ran == []

    def test_zero_ticks_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario(run={"max_ticks": 0}))
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "x")]) == 1

    def test_seed_override_changes_runs(self, tmp_path):
        config = write_config(tmp_path, fast_scenario())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out_a)])
        main(["simulate", "--config", config, "--out", str(out_b), "--seed", "43"])
        assert (out_a / "run_000.csv").read_bytes() != (out_b / "run_000.csv").read_bytes()


class TestDetect:
    def test_flood_attack_exits_two(self, tmp_path, capsys):
        doc = fast_scenario(
            attack={"kind": "rts_cts_flood"},
            detector={"source": "monte_carlo", "baseline_runs": 20},
        )
        config = write_config(tmp_path, doc)
        assert main(["detect", "--config", config]) == 2
        verdict = json.loads(capsys.readouterr().out)
        jsonschema.validate(verdict, schema("verdict.schema.json"))
        assert verdict["decision"] == "under_attack"
        assert verdict["observed"] < 0.8 * verdict["baseline"]

    def test_normal_scenario_exits_zero(self, tmp_path, capsys):
        doc = fast_scenario(detector={"source": "monte_carlo", "baseline_runs": 20})
        config = write_config(tmp_path, doc)
        assert main(["detect", "--config", config]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["decision"] == "normal"

    def test_censored_scenario_exits_three(self, tmp_path, capsys):
        # analytic baseline far beyond the tick budget, immortal nodes
        doc = {
            "network": {"n_deployed": 10, "initial_dead": 1},
            "energy": {"capacity": 100.0, "drain": {"sleep": 0.0, "active": 0.0, "inactive": 0.0}},
            "detector": {"source": "analytic", "ticks_per_chain_step": 1000.0},
            "run": {"max_ticks": 50, "seed": 1, "runs": 1, "death_mode": "energy"},
        }
        config = write_config(tmp_path, doc)
        assert main(["detect", "--config", config]) == 3
        assert json.loads(capsys.readouterr().out)["decision"] == "inconclusive"

    def test_theta_override_recorded(self, tmp_path, capsys):
        doc = fast_scenario(detector={"source": "monte_carlo", "baseline_runs": 10})
        config = write_config(tmp_path, doc)
        main(["detect", "--config", config, "--theta", "0.5"])
        assert json.loads(capsys.readouterr().out)["theta"] == 0.5

    def test_baseline_past_the_float_range_exits_one(self, tmp_path, capsys):
        doc = {"detector": {"source": "analytic", "ticks_per_chain_step": 1e308}}
        assert main(["detect", "--config", write_config(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: baseline must be finite and > 0, got inf\n"

    def test_verdict_artifact(self, tmp_path, capsys):
        doc = fast_scenario(detector={"source": "monte_carlo", "baseline_runs": 10})
        config = write_config(tmp_path, doc)
        out = tmp_path / "v"
        main(["detect", "--config", config, "--out", str(out)])
        verdict = json.loads((out / "verdict.json").read_text())
        jsonschema.validate(verdict, schema("verdict.schema.json"))


class TestSweep:
    @pytest.mark.parametrize("values, message", [
        (",", "error: --values is empty\n"),
        ("a,b", "error: --values must be comma-separated numbers: could not convert string to float: 'a'\n"),
    ], ids=["empty", "not-numbers"])
    def test_bad_values_exit_one(self, tmp_path, capsys, values, message):
        config = write_config(tmp_path, fast_scenario())
        assert main(["sweep", "--config", config, "--param", "coverage", "--values", values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_threshold_sweep_has_one_row_per_value(self, tmp_path, capsys):
        doc = fast_scenario(
            network={"n_deployed": 20, "initial_dead": 1},
            detector={"source": "analytic", "ticks_per_chain_step": 3.0},
        )
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "m", "--values", "4,8,12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,baseline,mean_death_tick,normal,under_attack,inconclusive"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["4", "8", "12"]
        # the analytic baseline is recomputed per threshold and grows with it;
        # at m=4, i0=1: T = 4*3*(1/3) + 4*(1/2 + 1/3) = 22/3 chain steps
        baselines = [float(row.split(",")[1]) for row in lines[1:]]
        assert baselines == sorted(baselines)
        assert baselines[0] == pytest.approx(3.0 * 22 / 3, rel=1e-12)

    def test_coverage_sweep_death_tick_non_increasing(self, tmp_path, capsys):
        doc = fast_scenario(
            attack={"kind": "rts_cts_flood"},
            detector={"source": "monte_carlo", "baseline_runs": 10},
        )
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "coverage",
                     "--values", "0,0.5,1.0", "--runs", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        means = [float(row.split(",")[2]) for row in lines]
        assert means[0] >= means[1] >= means[2]
        assert means[2] < means[0]

    def test_monte_carlo_threshold_sweep_golden(self, tmp_path, capsys):
        doc = readme_scenario(run={"runs": 4}, detector={"baseline_runs": 12})
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "m", "--values", "4,8,16"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "4,131,49,0,4,0",
            "8,140.16666666666666,51.25,0,4,0",
            "16,158.83333333333334,54.5,0,4,0",
        ]

    @pytest.mark.parametrize("detector", [
        {"source": "analytic", "ticks_per_chain_step": 3.0},
        {"source": "monte_carlo", "baseline_runs": 5},
    ], ids=["analytic", "monte_carlo"])
    def test_threshold_sweep_from_absorbed_start_exits_one(self, tmp_path, capsys, detector):
        doc = readme_scenario(network={"initial_dead": 0})
        doc["detector"] = detector
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "m", "--values", "4,8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("values", ["nan", "inf", "4.5", "4,-inf"])
    def test_threshold_sweep_rejects_non_integral_values(self, tmp_path, capsys, values):
        doc = fast_scenario(detector={"source": "analytic", "ticks_per_chain_step": 3.0})
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "m", "--values", values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_unknown_parameter_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        assert main(["sweep", "--config", config, "--param", "bogus", "--values", "1"]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values, builds", [
        ("coverage", "0,0.5,1.0", 1),
        ("sleep_block", "0.2,0.9", 1),
        ("theta", "0.5,0.7,0.9", 1),
        ("m", "4,8,4", 2),
    ])
    def test_builds_each_distinct_baseline_once(self, tmp_path, capsys, monkeypatch,
                                                param, values, builds):
        built, simulated = [], []
        build, simulate = cli._build_baseline, cli.run_many
        monkeypatch.setattr(cli, "_build_baseline", lambda point: built.append(point) or build(point))
        monkeypatch.setattr(cli, "run_many",
                            lambda scenario: simulated.append(scenario) or simulate(scenario))
        doc = readme_scenario(run={"runs": 2}, detector={"baseline_runs": 5})
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", param, "--values", values]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(values.split(","))
        assert len(built) == builds
        assert len({row.split(",")[1] for row in rows}) == builds
        # each distinct scenario is simulated once; theta changes only the verdict rule
        assert len(simulated) == {"coverage": 3, "sleep_block": 2, "theta": 1, "m": 2}[param]

    @pytest.mark.parametrize("param, values, message", [
        ("theta", "0.5,1.5", "detector.theta must lie in (0, 1], got 1.5"),
        ("coverage", "0,7", "coverage must lie in [0, 1], got 7.0"),
        ("m", "4,99", "m_threshold 99 outside [2, 20]"),
    ])
    def test_bad_value_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                               param, values, message):
        ran = []
        monkeypatch.setattr(cli, "_build_baseline", lambda point: ran.append("baseline"))
        monkeypatch.setattr(cli, "run_many", lambda *args, **kwargs: ran.append("run"))
        config = write_config(tmp_path, readme_scenario())
        assert main(["sweep", "--config", config, "--param", param, "--values", values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert ran == []

    @pytest.mark.parametrize("param, values", [("coverage", "0,0.1,0.5,1"), ("theta", "0.5,0.8,0.99,1")])
    @pytest.mark.parametrize("max_ticks, censored", [(158, Decision.INCONCLUSIVE), (160, Decision.NORMAL)],
                             ids=["censored-inconclusive", "censored-normal"])
    def test_counts_match_one_decide_per_run(self, tmp_path, capsys, param, values, max_ticks, censored):
        """Every row's counts are those of one ``decide`` per run, and add up to the runs.

        The analytic baseline is 3.0 * 53.09 = 159.27 ticks, so a run censored at
        158 ticks is inconclusive and one censored at 160 is normal.
        """
        doc = readme_scenario(run={"max_ticks": max_ticks, "seed": 7, "runs": 300}, attack={"coverage": 0.5})
        doc["detector"] = {"source": "analytic", "ticks_per_chain_step": 3.0}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--param", param, "--values", values]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        parsed = config.load_config(path)
        order = (Decision.NORMAL, Decision.UNDER_ATTACK, Decision.INCONCLUSIVE)
        seen = dict.fromkeys(Decision, 0)
        for value, row in zip(values.split(","), rows, strict=True):
            point = cli._sweep_point(parsed, param, float(value))
            baseline, summary = cli._build_baseline(point), run_many(point.scenario)
            counts = dict.fromkeys(Decision, 0)
            for tick in summary.death_ticks:
                counts[decide(tick, summary.max_ticks, baseline, point.detector.theta).decision] += 1
            assert row.split(",")[3:] == [str(counts[decision]) for decision in order]
            assert sum(counts.values()) == 300
            seen = {decision: seen[decision] + counts[decision] for decision in Decision}
            assert summary.censored_count > 0 or value == "1"
        assert seen[censored] and seen[Decision.UNDER_ATTACK]
        if (param, max_ticks) == ("coverage", 158):
            assert rows[0].endswith(",149,0,151")

    def test_max_ticks_past_the_float_range_refused(self, tmp_path, capsys):
        """Every run would die, but the tick budget is refused when the config is loaded."""
        doc = readme_scenario(run={"max_ticks": 10**400, "runs": 2})
        doc["detector"] = {"source": "analytic", "ticks_per_chain_step": 3.0}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--param", "theta", "--values", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_ticks {10**400} is too large for numpy arrays\n"

    def test_writes_csv_artifact(self, tmp_path, capsys):
        doc = fast_scenario(detector={"source": "analytic", "ticks_per_chain_step": 3.0})
        config = write_config(tmp_path, doc)
        out = tmp_path / "s"
        main(["sweep", "--config", config, "--param", "theta", "--values", "0.5,0.9",
              "--out", str(out)])
        table = (out / "sweep.csv").read_text()
        assert table == capsys.readouterr().out


NON_FINITE_CONFIGS = {
    "capacity-nan": '{"energy": {"capacity": NaN}}',
    "capacity-infinity": '{"energy": {"capacity": Infinity}}',
    "capacity-overflow": '{"energy": {"capacity": 1e999}}',
    "drain-minus-infinity": '{"energy": {"drain": {"sleep": -Infinity}}}',
    "extra-drain-nan": '{"attack": {"kind": "rts_cts_flood", "extra_drain": NaN}}',
    "extra-drain-overflow": '{"attack": {"kind": "rts_cts_flood", "extra_drain": 1e999}}',
    "policy-nan": ('{"policy": {"probs": [[NaN, 0.25, 0.05, 0.0], [0.35, 0.5, 0.13, 0.02],'
                   ' [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]]},'
                   ' "run": {"death_mode": "probabilistic"}}'),
    "theta-nan": '{"detector": {"theta": NaN}}',
    # integer literals beyond the float range
    "capacity-huge-int": '{"energy": {"capacity": 1%s}}' % ("0" * 400),
    "drain-active-huge-int": '{"energy": {"drain": {"active": 1%s}}}' % ("0" * 400),
    "extra-drain-huge-int": '{"attack": {"kind": "rts_cts_flood", "extra_drain": 1%s}}' % ("0" * 400),
}

MALFORMED_POLICY_CONFIGS = {
    "ragged": '{"policy": {"probs": [[1, 0, 0, 0], [0, 1]]}}',
    "string": '{"policy": {"probs": [["a", 0, 0, 0]]}}',
    "boolean": ('{"policy": {"probs": [[0.7, 0.25, 0.05, 0.0], [0.35, 0.5, 0.13, 0.02],'
                ' [0.0, 0.38, 0.6, 0.02], [false, false, false, true]]}}'),
}


# the last is UTF-8, read under an ASCII locale: refused for its unknown section, not its bytes
UNREADABLE_CONFIGS = {
    "not-utf8": (b'{"network": {"n_deployed": 20}, "\xff": 1}', "error: scenario.json: not UTF-8: "),
    "repeated-key": (b'{"network": {"n_deployed": 20, "n_deployed": 30}}',
                     "error: repeated key 'n_deployed' in a JSON object\n"),
    "deep-lists": (b"[" * 200_000, "error: scenario.json: nested too deeply to parse\n"),
    "deep-objects": (b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
                     "error: scenario.json: nested too deeply to parse\n"),
    "long-integer": (b'{"network": {"n_deployed": ' + b"9" * 5000 + b"}}",
                     "error: scenario.json: a number too long to parse\n"),
    "utf8-ascii-locale": ('{"caf\u00e9": {}}'.encode(), "error: unknown top-level section(s): "),
}
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

# finite drains whose cost over the ticks a node can keep paying it overflows a battery total
OVERFLOWING_DRAINS = {
    "active": {"network": {"n_deployed": 20}, "run": {"max_ticks": 200},
               "energy": {"capacity": 300.0, "drain": {"active": 1e308, "inactive": 1.0}}},
    "extra": {"network": {"n_deployed": 20}, "run": {"max_ticks": 200},
              "energy": {"capacity": 300.0, "drain": {"active": 1e308, "inactive": 1.0}},
              "attack": {"kind": "rts_cts_flood", "extra_drain": 1e308}},
    "probabilistic": {"network": {"n_deployed": 20},
                      "run": {"max_ticks": 1000, "death_mode": "probabilistic"},
                      "energy": {"capacity": 300.0, "drain": {"active": 1e306, "inactive": 1e306}}},
}


class TestErrors:
    @pytest.mark.parametrize("data, message", UNREADABLE_CONFIGS.values(),
                             ids=UNREADABLE_CONFIGS.keys())
    @pytest.mark.parametrize("locale", [{}, ASCII_LOCALE], ids=["own-locale", "ascii-locale"])
    def test_unreadable_config_exits_one_without_traceback(self, tmp_path, data, message, locale):
        (tmp_path / "scenario.json").write_bytes(data)
        env = {**os.environ, "PYTHONPATH": str(Path(sleepwatch.__file__).parents[1]), **locale}
        done = subprocess.run([sys.executable, "-m", "sleepwatch.cli", "analyze", "--config",
                               "scenario.json"], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith(message) and done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    @pytest.mark.parametrize("doc", OVERFLOWING_DRAINS.values(), ids=OVERFLOWING_DRAINS.keys())
    def test_overflowing_drain_exits_one_at_config_load(self, tmp_path, command, doc):
        # a battery drained past -BATTERY_TOTAL_MAX used to reach the CSV writer as -inf
        write_config(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": str(Path(sleepwatch.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "sleepwatch.cli", command, "--config",
                               "scenario.json", "--out", "out"], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: a drain of up to ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    @pytest.mark.parametrize("text", NON_FINITE_CONFIGS.values(), ids=NON_FINITE_CONFIGS.keys())
    def test_non_finite_input_exits_one(self, tmp_path, capsys, command, text):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "simulate", "detect"])
    @pytest.mark.parametrize("text", MALFORMED_POLICY_CONFIGS.values(),
                             ids=MALFORMED_POLICY_CONFIGS.keys())
    def test_malformed_policy_exits_one(self, tmp_path, capsys, command, text):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'policy.probs")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "simulate", "detect"])
    @pytest.mark.parametrize("sleep_row,message", [
        ("[0.5, 0.15, 0.0, 0.0]", "error: SLEEP row sums to 0.65\n"),
        ("[0.65, 0.25, 0.05, 0.05]", "error: SLEEP -> DEAD must be 0, got 0.05\n"),
    ], ids=["row-sum", "forbidden-entry"])
    def test_bad_policy_message_prints_plain_numbers(self, tmp_path, capsys, command, sleep_row, message):
        config = tmp_path / "scenario.json"
        config.write_text('{"policy": {"probs": [%s, [0.35, 0.5, 0.13, 0.02],'
                          ' [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]]}}' % sleep_row)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("command", ["analyze", "simulate", "detect"])
    @pytest.mark.parametrize("detector,message", [
        ({"baseline_runs": 0}, "error: detector.baseline_runs must be at least 1, got 0\n"),
        ({"baseline_seed": -4}, "error: detector.baseline_seed must be a non-negative integer, got -4\n"),
    ], ids=["baseline-runs", "baseline-seed"])
    def test_bad_monte_carlo_setting_names_its_key(self, tmp_path, capsys, command, detector, message):
        config = write_config(tmp_path, readme_scenario(detector=detector))
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("command", ["analyze", "simulate", "detect"])
    @pytest.mark.parametrize("source", ["analytic", "monte_carlo"])
    @pytest.mark.parametrize("detector,message", [
        ({"theta": 1.5}, "error: detector.theta must lie in (0, 1], got 1.5\n"),
        ({"ticks_per_chain_step": -2.0},
         "error: detector.ticks_per_chain_step must be finite and > 0, got -2.0\n"),
    ], ids=["theta", "ticks-per-chain-step"])
    def test_bad_detector_setting_names_its_key(self, tmp_path, capsys, command, source,
                                                detector, message):
        config = write_config(tmp_path, readme_scenario(detector={"source": source, **detector}))
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("args, doc, message", [
        (["--runs", str(2**64)], readme_scenario(), "runs 18446744073709551616"),
        ([], readme_scenario(run={"runs": 2**64}), "runs 18446744073709551616"),
        ([], readme_scenario(detector={"baseline_runs": 2**64}), "detector.baseline_runs 18446744073709551616"),
    ], ids=["override", "run-runs", "baseline-runs"])
    def test_run_count_no_summary_can_hold_exits_one(self, tmp_path, capsys, args, doc, message):
        # analyze runs nothing, so a count it accepts shows as exit 0, not as an endless run
        config = write_config(tmp_path, doc)
        assert main(["analyze", "--config", config, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} is too large for numpy arrays\n"

    @pytest.mark.parametrize("command", ["analyze", "detect"])
    def test_bad_theta_override_names_its_key(self, tmp_path, capsys, command):
        config = write_config(tmp_path, readme_scenario())
        assert main([command, "--config", config, "--theta", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: detector.theta must lie in (0, 1], got 1.5\n"

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["simulate"],
        ["detect"],
        ["sweep", "--param", "coverage", "--values", "0,1"],
    ], ids=lambda command: command[0])
    def test_unusable_out_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        ran = []
        for name in ("run_many", "_build_baseline", "_analyze_report"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
        (tmp_path / "afile").write_text("")
        config = write_config(tmp_path, readme_scenario())
        assert main([*command, "--config", config, "--out", str(tmp_path / "afile" / "x")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ran == []

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["simulate"],
        ["detect"],
        ["sweep", "--param", "theta", "--values", "0.5"],
    ], ids=lambda command: command[0])
    def test_tick_budget_past_the_float_range_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                       command):
        ran = []
        for name in ("run_many", "_build_baseline", "_analyze_report"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
        config = write_config(tmp_path, readme_scenario(run={"max_ticks": 10**400}))
        out = tmp_path / "d"
        assert main([*command, "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_ticks {10**400} is too large for numpy arrays\n"
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 47.7 GiB for an array with shape (80001, 80001) and data type float64",
         "error: Unable to allocate 47.7 GiB for an array with shape (80001, 80001) and data type "
         "float64\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command, target", [
        (["analyze"], "build_matrix"),
        (["simulate", "--out", "traces"], "run_many"),
        (["detect"], "run_many"),
    ], ids=["analyze", "simulate", "detect"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             command, target, message, line):
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, refuse)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, readme_scenario(detector={"source": "analytic"}))
        assert main([command[0], "--config", config, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--out", "traces"], ["detect"]],
                             ids=["analyze", "simulate", "detect"])
    def test_node_count_numpy_cannot_size_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                            command):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, {"network": {"n_deployed": 10 ** 19}})
        assert main([command[0], "--config", config, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_deployed 10000000000000000000 is too large for numpy arrays\n"

    @pytest.mark.parametrize("command", [["simulate", "--out", "traces"], ["detect"]],
                             ids=["simulate", "detect"])
    def test_battery_total_overflow_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                      command):
        # each capacity is finite, but a trace's battery column sums all 20 of them
        ran = []
        monkeypatch.setattr(cli, "run_many", lambda *args, **kwargs: ran.append(args))
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, {"network": {"n_deployed": 20},
                                         "energy": {"capacity": 1e307}, "run": {"max_ticks": 5}})
        assert main([command[0], "--config", config, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: battery capacity 1e+307 is too large for 20 nodes: their total battery "
            f"must be at most {BATTERY_TOTAL_MAX!r}\n")
        assert ran == []

    def test_largest_accepted_capacity_writes_finite_traces(self, tmp_path, capsys):
        n = 20
        capacity = BATTERY_TOTAL_MAX / n
        while np.nextafter(capacity, np.inf) * n <= BATTERY_TOTAL_MAX:
            capacity = float(np.nextafter(capacity, np.inf))
        while capacity * n > BATTERY_TOTAL_MAX:
            capacity = float(np.nextafter(capacity, 0.0))
        doc = {"network": {"n_deployed": n}, "energy": {"capacity": capacity},
               "run": {"max_ticks": 5, "runs": 2}}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        batteries = [float(line.rsplit(",", 1)[1])
                     for line in (out / "run_000.csv").read_text().splitlines()[1:]]
        assert batteries[0] == pytest.approx(capacity * n, rel=1e-15)  # the sum rounds
        assert all(map(np.isfinite, batteries))
        above = {**doc, "energy": {"capacity": float(np.nextafter(capacity, np.inf))}}
        assert main(["simulate", "--config", write_config(tmp_path, above), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: battery capacity ")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("doc, extra", [
        (fast_scenario(run={"runs": 0}), []),
        (fast_scenario(), ["--runs", "0"]),
    ], ids=["config", "flag"])
    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_zero_runs_exit_one(self, tmp_path, capsys, doc, extra, command):
        config = write_config(tmp_path, doc)
        assert main([command, "--config", config, "--out", str(tmp_path / "out"), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: runs must be at least 1, got 0\n"

    def test_usage_error_exits_one(self, capsys):
        # argparse usage failures must not collide with the verdict exit codes
        assert main(["analyze"]) == 1
        assert main(["frobnicate", "--config", "x"]) == 1


#: every key the config format accepts, by section; the keys of
#: ``energy.drain`` are the node state names
CONFIG_KEYS = {
    "network": ("n_deployed", "initial_dead"),
    "policy": ("probs",),
    "energy": ("capacity", "drain"),
    "attack": ("kind", "coverage", "sleep_block", "extra_drain", "start_tick", "end_tick"),
    "detector": ("source", "theta", "ticks_per_chain_step", "baseline_runs", "baseline_seed"),
    "run": ("max_ticks", "seed", "runs", "death_mode"),
}


def test_fuzz_covers_every_config_key():
    assert {section: set(keys) for section, keys in CONFIG_KEYS.items()} == {
        section: set(readers) for section, readers in config._SECTIONS.items()}


FLOAT_KEYS = {"capacity", "coverage", "sleep_block", "extra_drain", "theta",
              "ticks_per_chain_step", "sleep", "active", "inactive", "dead", "probs"}
HUGE_INT = int("9" * 400)


def _fuzz_value(rng, key: str):
    """One malformed or boundary value for ``key``.

    Integers stay small, so no mutation makes n_deployed, max_ticks, runs
    or baseline_runs large; the 400-digit integer goes to float keys only.
    """
    choices = [
        "x", [], {}, [1, 2], {"a": 1},                 # wrong types
        [[1, 0, 0, 0], [0, 1]], [[[0.5]], 1],          # ragged and nested lists
        True, False, None,
        -1, 0, -int(rng.integers(2, 10**6)),           # negative or zero counts
        1, 2, 3, 0.5, -0.5, 1.5,
    ]
    if key in FLOAT_KEYS:
        choices += [HUGE_INT, -HUGE_INT, 0.0, 1e-9, 0.25, 1.0, 1e300]
    return choices[int(rng.integers(len(choices)))]


def _mutate(rng, doc: dict):
    """Apply one seeded mutation to ``doc``; may return a replacement document."""
    if not isinstance(doc, dict):
        return doc
    kind = int(rng.integers(6))
    if kind == 0:  # unknown key at the root or in a section
        target = doc if rng.random() < 0.3 else doc.setdefault(
            str(rng.choice(list(CONFIG_KEYS))), {})
        if isinstance(target, dict):
            target[f"bogus_{int(rng.integers(100))}"] = 1
        return doc
    if kind == 1:  # a whole section of the wrong type
        doc[str(rng.choice(list(CONFIG_KEYS)))] = _fuzz_value(rng, "section")
        return doc
    if kind == 2 and rng.random() < 0.1:  # the root itself
        return _fuzz_value(rng, "root")
    section = str(rng.choice(list(CONFIG_KEYS)))
    key = str(rng.choice(CONFIG_KEYS[section]))
    part = doc.setdefault(section, {})
    if not isinstance(part, dict):
        return doc
    if key == "drain" and rng.random() < 0.7:
        drain = part.setdefault("drain", {})
        if isinstance(drain, dict):
            state = str(rng.choice(["sleep", "active", "inactive", "dead"]))
            drain[state] = _fuzz_value(rng, state)
        return doc
    if key == "probs" and rng.random() < 0.7:
        probs = [[0.7, 0.25, 0.05, 0.0], [0.35, 0.5, 0.13, 0.02],
                 [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]]
        probs[int(rng.integers(4))][int(rng.integers(4))] = _fuzz_value(rng, "probs")
        part["probs"] = probs
        return doc
    part[key] = _fuzz_value(rng, key)
    return doc


class TestConfigFuzz:
    """Malformed documents derived from the README config never escape as tracebacks.

    The baseline shrinks to 4 runs so that the documents a mutation leaves
    valid still run in milliseconds.
    """

    @pytest.mark.parametrize("case", range(60))
    def test_fuzzed_config_exits_cleanly(self, tmp_path, capsys, case):
        rng = np.random.default_rng([20121, case])
        doc = readme_scenario(detector={"baseline_runs": 4})
        for _ in range(int(rng.integers(1, 3))):
            doc = _mutate(rng, doc)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc))
        for command in ("analyze", "simulate", "detect"):
            try:
                code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
            except Exception as exc:  # any escape is the failure this test looks for
                pytest.fail(f"{command} raised {exc!r} on {json.dumps(doc)[:300]}")
            captured = capsys.readouterr()
            assert code in (0, 1, 2, 3), (command, doc)
            if code == 1:
                assert captured.err.startswith("error:"), (command, doc, captured.err)
                assert captured.err.count("\n") == 1, (command, doc, captured.err)


def docstring_config() -> dict:
    """The example in :mod:`sleepwatch.config`'s docstring, which sets every key."""
    return json.loads(config.__doc__.split("::\n", 1)[1].split("\n\nPolicy rows", 1)[0])


def leaf_paths(doc, path: tuple = ()) -> list[tuple]:
    """The key or index path to every scalar in ``doc``."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in leaf_paths(value, path + (key,))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc) for leaf in leaf_paths(value, path + (i,))]
    return [path]


#: what a leaf may become; every integer is at most 200 or one the checks refuse, so no
#: mutation asks analyze for a large chain (N = 10**6 would ask np.diag for 5 TB)
LEAF_VALUES = [-7, -1, 0, 1, 2, 3, 20, 200, 2**64, 10**30, 0.0, 0.5, -2.5, 1.5, 1e308,
               True, False, None, "", "x", "energy", "rts_cts_flood", [], [1, 2], [[0.5, 0.5]],
               {}, {"a": 1}]
DELETE = object()


class TestDocstringConfigMutations:
    """One to three leaves of the full example config changed, a few hundred times over."""

    def test_parse_and_analyze_refuse_only_in_one_line(self, tmp_path, capsys):
        rng = np.random.default_rng(20127)
        paths = leaf_paths(docstring_config())
        path = tmp_path / "scenario.json"
        codes = set()
        for case in range(300):
            doc = docstring_config()
            for _ in range(int(rng.integers(1, 4))):
                *parents, leaf = paths[int(rng.integers(len(paths)))]
                parent = doc
                try:  # an earlier mutation may have replaced or removed the leaf
                    for key in parents:
                        parent = parent[key]
                    parent[leaf]
                except (KeyError, IndexError, TypeError):
                    continue
                value = DELETE if rng.random() < 0.1 else LEAF_VALUES[int(rng.integers(len(LEAF_VALUES)))]
                if value is not DELETE:
                    parent[leaf] = value
                elif isinstance(parent, dict):
                    del parent[leaf]
            text = json.dumps(doc)
            try:
                config.parse_config(doc)
            except sleepwatch.SleepwatchError:
                pass
            except Exception as exc:  # any escape is the failure this test looks for
                pytest.fail(f"parse_config raised {exc!r} on {text}")
            path.write_text(text)
            try:
                code = main(["analyze", "--config", str(path)])
            except Exception as exc:  # any escape is the failure this test looks for
                pytest.fail(f"analyze raised {exc!r} on {text}")
            captured = capsys.readouterr()
            codes.add(code)
            if code == 0:
                assert json.loads(captured.out)["m_threshold"] >= 2, text
            else:
                assert code == 1, text
                assert captured.out == "", text
                assert captured.err.startswith("error:") and captured.err.count("\n") == 1, (text, captured.err)
                assert "Traceback" not in captured.err, text
        assert codes == {0, 1}
