import json
from pathlib import Path

import jsonschema
import pytest

import sleepwatch
from sleepwatch.cli import main
from sleepwatch.serialize import TRACE_HEADER

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

    def test_requires_out_dir(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        assert main(["simulate", "--config", config]) == 1
        assert "--out" in capsys.readouterr().err

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

    def test_verdict_artifact(self, tmp_path, capsys):
        doc = fast_scenario(detector={"source": "monte_carlo", "baseline_runs": 10})
        config = write_config(tmp_path, doc)
        out = tmp_path / "v"
        main(["detect", "--config", config, "--out", str(out)])
        verdict = json.loads((out / "verdict.json").read_text())
        jsonschema.validate(verdict, schema("verdict.schema.json"))


class TestSweep:
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

    def test_unknown_parameter_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, fast_scenario())
        assert main(["sweep", "--config", config, "--param", "bogus", "--values", "1"]) == 1
        assert "bogus" in capsys.readouterr().err

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


class TestErrors:
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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 1

    def test_usage_error_exits_one(self, capsys):
        # argparse usage failures must not collide with the verdict exit codes
        assert main(["analyze"]) == 1
        assert main(["frobnicate", "--config", "x"]) == 1
