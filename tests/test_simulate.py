import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import sleepwatch as sw
from sleepwatch import network, simulate
from closed_form_oracle import chain_absorptions
from exact_law_oracle import death_cdf, death_tick_cdf, death_tick_mean, node_model
from scalar_oracle import scalar_run
from sleepwatch.attack import transform_policy
from sleepwatch.errors import ConfigInvalid, TooFewNodes
from sleepwatch.lifecycle import NodePolicy, expected_node_lifetime, strip_death_transitions
from sleepwatch.network import NetworkChainParams, expected_death_time
from sleepwatch.rng import STEP_STREAM, substream
from sleepwatch.simulate import (
    RunSummary,
    ScenarioConfig,
    run_many,
    run_one,
    simulate_chain_trajectory,
)


def fast_death_policy() -> NodePolicy:
    """Probabilistic-death policy that kills nodes quickly, for short traces."""
    return NodePolicy(
        np.array(
            [
                [0.2, 0.8, 0.0, 0.0],
                [0.1, 0.5, 0.0, 0.4],
                [0.0, 0.5, 0.1, 0.4],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    )


def scenario(n_deployed: int = 5, m_threshold: int | None = None, **overrides) -> ScenarioConfig:
    base = dict(
        network=NetworkChainParams(n_deployed, m_threshold=m_threshold),
        max_ticks=400,
        seed=4242,
        policy=fast_death_policy(),
        energy=sw.default_energy(),
        attack=sw.no_attack(),
        death_mode=sw.DeathMode.PROBABILISTIC,
        runs=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize("name, value, message", [
        ("death_mode", "energy", "death_mode must be a DeathMode, got str"),
        ("network", 20, "network must be a NetworkChainParams, got int"),
        ("energy", None, "energy must be an EnergyModel, got NoneType"),
        ("policy", "default", "policy must be a NodePolicy, got str"),
        ("attack", sw.AttackKind.RTS_CTS_FLOOD, "attack must be an AttackModel, got AttackKind"),
    ], ids=["death-mode", "network", "energy", "policy", "attack"])
    def test_rejects_a_field_of_the_wrong_type(self, name, value, message):
        # replace() builds a new config, so it is checked as a constructed one is
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            replace(scenario(), **{name: value})

    @pytest.mark.parametrize("runs", [network._MAX_ITEMS + 1, 2**64])
    def test_rejects_more_runs_than_numpy_can_size(self, runs):
        with pytest.raises(ConfigInvalid, match=f"^runs {runs} is too large for numpy arrays$"):
            scenario(runs=runs)

    def test_rejects_zero_ticks(self):
        with pytest.raises(ConfigInvalid):
            scenario(max_ticks=0)

    def test_rejects_single_node(self):
        with pytest.raises(TooFewNodes):
            scenario(n_deployed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigInvalid):
            scenario(seed=-1)

    def test_rejects_missing_attack_model(self):
        # "no attacker" is no_attack(), the default; None is not a second spelling of it
        base = scenario()
        default = ScenarioConfig(network=base.network, max_ticks=base.max_ticks, seed=base.seed,
                                 policy=base.policy, energy=base.energy)
        assert default.attack == sw.no_attack()
        with pytest.raises(ConfigInvalid, match="attack must be an AttackModel"):
            scenario(attack=None)

    def test_rejects_policy_that_is_not_a_node_policy(self):
        with pytest.raises(ConfigInvalid, match="policy must be a NodePolicy"):
            scenario(policy=np.eye(4))

    @pytest.mark.parametrize("m", [1, 6])
    def test_rejects_threshold_override_outside_chain_range(self, m):
        with pytest.raises(ConfigInvalid):
            scenario(m_threshold=m)

    def test_rejects_run_index_out_of_bounds(self):
        with pytest.raises(ConfigInvalid):
            run_one(scenario(runs=2), 2)

    @pytest.mark.parametrize("run_index", [1.5, True, np.float64(0.0)])
    def test_rejects_non_integer_run_index(self, run_index):
        with pytest.raises(ConfigInvalid, match=re.escape(f"run_index must be an integer, got {run_index!r}")):
            run_one(scenario(runs=2), run_index)

    def test_numpy_run_index_is_stored_as_int(self):
        config = scenario(runs=2)
        trace = run_one(config, np.int64(1))
        assert type(trace.run_index) is int
        assert trace == run_one(config, 1)

    @pytest.mark.parametrize("value", [10.5, True, np.float64(40.0), "40"])
    @pytest.mark.parametrize("name", ["max_ticks", "runs", "seed"])
    def test_rejects_non_integer(self, name, value):
        with pytest.raises(ConfigInvalid, match=re.escape(f"{name} must be an integer, got {value!r}")):
            scenario(**{name: value})

    def test_numpy_integers_are_stored_as_int(self):
        config = scenario(max_ticks=np.int64(400), runs=np.int32(3), seed=np.uint16(4242))
        assert [type(v) for v in (config.max_ticks, config.runs, config.seed)] == [int] * 3
        assert run_many(config) == run_many(scenario(runs=3))

    # N batteries a tick's largest cost past full, for one tick in energy mode (a dead
    # node's undershoot) and for max_ticks in probabilistic mode, must stay finite
    @pytest.mark.parametrize("active, extra", [(1e308, 0.0), (5.0, 1e308), (1e308, 1e308)])
    def test_rejects_drain_whose_undershoot_overflows_in_energy_mode(self, active, extra):
        attack = sw.rts_cts_flood(extra_drain=extra) if extra else sw.no_attack()
        with pytest.raises(ConfigInvalid, match=r"per tick for 1 tick\(s\) is too large for 20 nodes"):
            scenario(n_deployed=20, energy=sw.EnergyModel(300.0, [0.1, active, 1.0, 0.0]),
                     attack=attack, death_mode=sw.DeathMode.ENERGY)

    def test_rejects_drain_that_overflows_over_max_ticks_in_probabilistic_mode(self):
        energy = sw.EnergyModel(300.0, [0.1, 1e306, 1.0, 0.0])
        with pytest.raises(ConfigInvalid, match=r"per tick for 1000 tick\(s\) is too large"):
            scenario(n_deployed=20, energy=energy, max_ticks=1000)
        scenario(n_deployed=20, energy=energy, max_ticks=1000, death_mode=sw.DeathMode.ENERGY)
        scenario(n_deployed=20, energy=energy, max_ticks=4)  # 20 * 4 * 1e306 is finite

    def test_huge_max_ticks_is_refused_without_overflow_error(self):
        for death_mode in sw.DeathMode:
            with pytest.raises(ConfigInvalid, match=f"^max_ticks {10**400} is too large for numpy arrays$"):
                scenario(max_ticks=10**400, death_mode=death_mode)


def five_node_records(*dead: int) -> tuple:
    """Records of five nodes from tick 0 on, with the given dead counts and the rest asleep."""
    return tuple(simulate.TickRecord(tick, d, 5 - d, 0, 0, 1000.0 * (5 - d)) for tick, d in enumerate(dead))


class TestRunOne:
    def test_five_nodes_die_at_threshold_four(self):
        trace = run_one(scenario(), 0)
        assert trace.m_threshold == 4
        assert trace.network_death_tick is not None
        final = trace.per_tick[-1]
        assert final.dead >= 4
        assert all(rec.dead < 4 for rec in trace.per_tick[:-1])
        assert final.tick == trace.network_death_tick

    def test_initial_record_is_all_sleeping(self):
        trace = run_one(scenario(), 0)
        first = trace.per_tick[0]
        assert (first.tick, first.dead, first.sleep) == (0, 0, 5)
        assert first.battery == 5 * sw.default_energy().capacity

    def test_repeat_invocation_bit_identical(self):
        config = scenario(runs=2, seed=77)
        assert run_one(config, 1) == run_one(config, 1)

    def test_counts_conserved_and_dead_monotone(self):
        trace = run_one(scenario(n_deployed=30, seed=5), 0)
        previous_dead = 0
        for rec in trace.per_tick:
            assert rec.dead + rec.sleep + rec.active + rec.inactive == 30
            assert rec.dead >= previous_dead
            previous_dead = rec.dead

    def test_immortal_scenario_has_no_death(self):
        # no probabilistic death and nothing drains: nodes cannot die
        immortal = scenario(
            policy=sw.default_policy(),
            energy=sw.EnergyModel(10.0, np.zeros(4)),
            death_mode=sw.DeathMode.ENERGY,
            max_ticks=50,
        )
        trace = run_one(immortal, 0)
        assert trace.network_death_tick is None
        assert all(rec.dead == 0 for rec in trace.per_tick)
        assert trace.elapsed_ticks == 50

    def test_energy_mode_matches_battery_budget(self):
        config = scenario(
            policy=sw.default_policy(),
            energy=sw.EnergyModel(100.0, np.array([0.5, 4.0, 2.0, 0.0])),
            death_mode=sw.DeathMode.ENERGY,
            n_deployed=10,
            max_ticks=500,
        )
        trace = run_one(config, 0)
        assert trace.network_death_tick is not None
        # at full active drain the battery lasts 25 ticks, at full sleep 200
        assert 25 <= trace.network_death_tick <= 200

    def test_holds_few_bytes_per_node(self):
        # at N = 20,000 the live arrays, the draw pool and one tick's temporaries
        # peak at 1.32 MB; 8-byte attack offsets (1.55 MB) or all five live
        # arrays copied before the old ones are freed (1.58 MB) break the bound
        config = scenario(n_deployed=20_000, policy=sw.default_policy(), death_mode=sw.DeathMode.ENERGY,
                          energy=sw.EnergyModel(60.0, sw.default_energy().drain),
                          attack=sw.rts_cts_flood(coverage=0.5))
        run_one(config)  # a first call also pays for one-time imports and caches
        tracemalloc.start()
        try:
            trace = run_one(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.network_death_tick is not None
        assert peak < 1_450_000

    @pytest.mark.parametrize("dead, death_tick", [
        ((0, 1, 3, 4), 3),
        ((0, 1, 2, 3), None),
        ((0, 2, 4, 5, 5), 2),
    ], ids=["death-on-last", "censored", "first-crossing"])
    def test_death_tick_and_n_derive_from_the_records(self, dead, death_tick):
        trace = simulate.SimulationTrace(five_node_records(*dead), 4, 7)
        assert (trace.network_death_tick, trace.n_deployed) == (death_tick, 5)
        assert (trace.elapsed_ticks, trace.m_threshold, trace.run_index) == (len(dead) - 1, 4, 7)

    @pytest.mark.parametrize("name", ["network_death_tick", "n_deployed"])
    def test_derived_fields_cannot_be_passed_in(self, name):
        simulate.SimulationTrace(per_tick=five_node_records(0), m_threshold=4, run_index=0)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            simulate.SimulationTrace(per_tick=five_node_records(0), m_threshold=4, run_index=0,
                                     **{name: 1})

    @pytest.mark.parametrize("args, message", [
        (("x", 16, 0), "per_tick must be a tuple, got str"),
        (([simulate.TickRecord(0, 0, 5, 0, 0, 5.0)], 16, 0), "per_tick must be a tuple, got list"),
        (((), 16, 0), "per_tick must hold at least one record"),
        (((5,), 16, 0), "per_tick record must be a TickRecord, got int"),
        (((simulate.TickRecord(0, 0, 5, 0, 0, "x"),), 16, 0), "battery must be a real number, got 'x'"),
        (((simulate.TickRecord(0, 0, 5, 0, 0, float("nan")),), 16, 0), "battery must be finite, got nan"),
        (((simulate.TickRecord(0.0, 0, 5, 0, 0, 5.0),), 16, 0), "tick must be an integer, got 0.0"),
        (((simulate.TickRecord(0, True, 5, 0, 0, 5.0),), 16, 0), "dead must be an integer, got True"),
        ((five_node_records(0), 0, 0), "m_threshold must be at least 1, got 0"),
        ((five_node_records(0), "4", 0), "m_threshold must be an integer, got '4'"),
        ((five_node_records(0), 4, -1), "run_index must be a non-negative integer, got -1"),
        ((five_node_records(0), 10**400, 0), f"m_threshold {10**400} is too large for numpy arrays"),
    ], ids=["str", "list", "empty", "not-a-record", "battery-str", "battery-nan", "tick-float",
            "dead-bool", "m-zero", "m-str", "run-index-negative", "m-huge"])
    def test_refuses_what_no_run_could_give(self, args, message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            simulate.SimulationTrace(*args)

    @pytest.mark.parametrize("records, message", [
        # at M from its first record, then a jump to tick 7, a falling dead count and
        # 10 nodes after 5: detect judged it under attack at tick 0
        ((simulate.TickRecord(0, 4, 1, 0, 0, 5.0), simulate.TickRecord(7, 1, 9, 0, 0, 5.0)),
         "record 0 has 4 dead nodes, not 0"),
        (five_node_records(0, 1)[:1] + five_node_records(0, 1, 2)[2:], "record 1 is at tick 2, not 1"),
        (five_node_records(0, 1)[1:], "record 0 is at tick 1, not 0"),
        (five_node_records(1, 2), "record 0 has 1 dead nodes, not 0"),
        (five_node_records(0, 1) + (simulate.TickRecord(2, 1, 3, 0, 0, 3.0),),
         "record 2 counts 4 nodes, record 0 5"),
        (five_node_records(0, 2, 1), "dead count falls from 2 to 1 at tick 2"),
    ], ids=["dead-at-tick-0-and-tick-7", "tick-skipped", "first-tick-not-0", "dead-at-tick-0",
            "node-lost", "dead-count-falls"])
    def test_refuses_records_no_run_could_give(self, records, message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            simulate.SimulationTrace(records, 4, 0)


class TestScalarOracle:
    # dyadic drains let a battery reach exactly 0.0, which the death rule must count
    ENERGY = dict(policy=sw.default_policy(), death_mode=sw.DeathMode.ENERGY,
                  energy=sw.EnergyModel(60.0, np.array([0.125, 5.0, 1.0, 0.0])))

    @pytest.mark.parametrize("overrides", [
        dict(ENERGY),
        dict(ENERGY, attack=sw.rts_cts_flood(coverage=0.5, start_tick=5, end_tick=30)),
        dict(ENERGY, attack=sw.broadcast_replay()),
        dict(),
    ], ids=["energy", "flood-window", "replay", "probabilistic"])
    def test_run_one_matches_node_by_node_loop(self, overrides):
        config = scenario(n_deployed=12, runs=4, **overrides)
        for k in range(config.runs):
            trace = run_one(config, k)
            rows, death_tick = scalar_run(config, k)
            assert [astuple(rec) for rec in trace.per_tick] == rows
            assert trace.network_death_tick == death_tick
            assert death_tick is not None

    def test_battery_column_after_compaction_matches_node_by_node_loop(self):
        # numpy's pairwise sum blocks only past 128 elements, and a 0.1 drain makes
        # the sums inexact, so with 300 nodes the battery column pins that all N
        # batteries are summed in node order after dead nodes have left the
        # kernel's live arrays
        config = scenario(n_deployed=300, policy=sw.default_policy(), death_mode=sw.DeathMode.ENERGY,
                          energy=sw.EnergyModel(60.0, np.array([0.1, 5.0, 1.0, 0.0])),
                          attack=sw.rts_cts_flood(coverage=0.5, start_tick=5, end_tick=30))
        trace = run_one(config)
        rows, death_tick = scalar_run(config)
        assert [astuple(rec) for rec in trace.per_tick] == rows
        assert trace.network_death_tick == death_tick
        first_death = next(rec.tick for rec in trace.per_tick if rec.dead)
        assert first_death < death_tick - 10

    @pytest.mark.parametrize("extra_drain", [0.0, 0.1, 2.0, 1 / 3])
    def test_row_costs_are_the_drain_expression(self, extra_drain):
        drain = np.array([0.1, 5.0, 1.0, 0.0])
        config = scenario(energy=sw.EnergyModel(60.0, drain),
                          attack=sw.rts_cts_flood(coverage=0.5, extra_drain=extra_drain))
        costs = simulate.NodeModel.of(config).costs
        assert costs.shape == (8,)
        for s in range(4):
            for affected in (False, True):
                for in_window in (False, True):
                    attacked = np.array([affected & in_window])
                    state = np.array([s])
                    expected = drain[state] + extra_drain * (attacked & (state != sw.NodeState.SLEEP))
                    assert costs[s + 4 * (affected and in_window)] == expected[0]


# Runs `simulate` with run_one's per-tick state counts, a list of four ints,
# corrupted by {corrupt}; the class keeps CORRUPTED_COUNT_SCRIPT's name, whose
# corruptions it shares.
ONE_RUN_CORRUPTED_COUNT_SCRIPT = """
import sys
from sleepwatch import simulate
from sleepwatch.cli import main

count_states = simulate._count_states

class CorruptedNumpy:
    calls = 0

def corrupted_count_states(states):
    counts = count_states(states)
    CorruptedNumpy.calls += 1
    {corrupt}
    return counts

simulate._count_states = corrupted_count_states
sys.exit(main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


# Runs `simulate` (or, with the name replaced, `detect`) with every np.bincount
# count corrupted by {corrupt}: only a lockstep group of more than one run, such as
# `detect`'s Monte Carlo baseline, calls it.
CORRUPTED_COUNT_SCRIPT = """
import sys
import numpy as np
from sleepwatch import simulate
from sleepwatch.cli import main

class CorruptedNumpy:
    calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, states, minlength=0):
        counts = np.bincount(states, minlength=minlength)
        CorruptedNumpy.calls += 1
        {corrupt}
        return counts

simulate.np = CorruptedNumpy()
sys.exit(main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


# With this battery run 0 of the corruption configs, as `simulate` and as
# `detect`'s baseline step it, loses its first node by tick 11 and has 1 dead
# at ticks 12 and 13, so a phantom death at tick 12 lands after the kernel
# rebuilt its live arrays, and is gone at tick 13.
SMALL_BATTERY = {"energy": {"capacity": 35.0}}
PHANTOM_AFTER_REBUILD = "if CorruptedNumpy.calls == 12: counts[0] -= 1; counts[3] += 1"


class TestInvariantChecks:
    """The per-tick invariants still hold under ``python -O``, which drops asserts."""

    @pytest.mark.parametrize("corrupt,message,extra", [
        # a phantom death at tick 1 that is gone at tick 2
        ("if CorruptedNumpy.calls == 1: counts[0] -= 1; counts[3] += 1", "dead count fell", {}),
        ("counts[0] += 1", "nodes counted", {}),
        (PHANTOM_AFTER_REBUILD, "dead count fell from 2 to 1 at tick 13 in run 0", SMALL_BATTERY),
    ], ids=["dead-count-falls", "node-appears", "dead-count-falls-after-rebuild"])
    def test_violation_exits_one_under_optimize(self, tmp_path, corrupt, message, extra):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"network": {"n_deployed": 10}, "run": {"max_ticks": 20},
                                      **extra}))
        script = ONE_RUN_CORRUPTED_COUNT_SCRIPT.format(corrupt=corrupt)
        env = {**os.environ, "PYTHONPATH": str(Path(sw.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", script, str(config), str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:") and message in done.stderr, done.stderr
        assert done.stderr.count("\n") == 1


class TestRunMany:
    def test_single_run_mean_is_that_run(self):
        summary = run_many(scenario())
        assert summary.mean_death_tick == summary.death_ticks[0]
        assert summary.censored_count == 0
        assert summary.std_death_tick is None

    def test_censored_runs_excluded(self):
        immortal = scenario(
            policy=sw.default_policy(),
            energy=sw.EnergyModel(10.0, np.zeros(4)),
            death_mode=sw.DeathMode.ENERGY,
            max_ticks=30,
            runs=3,
        )
        summary = run_many(immortal)
        assert summary.censored_count == 3
        assert summary.mean_death_tick is None
        assert summary.std_death_tick is None

    def test_summary_deterministic(self):
        config = scenario(runs=4, seed=31)
        first, second = run_many(config), run_many(config)
        assert first.death_ticks == second.death_ticks
        assert first.mean_death_tick == second.mean_death_tick


#: A censored 200-tick trace: nothing drains and no node dies of its policy.
CENSORED_200 = run_one(scenario(policy=sw.default_policy(), energy=sw.EnergyModel(10.0, np.zeros(4)),
                                death_mode=sw.DeathMode.ENERGY, max_ticks=200))


class TestRunSummary:
    """A summary is built from its death ticks alone; every other count derives from them."""

    @pytest.mark.parametrize("ticks,runs,censored,mean,std", [
        ([5, None, 7, 9, None], 5, 2, 7.0, 2.0),
        ((None, None, None), 3, 3, None, None),
        ((100,) + (None,) * 9, 10, 9, 100.0, None),
        ((), 0, 0, None, None),
    ], ids=["mixed", "all-censored", "single-death", "zero-runs"])
    def test_fields_derive_from_the_ticks(self, ticks, runs, censored, mean, std):
        summary = RunSummary(1000, ticks)
        assert summary.death_ticks == tuple(ticks)
        assert (summary.runs, summary.censored_count) == (runs, censored)
        assert (summary.mean_death_tick, summary.std_death_tick) == (mean, std)
        assert summary.traces == ()

    @pytest.mark.parametrize("overrides", [
        dict(runs=4, seed=31),
        dict(policy=sw.default_policy(), energy=sw.EnergyModel(10.0, np.zeros(4)),
             death_mode=sw.DeathMode.ENERGY, max_ticks=30, runs=3),
        dict(TestScalarOracle.ENERGY, n_deployed=12, max_ticks=38, runs=7),
    ], ids=["uncensored", "all-censored", "some-censored"])
    def test_run_many_is_its_death_ticks(self, overrides):
        config = scenario(**overrides)
        summary = run_many(config)
        assert summary == RunSummary(config.max_ticks, summary.death_ticks)
        kept = run_many(config, keep_traces=True)
        assert kept == RunSummary(config.max_ticks, summary.death_ticks, kept.traces)

    @pytest.mark.parametrize("args, message", [
        (("x", (1,)), "max_ticks must be an integer, got 'x'"),
        ((0, ()), "max_ticks must be at least 1, got 0"),
        ((10, (20,)), "death tick 20 outside [1, 10]"),
        ((10, (5, 0)), "death tick 0 outside [1, 10]"),
        ((10, "ab"), "death tick must be an integer, got 'a'"),
        ((10, (2.0,)), "death tick must be an integer, got 2.0"),
        ((10, 5), "death_ticks must be a Sequence, got int"),
        ((10, (5,), None), "traces must be a tuple, got NoneType"),
        ((10, (5,), ("trace",)), "trace must be a SimulationTrace, got str"),
        ((10**400, (10**400,)), f"max_ticks {10**400} is too large for numpy arrays"),
        ((100, (50, None), (CENSORED_200, CENSORED_200)), "trace 0 has death tick None, not 50"),
        ((10, (None,), (CENSORED_200,)), "trace 0 runs 200 ticks, past max_ticks 10"),
        ((200, (None, None), (CENSORED_200,)), "one trace per death tick: got 1 for 2"),
    ], ids=["max-ticks-str", "max-ticks-zero", "late", "zero", "str", "float", "int", "traces-none",
            "trace-str", "huge", "trace-death-tick", "trace-too-long", "trace-count"])
    def test_refuses_what_no_run_could_give(self, args, message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            RunSummary(*args)

    def test_stores_numpy_ticks_as_int(self):
        summary = RunSummary(np.int64(10), [np.int64(3), None, np.uint8(10)])
        assert summary == RunSummary(10, (3, None, 10))
        assert {type(summary.max_ticks)} | {type(t) for t in summary.death_ticks} == {int, type(None)}

    @pytest.mark.parametrize("name", ["runs", "censored_count", "mean_death_tick", "std_death_tick"])
    def test_derived_fields_cannot_be_passed_in(self, name):
        RunSummary(max_ticks=10, death_ticks=(3,))
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            RunSummary(max_ticks=10, death_ticks=(3,), **{name: 1})


def summary_fields(summary) -> tuple:
    return (summary.death_ticks, summary.mean_death_tick, summary.std_death_tick,
            summary.censored_count)


class TestLockstep:
    """``run_many`` steps runs in lockstep groups; each run must come out as run_one steps it."""

    CASES = {
        "energy": dict(TestScalarOracle.ENERGY),
        "flood-window": dict(TestScalarOracle.ENERGY,
                             attack=sw.rts_cts_flood(coverage=0.5, start_tick=5, end_tick=30)),
        "replay": dict(TestScalarOracle.ENERGY, attack=sw.broadcast_replay()),
        "probabilistic": dict(),
        # runs of 12 nodes die at ticks 33..42 here, so the window opens mid-run
        "flood-opens-mid-run": dict(TestScalarOracle.ENERGY,
                                    attack=sw.rts_cts_flood(coverage=0.5, start_tick=20)),
        # ... and with this budget some runs are censored and some are not
        "censored": dict(TestScalarOracle.ENERGY, max_ticks=38),
    }

    @pytest.mark.parametrize("n_deployed", [3, 12, 20, 129])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_run_path_and_scalar_oracle(self, case, n_deployed):
        config = scenario(n_deployed=n_deployed, runs=5, **self.CASES[case])
        lockstep = run_many(config)
        per_run = run_many(config, keep_traces=True)
        assert lockstep.traces == () and len(per_run.traces) == 5
        assert summary_fields(lockstep) == summary_fields(per_run)
        assert lockstep.death_ticks == tuple(scalar_run(config, k)[1] for k in range(5))
        if case == "censored" and n_deployed == 12:
            assert None in lockstep.death_ticks and lockstep.censored_count < 5

    @pytest.mark.parametrize("case", CASES)
    def test_uneven_groups_give_the_same_runs(self, monkeypatch, case):
        config = scenario(n_deployed=12, runs=7, **self.CASES[case])
        whole = run_many(config)
        groups = []
        step_runs = simulate._step_runs

        def spy(config, run_indices, record=False):
            groups.append(list(run_indices))
            return step_runs(config, run_indices, record)

        monkeypatch.setattr(simulate, "LOCKSTEP_SLOTS", 32)  # 32 // 12: two runs a group
        monkeypatch.setattr(simulate, "_step_runs", spy)
        split = run_many(config)
        assert groups == [[0, 1], [2, 3], [4, 5], [6]]
        assert summary_fields(split) == summary_fields(whole)
        assert split.death_ticks == tuple(run_one(config, k).network_death_tick for k in range(7))

    def test_only_a_group_of_one_records(self):
        # the records are one run's: a larger group would sum every run's batteries
        # into them and record past the first run's death
        config = scenario(n_deployed=5, runs=2)
        with pytest.raises(ValueError, match="only a group of one run records its ticks, got 2"):
            simulate._step_runs(config, range(2), record=True)

    @pytest.mark.parametrize("corrupt,message,extra", [
        ("if CorruptedNumpy.calls == 1: counts[0] -= 1; counts[3] += 1",
         "dead count fell from 1 to 0 at tick 2 in run 0", {}),
        ("counts[0] += 1", "11 nodes counted at tick 1 in run 0, 10 deployed", {}),
        (PHANTOM_AFTER_REBUILD, "dead count fell from 2 to 1 at tick 13 in run 0", SMALL_BATTERY),
    ], ids=["dead-count-falls", "node-appears", "dead-count-falls-after-rebuild"])
    def test_invariant_violation_exits_one_under_optimize(self, tmp_path, corrupt, message, extra):
        # detect's Monte Carlo baseline steps its 5 runs as one lockstep group
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"network": {"n_deployed": 10}, "run": {"max_ticks": 20},
                                      "detector": {"source": "monte_carlo", "baseline_runs": 5},
                                      **extra}))
        script = CORRUPTED_COUNT_SCRIPT.format(corrupt=corrupt)
        detect_script = script.replace('main(["simulate"', 'main(["detect"')
        assert detect_script != script
        env = {**os.environ, "PYTHONPATH": str(Path(sw.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", detect_script, str(config),
                               str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr == f"error: {message}\n"


def policy_with(state: sw.NodeState, row: list[float]) -> NodePolicy:
    """The default policy with one live row replaced."""
    probs = np.array(sw.default_policy().probs)
    probs[state] = row
    return NodePolicy(probs)


class TestDeadEdgeGuard:
    """A draw reaches a live row's third cumulative edge only where that edge is below 1.0.

    The kernel compares the draws against the third edges only when some live
    row, plain or attacked, has one below 1.0. Renormalizing a row can leave
    its third edge just below 1.0 (0.33, 0.56, 0.11 does), and a draw past
    it must then land on DEAD, as it does in probabilistic mode.
    """

    LIVE_ROWS = [0, 1, 2, 4, 5, 6]  # the kernel's plain and attacked rows of states 0..2

    @pytest.fixture(autouse=True)
    def latest_draws(self, monkeypatch):
        latest = np.nextafter(1.0, 0.0)  # the largest uniform random() returns
        monkeypatch.setattr(simulate._DrawPool, "take",
                            lambda pool, live: np.full(int(live.sum()), latest))

    @staticmethod
    def third_edges(config: ScenarioConfig) -> np.ndarray:
        base = strip_death_transitions(config.policy)
        rows = np.vstack((base.probs, transform_policy(base, config.attack).probs))
        return np.cumsum(rows, axis=1)[TestDeadEdgeGuard.LIVE_ROWS, 2]

    @pytest.mark.parametrize("policy,attack,death_tick", [
        # every node reaches the third edge of its sleep row on tick 1 ...
        (policy_with(sw.NodeState.SLEEP, [0.33, 0.56, 0.11, 0.0]), sw.no_attack(), 1),
        # ... of its inactive row on tick 2, after the exact sleep row took it there ...
        (policy_with(sw.NodeState.INACTIVE, [0.0, 0.01, 0.04, 0.95]), sw.no_attack(), 2),
        # ... and of an attacked sleep row whose plain row has an exact edge
        (policy_with(sw.NodeState.SLEEP, [0.13, 0.47, 0.40, 0.0]),
         sw.rts_cts_flood(coverage=1.0, sleep_block=0.5, extra_drain=0.0), 1),
    ], ids=["sleep-row", "inactive-row", "attacked-sleep-row"])
    def test_draw_past_an_edge_below_one_lands_on_dead(self, policy, attack, death_tick):
        config = scenario(runs=3, policy=policy, attack=attack, death_mode=sw.DeathMode.ENERGY,
                          energy=sw.EnergyModel(1000.0, sw.default_energy().drain), max_ticks=20)
        assert self.third_edges(config).min() < 1.0
        trace = run_one(config)
        assert trace.network_death_tick == death_tick
        assert trace.per_tick[-1].dead == 5 and trace.per_tick[-2].dead == 0
        assert run_many(config).death_ticks == (death_tick,) * 3

    @pytest.mark.parametrize("policy,attack", [
        (sw.default_policy(), sw.no_attack()),
        (sw.default_policy(), sw.rts_cts_flood(coverage=1.0)),
        (policy_with(sw.NodeState.SLEEP, [0.13, 0.47, 0.40, 0.0]), sw.no_attack()),
    ], ids=["default", "default-flood", "exact-sleep-row"])
    def test_draw_below_an_edge_of_one_never_lands_on_dead(self, policy, attack):
        config = scenario(runs=3, policy=policy, attack=attack, death_mode=sw.DeathMode.ENERGY,
                          energy=sw.EnergyModel(1000.0, sw.default_energy().drain), max_ticks=20)
        assert (self.third_edges(config) == 1.0).all()
        trace = run_one(config)
        assert trace.network_death_tick is None and trace.per_tick[-1].dead == 0
        assert run_many(config).death_ticks == (None,) * 3


class TestKernelPaths:
    """The paths a group takes by its size and by whether it records."""

    @pytest.mark.parametrize("case", TestLockstep.CASES)
    def test_groups_of_one_run_give_the_same_runs(self, monkeypatch, case):
        # a group of one run that records nothing counts its states in Python ints
        # and keeps no node indices
        config = scenario(n_deployed=12, runs=7, **TestLockstep.CASES[case])
        groups = []
        step_runs = simulate._step_runs

        def spy(config, run_indices, record=False):
            groups.append((list(run_indices), record))
            return step_runs(config, run_indices, record)

        monkeypatch.setattr(simulate, "LOCKSTEP_SLOTS", 11)  # below N: one run a group
        monkeypatch.setattr(simulate, "_step_runs", spy)
        single = run_many(config)
        assert groups == [([k], False) for k in range(7)]
        assert single.death_ticks == tuple(run_one(config, k).network_death_tick for k in range(7))
        assert single.death_ticks == tuple(scalar_run(config, k)[1] for k in range(7))

    @pytest.mark.parametrize("capacity,m_threshold,seed,death_tick", [
        (0.1, None, 4242, 1),  # every battery reaches 0.0 on tick 1
        (0.2, None, 4242, 2),  # ... on tick 2, after a tick without deaths
        (60.0, 2, 4249, 16),   # the run's first two deaths reach M
    ], ids=["all-die-at-tick-1", "all-die-at-tick-2", "first-deaths-reach-m"])
    def test_battery_column_when_the_first_deaths_stop_the_run(self, capacity, m_threshold, seed,
                                                              death_tick):
        # the run never rebuilds its live arrays, so its battery column is their sum
        # throughout; 300 nodes and a 0.1 drain make the order of that sum matter
        config = scenario(n_deployed=300, m_threshold=m_threshold, seed=seed,
                          policy=sw.default_policy(), death_mode=sw.DeathMode.ENERGY,
                          energy=sw.EnergyModel(capacity, np.array([0.1, 5.0, 1.0, 0.0])))
        trace = run_one(config)
        rows, scalar_death_tick = scalar_run(config)
        assert [astuple(rec) for rec in trace.per_tick] == rows
        assert trace.network_death_tick == scalar_death_tick == death_tick
        assert next(rec.tick for rec in trace.per_tick if rec.dead) == death_tick

    @pytest.mark.parametrize("n,slots", [
        (20, 409), (200, 40), (1000, 8), (20_000, 1), (20_001, 1), (20_001, 3),
    ])
    def test_group_row_sums_equal_each_run_sum(self, n, slots):
        # a group's battery column could be its batteries' row sums only if each
        # equals the sum of that run's own array bit for bit
        rng = np.random.default_rng(n * slots)
        all_batteries = 60.0 - 0.1 * rng.integers(0, 700, size=slots * n)
        row_sums = all_batteries.reshape(slots, n).sum(axis=1)
        run_sums = [all_batteries[k * n:(k + 1) * n].copy().sum() for k in range(slots)]
        assert row_sums.tobytes() == np.array(run_sums).tobytes()


def random_pieces(rng: np.random.Generator, total: int) -> list[int]:
    """Random lengths, zeros among them, that add up to ``total``."""
    cuts = np.sort(rng.integers(0, total + 1, size=int(rng.integers(1, 30))))
    pieces = np.diff(np.concatenate(([0], cuts, [total]))).tolist()
    return [0] + pieces + [0]


class TestSplitInvariance:
    """The draw pool rests on PCG64 doubles being split-invariant; pin it."""

    @pytest.mark.parametrize("trial", range(40))
    def test_pieces_equal_one_call(self, trial):
        rng = np.random.default_rng(trial)
        seed, k = int(rng.integers(0, 2**32)), int(rng.integers(0, 1000))
        total = int(rng.integers(0, 3000))
        whole = substream(seed, k, STEP_STREAM).random(total)

        stream = substream(seed, k, STEP_STREAM)
        drawn = [stream.random(c) for c in random_pieces(rng, total)]
        assert np.concatenate(drawn).tobytes() == whole.tobytes()

        # the same pieces written with out= into row slices of a 2-D buffer
        pieces = random_pieces(rng, total)
        buffer = np.full((3, max(pieces) + 5), np.nan)
        stream, got = substream(seed, k, STEP_STREAM), []
        for c in pieces:
            row, at = int(rng.integers(0, 3)), int(rng.integers(0, 6))
            stream.random(out=buffer[row, at:at + c])
            got.append(buffer[row, at:at + c].copy())
        assert np.concatenate(got).tobytes() == whole.tobytes()


def naive_draws(streams, live) -> np.ndarray:
    """The kernel's draws before the pool: one random(c) per running run, concatenated."""
    draws = [stream.random(c) for stream, c in zip(streams, live) if c]
    return np.concatenate(draws) if draws else np.empty(0)


class TestDrawPool:
    """``_DrawPool`` hands each run the uniforms one random(c) call per tick would."""

    @pytest.mark.parametrize("budget", [1, 7, 40, 333, simulate.DRAW_POOL])
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_per_stream_draws(self, monkeypatch, budget, trial):
        monkeypatch.setattr(simulate, "DRAW_POOL", budget)
        rng = np.random.default_rng(1000 + trial)
        # a group of one run reads slices of its row, a larger group gathers
        runs = 1 if trial % 2 else int(rng.integers(2, 9))
        n, max_ticks = int(rng.integers(1, 30)), int(rng.integers(1, 80))
        seed = int(rng.integers(0, 2**32))
        streams = [substream(seed, k, STEP_STREAM) for k in range(runs)]
        pool = simulate._DrawPool(streams, n, max_ticks)
        naive = [substream(seed, k, STEP_STREAM) for k in range(runs)]
        live = np.full(runs, n)
        for _ in range(max_ticks):
            got = pool.take(live)
            assert got.tobytes() == naive_draws(naive, live).tobytes()
            # live counts only fall, and a run that reaches 0 has stopped for good
            live = np.where(live > 0, live - rng.binomial(live, 0.1), 0)
            live[rng.random(runs) < 0.05] = 0

    def test_single_run_draws_are_a_view_of_the_pool(self):
        pool = simulate._DrawPool([substream(3, 0, STEP_STREAM)], 20000, 150)
        u = pool.take(np.array([19990]))
        assert u.size == 19990 and np.shares_memory(u, pool.rows)

    @pytest.mark.parametrize("runs,n,max_ticks", [
        (1, 5, 3), (300, 20, 600), (409, 20, 600), (1, 20000, 5), (1, 40000, 2), (3, 20000, 2),
        (5, 12, 38),
    ])
    def test_pool_stays_within_its_budget(self, runs, n, max_ticks):
        streams = [substream(9, k, STEP_STREAM) for k in range(runs)]
        pool = simulate._DrawPool(streams, n, max_ticks)
        rows, shape = pool.rows, pool.rows.shape
        # whole ticks of draws, at most the budget unless one tick of the group exceeds it,
        # and never more ticks than the run can step
        assert shape[0] == runs and shape[1] % n == 0
        assert rows.size <= max(simulate.DRAW_POOL, runs * n)
        assert shape[1] <= n * max_ticks
        live = np.full(runs, n)
        for _ in range(max_ticks):
            pool.take(live)
            live = live - (live > 0)
        assert pool.rows is rows and rows.shape == shape  # refills never grow the buffer

    def test_run_many_groups_stay_within_the_budget(self, monkeypatch):
        sizes = []
        init = simulate._DrawPool.__init__

        def spy(self, streams, n, max_ticks):
            init(self, streams, n, max_ticks)
            sizes.append((len(streams), n, self.rows.size))

        monkeypatch.setattr(simulate._DrawPool, "__init__", spy)
        for n_deployed in (3, 20, 129):
            run_many(scenario(n_deployed=n_deployed, runs=300, max_ticks=10))
        run_one(scenario(n_deployed=40000, max_ticks=1))
        assert sizes and all(size <= simulate.DRAW_POOL for _, n, size in sizes if n <= 129)
        assert sizes[-1] == (1, 40000, 40000)

    @pytest.mark.parametrize("budget", [1, 100, 1000])
    @pytest.mark.parametrize("case", TestLockstep.CASES)
    def test_any_budget_gives_the_same_runs(self, monkeypatch, budget, case):
        # budget 1 refills every run's row on nearly every tick; with 12 nodes, 100
        # and 1000 hold 1 and 11 ticks for a group of 7, and 4 and 41 for a group of 2,
        # so a row is rarely a whole number of a run's per-tick draws
        config = scenario(n_deployed=12, runs=7, **TestLockstep.CASES[case])
        whole = run_many(config)
        traces = [run_one(config, k) for k in range(7)]
        monkeypatch.setattr(simulate, "DRAW_POOL", budget)
        pooled = run_many(config)
        pooled_traces = [run_one(config, k) for k in range(7)]
        monkeypatch.setattr(simulate, "LOCKSTEP_SLOTS", 32)  # uneven groups of 2, 2, 2, 1
        uneven = run_many(config)
        assert summary_fields(pooled) == summary_fields(uneven) == summary_fields(whole)
        assert pooled_traces == traces
        for k, trace in enumerate(pooled_traces):
            rows, death_tick = scalar_run(config, k)
            assert [astuple(rec) for rec in trace.per_tick] == rows
            assert pooled.death_ticks[k] == trace.network_death_tick == death_tick


class TestChainSimulation:
    def test_matches_closed_form_death_time(self):
        steps, _ = chain_absorptions(20, 1, runs=2000, seed=77)
        expected = expected_death_time(1, 20)
        se = steps.std(ddof=1) / np.sqrt(steps.size)
        assert abs(steps.mean() - expected) <= 3.0 * se

    def test_absorbing_start_takes_no_steps(self):
        steps, absorbed_at = chain_absorptions(10, 0, runs=50, seed=3)
        assert np.all(steps == 0)
        assert np.all(absorbed_at == 0)

    def test_absorption_split_matches_death_probability(self):
        _, absorbed_at = chain_absorptions(10, 5, runs=4000, seed=11)
        frac = (absorbed_at == 10).mean()
        assert frac == pytest.approx(0.5, abs=0.05)

    def test_rejects_bad_state(self):
        with pytest.raises(ConfigInvalid):
            simulate_chain_trajectory(10, 11, 1.0, seed=0, max_ticks=10)


class TestExactLaw:
    """``run_many`` against the exact law of the death tick (``exact_law_oracle``)."""

    def test_node_death_cdf_matches_expected_lifetime(self):
        policy = sw.default_policy()
        cdf = death_cdf(policy.probs, policy.probs, lambda t: False, 20_000)
        assert float((1.0 - cdf).sum()) == pytest.approx(expected_node_lifetime(policy), rel=1e-9)

    @pytest.mark.parametrize("attack, exact_mean", [
        (sw.no_attack(), 139.049),
        (sw.rts_cts_flood(coverage=0.5), 107.459),
        (sw.rts_cts_flood(coverage=1.0), 78.683),
        (sw.rts_cts_flood(coverage=1.0, end_tick=30), 114.359),
    ], ids=["no-attack", "coverage-0.5", "coverage-1.0", "coverage-1.0-until-30"])
    def test_death_ticks_follow_the_exact_law(self, attack, exact_mean):
        config = scenario(20, policy=sw.default_policy(), attack=attack, max_ticks=3000, runs=2000)
        assert config.network.m_threshold == 16
        cdf = death_tick_cdf(config)
        mean = death_tick_mean(cdf)
        assert mean == pytest.approx(exact_mean, abs=1e-3)
        summary = run_many(config)
        assert summary.censored_count == 0
        standard_error = summary.std_death_tick / np.sqrt(summary.runs)
        assert abs(summary.mean_death_tick - mean) <= 4.0 * standard_error
        ticks = np.sort(summary.death_ticks)
        empirical = np.searchsorted(ticks, np.arange(cdf.size), side="right") / ticks.size
        assert np.abs(empirical - cdf).max() <= 1.95 / np.sqrt(summary.runs)

    README_ENERGY = sw.EnergyModel(300.0, np.array([0.1, 5.0, 1.0, 0.0]))

    def test_float_battery_landing_on_zero_dies_a_tick_late(self):
        # a node that only sleeps pays 0.1 from 300.0: exactly 0 after 3,000 ticks, in floats not yet
        always_asleep = NodePolicy([[1.0, 0.0, 0.0, 0.0], [0.35, 0.5, 0.13, 0.02],
                                    [0.0, 0.38, 0.6, 0.02], [0.0, 0.0, 0.0, 1.0]])
        config = scenario(5, policy=always_asleep, energy=self.README_ENERGY,
                          death_mode=sw.DeathMode.ENERGY, max_ticks=3100)
        assert run_one(config).network_death_tick == 3001
        assert np.flatnonzero(death_tick_cdf(config))[0] == 3000
        assert np.flatnonzero(death_tick_cdf(config, late=True))[0] == 3001

    @pytest.mark.parametrize("window", [{}, dict(start_tick=5, end_tick=20)], ids=["open", "5-20"])
    @pytest.mark.parametrize("mode", list(sw.DeathMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("attack", [sw.no_attack(), sw.rts_cts_flood(), sw.broadcast_replay()],
                             ids=lambda attack: attack.kind.value)
    def test_oracle_node_model_is_the_kernel_model(self, attack, mode, window):
        # the README config under each attack, mode and window
        config = scenario(20, policy=sw.default_policy(), energy=self.README_ENERGY, death_mode=mode,
                          attack=replace(attack, **window), max_ticks=600, seed=42)
        kernel, oracle = simulate.NodeModel.of(config), node_model(config)
        assert kernel.probs.shape == (8, 4) and kernel.probs.tobytes() == oracle.rows.tobytes()
        assert kernel.costs.shape == (8,) and kernel.costs.tolist() == oracle.costs
        assert kernel.attacked == oracle.k == (20 if attack.coverage else 0)
        ticks = range(config.max_ticks + 2)
        assert [t in kernel.window for t in ticks] == [oracle.in_window(t) for t in ticks]
        assert kernel.energy_death == oracle.energy == (mode is sw.DeathMode.ENERGY)

    @pytest.mark.parametrize("attack, exact_mean, mean_gap, sup_gap", [
        (sw.no_attack(), 158.838, 0.0499, 0.0072),
        (sw.rts_cts_flood(coverage=0.5), 147.940, 0.0482, 0.0063),
        (sw.rts_cts_flood(coverage=1.0), 55.559, 0.0000, 0.0000),
    ], ids=["no-attack", "coverage-0.5", "coverage-1.0"])
    def test_energy_death_ticks_follow_the_exact_law(self, attack, exact_mean, mean_gap, sup_gap):
        config = scenario(20, policy=sw.default_policy(), energy=self.README_ENERGY, attack=attack,
                          death_mode=sw.DeathMode.ENERGY, max_ticks=600, runs=2000)
        assert config.network.m_threshold == 16
        cdf, late = death_tick_cdf(config), death_tick_cdf(config, late=True)
        mean, late_mean = death_tick_mean(cdf), death_tick_mean(late)
        assert mean == pytest.approx(exact_mean, abs=1e-3)
        # float rounding only delays a death, so the simulated law lies between these two
        assert late_mean - mean == pytest.approx(mean_gap, abs=1e-4)
        assert np.abs(late - cdf).max() == pytest.approx(sup_gap, abs=1e-4)
        summary = run_many(config)
        assert summary.censored_count == 0
        standard_error = summary.std_death_tick / np.sqrt(summary.runs)
        assert mean - 4.0 * standard_error <= summary.mean_death_tick <= late_mean + 4.0 * standard_error
        ticks = np.sort(summary.death_ticks)
        empirical = np.searchsorted(ticks, np.arange(cdf.size), side="right") / ticks.size
        assert np.abs(empirical - cdf).max() <= 1.95 / np.sqrt(summary.runs) + np.abs(late - cdf).max()


class TestChainTrajectory:
    def test_starts_at_initial_state_and_stops_at_boundary(self):
        view = simulate_chain_trajectory(6, 3, step_prob=1.0, seed=21, max_ticks=100_000)
        assert view[0] == 3
        assert view[-1] in (0, 6)
        assert np.all(np.abs(np.diff(view)) <= 1)

    def test_absorbed_start_is_single_tick(self):
        view = simulate_chain_trajectory(6, 0, step_prob=0.5, seed=21, max_ticks=50)
        assert view.tolist() == [0]

    def test_thinning_slows_movement(self):
        moves_fast = moves_slow = 0
        for k in range(40):
            fast = simulate_chain_trajectory(20, 10, 1.0, seed=900, max_ticks=200, run_index=k)
            slow = simulate_chain_trajectory(20, 10, 0.25, seed=901, max_ticks=200, run_index=k)
            moves_fast += int(np.abs(np.diff(fast)).sum())
            moves_slow += int(np.abs(np.diff(slow)).sum())
        assert moves_slow < moves_fast

    def test_rejects_bad_step_prob(self):
        with pytest.raises(ConfigInvalid):
            simulate_chain_trajectory(6, 3, step_prob=0.0, seed=1, max_ticks=10)

    def test_rejects_bool_step_prob(self):
        with pytest.raises(ConfigInvalid, match=re.escape("step_prob must lie in (0, 1], got True")):
            simulate_chain_trajectory(6, 3, step_prob=True, seed=1, max_ticks=10)

    @pytest.mark.parametrize("max_ticks", [-1, -2])
    def test_rejects_negative_max_ticks(self, max_ticks):
        with pytest.raises(ConfigInvalid, match=f"^max_ticks must be a non-negative integer, got {max_ticks}$"):
            simulate_chain_trajectory(6, 3, step_prob=1.0, seed=1, max_ticks=max_ticks)

    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("name", ["m", "initial_dead", "seed", "max_ticks", "run_index"])
    def test_rejects_non_integer(self, name, value):
        args = {"m": 60, "initial_dead": 30, "seed": 1, "max_ticks": 50, "run_index": 0, name: value}
        with pytest.raises(ConfigInvalid, match=re.escape(f"{name} must be an integer, got {value!r}")):
            simulate_chain_trajectory(step_prob=1.0, **args)

    @pytest.mark.parametrize("name", ["seed", "run_index"])
    def test_rejects_negative_stream_key(self, name):
        args = {"seed": 1, "run_index": 0, name: -1}
        with pytest.raises(ConfigInvalid, match=f"^{name} must be a non-negative integer, got -1$"):
            simulate_chain_trajectory(60, 30, 1.0, max_ticks=50, **args)

    def test_numpy_integers_keep_their_draws(self):
        view = simulate_chain_trajectory(np.int64(60), np.int32(30), 0.5, np.uint16(7),
                                         np.int64(200), run_index=np.int8(2))
        assert view.tobytes() == simulate_chain_trajectory(60, 30, 0.5, 7, 200, run_index=2).tobytes()

    def test_short_run_does_not_hold_the_tick_budget(self):
        view = simulate_chain_trajectory(6, 3, step_prob=1.0, seed=21, max_ticks=1_000_000)
        assert view.size < 1_000
        assert view.base is None or view.base.nbytes == view.nbytes

    def test_unabsorbed_run_holds_every_tick_of_the_budget(self):
        view = simulate_chain_trajectory(60, 30, step_prob=0.01, seed=1, max_ticks=50)
        assert view.dtype == np.int64 and view.size == 51
        assert 0 < view[-1] < 60

    def test_zero_ticks_is_start_state_only(self):
        view = simulate_chain_trajectory(6, 3, step_prob=1.0, seed=1, max_ticks=0)
        assert view.tolist() == [3]
