from dataclasses import astuple

import numpy as np
import pytest

import sleepwatch as sw
from scalar_oracle import scalar_run
from sleepwatch.errors import ConfigInvalid
from sleepwatch.lifecycle import NodePolicy, validate_policy
from sleepwatch.network import expected_death_time
from sleepwatch.simulate import (
    ScenarioConfig,
    dead_count_chain_view,
    run_many,
    run_one,
    simulate_chain,
    simulate_chain_trajectory,
)


def fast_death_policy() -> NodePolicy:
    """Probabilistic-death policy that kills nodes quickly, for short traces."""
    return validate_policy(
        NodePolicy(
            np.array(
                [
                    [0.2, 0.8, 0.0, 0.0],
                    [0.1, 0.5, 0.0, 0.4],
                    [0.0, 0.5, 0.1, 0.4],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
    )


def scenario(**overrides) -> ScenarioConfig:
    base = dict(
        n_deployed=5,
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
    def test_rejects_zero_ticks(self):
        with pytest.raises(ConfigInvalid):
            scenario(max_ticks=0)

    def test_rejects_single_node(self):
        with pytest.raises(ConfigInvalid):
            scenario(n_deployed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigInvalid):
            scenario(seed=-1)

    @pytest.mark.parametrize("m", [1, 6])
    def test_rejects_threshold_override_outside_chain_range(self, m):
        with pytest.raises(ConfigInvalid):
            scenario(m_override=m)

    def test_rejects_run_index_out_of_bounds(self):
        with pytest.raises(ConfigInvalid):
            run_one(scenario(runs=2), 2)


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


class TestChainView:
    def test_passthrough_when_below_threshold(self):
        trace = run_one(scenario(), 0)
        view = dead_count_chain_view(trace)
        assert view.tolist() == [min(rec.dead, 4) for rec in trace.per_tick]
        assert view[0] == 0

    def test_clamps_to_threshold(self):
        config = scenario(n_deployed=12, m_override=3, seed=8)
        trace = run_one(config, 0)
        view = dead_count_chain_view(trace)
        assert view.max() == 3
        assert trace.per_tick[-1].dead >= 3

    def test_empty_trace_gives_empty_view(self):
        empty = sw.SimulationTrace((), None, 4, 5, 0, 0)
        assert dead_count_chain_view(empty).size == 0


class TestChainSimulation:
    def test_matches_closed_form_death_time(self):
        result = simulate_chain(20, 1, runs=2000, seed=77)
        expected = expected_death_time(1, 20)
        se = result.steps.std(ddof=1) / np.sqrt(result.steps.size)
        assert abs(result.steps.mean() - expected) <= 3.0 * se

    def test_absorbing_start_takes_no_steps(self):
        result = simulate_chain(10, 0, runs=50, seed=3)
        assert np.all(result.steps == 0)
        assert np.all(result.absorbed_at == 0)

    def test_absorption_split_matches_death_probability(self):
        result = simulate_chain(10, 5, runs=4000, seed=11)
        frac = (result.absorbed_at == 10).mean()
        assert frac == pytest.approx(0.5, abs=0.05)

    def test_rejects_bad_state(self):
        with pytest.raises(ConfigInvalid):
            simulate_chain(10, 11, runs=10, seed=0)


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
