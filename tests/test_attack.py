import numpy as np
import pytest

from conftest import random_node_policy
from scalar_oracle import attack_drain
from sleepwatch.attack import (
    AttackKind,
    AttackModel,
    affected_set,
    broadcast_replay,
    no_attack,
    rts_cts_flood,
    transform_policy,
)
from sleepwatch.errors import ConfigInvalid
from sleepwatch.lifecycle import ALLOWED, NodeState, default_policy, validate_policy
from sleepwatch.rng import substream

S, A, I, D = NodeState.SLEEP, NodeState.ACTIVE, NodeState.INACTIVE, NodeState.DEAD


class TestAttackModel:
    def test_no_attack_must_be_inert(self):
        with pytest.raises(ConfigInvalid):
            AttackModel(kind=AttackKind.NO_ATTACK, coverage=0.5)

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigInvalid):
            rts_cts_flood(start_tick=10, end_tick=5)

    @pytest.mark.parametrize("extra_drain", [float("nan"), float("inf")])
    def test_extra_drain_must_be_finite(self, extra_drain):
        with pytest.raises(ConfigInvalid):
            rts_cts_flood(extra_drain=extra_drain)

    def test_default_intensities_differ_by_mechanism(self):
        flood, replay = rts_cts_flood(), broadcast_replay()
        assert flood.sleep_block == 0.9 and flood.extra_drain == 2.0
        assert replay.sleep_block == 0.6 and replay.extra_drain == 1.0

    def test_open_ended_window(self):
        model = rts_cts_flood(start_tick=3)
        assert not model.in_window(2)
        assert model.in_window(3)
        assert model.in_window(10**9)


class TestAffectedSet:
    def test_no_attack_is_empty_and_consumes_no_randomness(self):
        rng = substream(5, 0)
        before = rng.bit_generator.state
        assert affected_set(no_attack(), 100, rng) == frozenset()
        assert rng.bit_generator.state == before

    def test_full_coverage_hits_everyone(self):
        assert affected_set(rts_cts_flood(coverage=1.0), 50, substream(5, 0)) == frozenset(range(50))

    def test_half_coverage_is_seed_stable(self):
        first = affected_set(rts_cts_flood(coverage=0.5), 100, substream(9, 1))
        second = affected_set(rts_cts_flood(coverage=0.5), 100, substream(9, 1))
        assert first == second
        assert len(first) == 50

    def test_size_rounds_half_up(self):
        assert len(affected_set(rts_cts_flood(coverage=0.5), 5, substream(2, 0))) == 3
        assert len(affected_set(rts_cts_flood(coverage=0.25), 100, substream(2, 0))) == 25


class TestTransformPolicy:
    def test_zero_block_is_identity(self):
        policy = default_policy()
        model = AttackModel(kind=AttackKind.BROADCAST_REPLAY, coverage=1.0, sleep_block=0.0)
        assert transform_policy(policy, model) is policy

    def test_full_block_moves_all_sleep_mass_to_active(self):
        transformed = transform_policy(default_policy(), rts_cts_flood(sleep_block=1.0))
        np.testing.assert_allclose(transformed.probs[S], [0.0, 0.95, 0.05, 0.0], atol=1e-15)

    def test_death_leakage_untouched(self):
        transformed = transform_policy(default_policy(), rts_cts_flood())
        assert transformed.probs[A, D] == default_policy().probs[A, D]
        assert transformed.probs[I, D] == default_policy().probs[I, D]

    def test_partial_block_scales_sleep_column(self):
        transformed = transform_policy(default_policy(), rts_cts_flood(sleep_block=0.9))
        assert transformed.probs[S, S] == pytest.approx(0.07, abs=1e-15)
        assert transformed.probs[A, S] == pytest.approx(0.035, abs=1e-15)

    def test_randomized_policies_keep_structure(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            policy = random_node_policy(rng)
            block = float(rng.random())
            model = AttackModel(kind=AttackKind.RTS_CTS_FLOOD, coverage=1.0, sleep_block=block)
            transformed = validate_policy(transform_policy(policy, model))
            assert np.all(transformed.probs[~ALLOWED] == 0.0)
            np.testing.assert_allclose(transformed.probs.sum(axis=1), 1.0, atol=1e-9)


class TestAttackDrain:
    def test_no_attack_never_drains(self):
        for state in NodeState:
            assert attack_drain(no_attack(), state, 12, affected=True) == 0.0

    def test_affected_active_node_in_window(self):
        model = rts_cts_flood(extra_drain=2.5)
        assert attack_drain(model, A, 100, affected=True) == 2.5
        assert attack_drain(model, I, 100, affected=True) == 2.5

    def test_sleeping_and_dead_nodes_receive_nothing(self):
        model = rts_cts_flood(extra_drain=2.5)
        assert attack_drain(model, S, 100, affected=True) == 0.0
        assert attack_drain(model, D, 100, affected=True) == 0.0

    def test_outside_window_or_unaffected(self):
        model = rts_cts_flood(extra_drain=2.5, start_tick=10, end_tick=20)
        assert attack_drain(model, A, 21, affected=True) == 0.0
        assert attack_drain(model, A, 15, affected=False) == 0.0


class TestMonotoneHarm:
    def test_attack_shortens_network_life_over_paired_seeds(self):
        import sleepwatch as sw
        from sleepwatch.simulate import run_one

        energy = sw.EnergyModel(120.0, np.array([0.1, 5.0, 1.0, 0.0]))
        deltas = []
        for k in range(100):
            common = dict(
                n_deployed=10, max_ticks=400, seed=7_000 + k,
                policy=default_policy(), energy=energy,
                death_mode=sw.DeathMode.ENERGY, runs=1,
            )
            normal = run_one(sw.ScenarioConfig(attack=no_attack(), **common), 0)
            attacked = run_one(sw.ScenarioConfig(attack=rts_cts_flood(), **common), 0)
            assert normal.network_death_tick is not None
            assert attacked.network_death_tick is not None
            deltas.append(normal.network_death_tick - attacked.network_death_tick)
        assert np.mean(deltas) > 0.0

    def test_no_attack_is_bit_identical_to_absent_attacker(self):
        import sleepwatch as sw
        from sleepwatch.simulate import run_one

        common = dict(
            n_deployed=8, max_ticks=300, seed=99, policy=default_policy(),
            energy=sw.default_energy(), death_mode=sw.DeathMode.ENERGY, runs=1,
        )
        with_model = run_one(sw.ScenarioConfig(attack=no_attack(), **common), 0)
        without = run_one(sw.ScenarioConfig(attack=None, **common), 0)
        assert with_model == without
