import re

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
from sleepwatch.lifecycle import ALLOWED, NodePolicy, NodeState, default_energy, default_policy
from sleepwatch.network import NetworkChainParams
from sleepwatch.rng import substream
from sleepwatch.simulate import NodeModel, ScenarioConfig

S, A, I, D = NodeState.SLEEP, NodeState.ACTIVE, NodeState.INACTIVE, NodeState.DEAD


class TestAttackModel:
    def test_no_attack_must_be_inert(self):
        with pytest.raises(ConfigInvalid):
            AttackModel(kind=AttackKind.NO_ATTACK, coverage=0.5)

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigInvalid):
            rts_cts_flood(start_tick=10, end_tick=5)

    @pytest.mark.parametrize("value", [0.5, True, np.float64(3.0), "3"])
    @pytest.mark.parametrize("name", ["start_tick", "end_tick"])
    def test_window_ticks_must_be_integers(self, name, value):
        with pytest.raises(ConfigInvalid, match=re.escape(f"{name} must be an integer, got {value!r}")):
            rts_cts_flood(**{name: value})

    def test_window_ticks_store_numpy_integers_as_int(self):
        model = rts_cts_flood(start_tick=np.int64(2), end_tick=np.uint8(9))
        assert model == rts_cts_flood(start_tick=2, end_tick=9)
        assert type(model.start_tick) is int and type(model.end_tick) is int

    def test_kind_must_be_an_attack_kind(self):
        with pytest.raises(ConfigInvalid, match="^kind must be an AttackKind, got str$"):
            AttackModel("rts_cts_flood", coverage=1.0)

    @pytest.mark.parametrize("build", [
        lambda **kw: AttackModel(AttackKind.RTS_CTS_FLOOD, **kw), rts_cts_flood, broadcast_replay,
    ], ids=["model", "flood", "replay"])
    @pytest.mark.parametrize("value", ["x", True, None, [0.5]])
    @pytest.mark.parametrize("name", ["coverage", "sleep_block", "extra_drain"])
    def test_intensities_must_be_real_numbers(self, build, name, value):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(f'{name} must be a real number, got {value!r}')}$"):
            build(**{name: value})

    def test_intensities_store_floats(self):
        model = rts_cts_flood(coverage=1, sleep_block=np.float32(0.5), extra_drain=2)
        assert model == rts_cts_flood(coverage=1.0, sleep_block=0.5, extra_drain=2.0)
        assert {type(model.coverage), type(model.sleep_block), type(model.extra_drain)} == {float}

    @pytest.mark.parametrize("extra_drain", [float("nan"), float("inf")])
    def test_extra_drain_must_be_finite(self, extra_drain):
        with pytest.raises(ConfigInvalid):
            rts_cts_flood(extra_drain=extra_drain)

    def test_default_intensities_differ_by_mechanism(self):
        flood, replay = rts_cts_flood(), broadcast_replay()
        assert flood.sleep_block == 0.9 and flood.extra_drain == 2.0
        assert replay.sleep_block == 0.6 and replay.extra_drain == 1.0

    def test_open_ended_window(self):
        config = ScenarioConfig(NetworkChainParams(10), max_ticks=10**9, seed=0, policy=default_policy(),
                                energy=default_energy(), attack=rts_cts_flood(start_tick=3))
        window = NodeModel.of(config).window
        assert 2 not in window
        assert 3 in window
        assert 10**9 in window


def assert_ids(ids: np.ndarray, size: int) -> None:
    """``ids`` is ``size`` distinct node ids, ascending, as int64."""
    assert ids.dtype == np.int64 and ids.shape == (size,)
    assert (np.diff(ids) > 0).all()


class TestAffectedSet:
    def test_no_attack_is_empty_and_consumes_no_randomness(self):
        rng = substream(5, 0)
        before = rng.bit_generator.state
        ids = affected_set(no_attack(), 100, rng)
        assert_ids(ids, 0)
        assert rng.bit_generator.state == before

    def test_full_coverage_hits_everyone(self):
        ids = affected_set(rts_cts_flood(coverage=1.0), 50, substream(5, 0))
        assert_ids(ids, 50)
        assert ids.tolist() == list(range(50))

    def test_half_coverage_is_seed_stable(self):
        first = affected_set(rts_cts_flood(coverage=0.5), 100, substream(9, 1))
        second = affected_set(rts_cts_flood(coverage=0.5), 100, substream(9, 1))
        assert_ids(first, 50)
        assert first.tolist() == second.tolist()

    def test_size_rounds_half_up(self):
        for coverage, node_count, size in [
            (0.5, 5, 3), (0.25, 100, 25), (0.3, 5, 2), (0.5, 1, 1), (0.1, 4, 0), (0.125, 4, 1),
        ]:
            assert_ids(affected_set(rts_cts_flood(coverage=coverage), node_count, substream(2, 0)), size)

    @pytest.mark.parametrize("seed,run_index", [(0, 0), (9, 1), (42, 7), (4242, 3)])
    @pytest.mark.parametrize("coverage,node_count", [(0.3, 20), (0.5, 20_000), (1.0, 3001)])
    def test_ids_are_the_sorted_permutation_prefix(self, seed, run_index, coverage, node_count):
        # the draw is one permutation of the node ids; the size rounds half up
        size = int(np.floor(coverage * node_count + 0.5))
        drawn = substream(seed, run_index).permutation(node_count)[:size]
        ids = affected_set(broadcast_replay(coverage=coverage), node_count, substream(seed, run_index))
        assert_ids(ids, size)
        assert ids.tolist() == sorted(frozenset(drawn.tolist()))


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
            transformed = NodePolicy(transform_policy(policy, model).probs)
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
                network=sw.NetworkChainParams(10), max_ticks=400, seed=7_000 + k,
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
            network=sw.NetworkChainParams(8), max_ticks=300, seed=99, policy=default_policy(),
            energy=sw.default_energy(), death_mode=sw.DeathMode.ENERGY, runs=1,
        )
        # an attacker that reaches no node draws its target set from its own
        # substream, so the stepping draws match the no-attack run exactly
        without = run_one(sw.ScenarioConfig(attack=no_attack(), **common), 0)
        unreached = run_one(sw.ScenarioConfig(attack=sw.rts_cts_flood(coverage=0.0), **common), 0)
        assert unreached == without
