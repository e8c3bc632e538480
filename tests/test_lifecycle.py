import numpy as np
import pytest

from conftest import random_node_policy
from scalar_oracle import Node, step_node
from sleepwatch.errors import ConfigInvalid, ForbiddenTransition, NoAbsorptionPath, NotStochastic
from sleepwatch.lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    default_energy,
    default_policy,
    expected_node_lifetime,
    n_step_death_probability,
    strip_death_transitions,
    validate_policy,
)
from sleepwatch.rng import substream
from sleepwatch.simulate import ScenarioConfig, run_one

S, A, I, D = NodeState.SLEEP, NodeState.ACTIVE, NodeState.INACTIVE, NodeState.DEAD


def collapsed_policy(rows: dict[NodeState, list[float]]) -> NodePolicy:
    """Policy where unspecified rows fall back to something harmless but valid."""
    probs = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    for state, row in rows.items():
        probs[state] = row
    return validate_policy(NodePolicy(probs))


class TestValidatePolicy:
    def test_default_policy_is_valid(self):
        validate_policy(default_policy())

    def test_sleep_to_dead_forbidden(self):
        probs = np.array(default_policy().probs, copy=True)
        probs[S, D] = 0.1
        probs[S, S] -= 0.1
        with pytest.raises(ForbiddenTransition):
            validate_policy(NodePolicy(probs))

    def test_inactive_to_sleep_forbidden(self):
        probs = np.array(default_policy().probs, copy=True)
        probs[I, S] = 0.2
        probs[I, I] -= 0.2
        with pytest.raises(ForbiddenTransition):
            validate_policy(NodePolicy(probs))

    def test_dead_row_must_be_identity(self):
        probs = np.array(default_policy().probs, copy=True)
        probs[D] = [0.0, 0.0, 0.5, 0.5]
        with pytest.raises(ForbiddenTransition):
            validate_policy(NodePolicy(probs))

    def test_rejects_nan_entry(self):
        probs = np.array(default_policy().probs, copy=True)
        probs[S, S] = np.nan
        with pytest.raises(NotStochastic):
            validate_policy(NodePolicy(probs))

    def test_rejects_bad_row_sum(self):
        probs = np.array(default_policy().probs, copy=True)
        probs[A, A] += 0.05
        with pytest.raises(NotStochastic):
            validate_policy(NodePolicy(probs))


class TestEnergyModel:
    def test_default_is_valid(self):
        default_energy()

    def test_rejects_drain_ordering_violation(self):
        with pytest.raises(ConfigInvalid):
            EnergyModel(capacity=10.0, drain=np.array([2.0, 1.0, 0.5, 0.0]))

    def test_rejects_dead_drain(self):
        with pytest.raises(ConfigInvalid):
            EnergyModel(capacity=10.0, drain=np.array([0.1, 5.0, 1.0, 0.5]))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigInvalid):
            EnergyModel(capacity=0.0, drain=np.array([0.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("capacity", [np.nan, np.inf])
    def test_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(ConfigInvalid):
            EnergyModel(capacity=capacity, drain=np.array([0.1, 5.0, 1.0, 0.0]))

    def test_rejects_infinite_drain(self):
        with pytest.raises(ConfigInvalid):
            EnergyModel(capacity=10.0, drain=np.array([0.1, np.inf, 1.0, 0.0]))


class TestStepNode:
    def test_dead_node_unchanged_and_draws_nothing(self):
        rng = substream(1, 0)
        before = rng.bit_generator.state
        node = Node(id=0, state=D, battery=-2.0)
        assert step_node(node, default_policy(), default_energy(), rng) is node
        assert rng.bit_generator.state == before

    def test_battery_exhaustion_forces_death(self):
        policy = collapsed_policy({A: [0.0, 1.0, 0.0, 0.0], S: [0.0, 1.0, 0.0, 0.0]})
        energy = EnergyModel(capacity=10.0, drain=np.array([0.0, 2.0, 0.0, 0.0]))
        node = Node(id=0, state=A, battery=1.0)
        stepped = step_node(node, policy, energy, substream(3, 0), DeathMode.ENERGY)
        assert stepped.battery == -1.0
        assert stepped.state is D

    def test_probabilistic_mode_ignores_battery(self):
        policy = collapsed_policy({A: [0.0, 1.0, 0.0, 0.0], S: [0.0, 1.0, 0.0, 0.0]})
        energy = EnergyModel(capacity=10.0, drain=np.array([0.0, 2.0, 0.0, 0.0]))
        node = Node(id=0, state=A, battery=1.0)
        stepped = step_node(node, policy, energy, substream(3, 0), DeathMode.PROBABILISTIC)
        assert stepped.state is A
        assert stepped.battery == -1.0

    def test_fixed_seed_reproduces_state_sequence(self):
        def trajectory() -> list[NodeState]:
            rng = substream(42, 5)
            node = Node(id=0, state=S, battery=default_energy().capacity)
            states = []
            for _ in range(200):
                node = step_node(node, default_policy(), default_energy(), rng)
                states.append(node.state)
            return states

        assert trajectory() == trajectory()


class TestExpectedLifetime:
    def test_geometric_death_from_active(self):
        policy = collapsed_policy(
            {S: [0.0, 1.0, 0.0, 0.0], A: [0.0, 0.9, 0.0, 0.1], I: [0.0, 1.0, 0.0, 0.0]}
        )
        assert expected_node_lifetime(policy, start=A) == pytest.approx(10.0, rel=1e-12)

    def test_two_state_loop_from_sleep(self):
        # t_sleep = 1 + t_active, t_active = 1 + t_sleep / 2
        policy = collapsed_policy(
            {S: [0.0, 1.0, 0.0, 0.0], A: [0.5, 0.0, 0.0, 0.5], I: [0.0, 0.0, 0.0, 1.0]}
        )
        assert expected_node_lifetime(policy) == pytest.approx(4.0, rel=1e-12)

    def test_unreachable_death_rejected(self):
        policy = collapsed_policy(
            {
                S: [0.5, 0.5, 0.0, 0.0],
                A: [0.5, 0.5, 0.0, 0.0],
                I: [0.0, 1.0, 0.0, 0.0],
            }
        )
        with pytest.raises(NoAbsorptionPath):
            expected_node_lifetime(policy)


class TestNStepDeath:
    def test_starts_alive(self):
        assert n_step_death_probability(default_policy(), 0) == 0.0

    def test_half_life_cubed(self):
        policy = collapsed_policy(
            {S: [0.0, 1.0, 0.0, 0.0], A: [0.0, 0.5, 0.0, 0.5], I: [0.0, 0.0, 1.0, 0.0]}
        )
        assert n_step_death_probability(policy, 3, start=A) == pytest.approx(0.875, abs=1e-15)

    def test_monotone_and_converges_to_one(self):
        policy = default_policy()
        previous = 0.0
        for n in range(0, 257, 16):
            current = n_step_death_probability(policy, n)
            assert current >= previous - 1e-12
            previous = current
        assert n_step_death_probability(policy, 4096) == pytest.approx(1.0, abs=1e-9)


class TestStripDeathTransitions:
    def test_removes_dead_column_and_renormalizes(self):
        stripped = strip_death_transitions(default_policy())
        assert np.all(stripped.probs[:3, D] == 0.0)
        np.testing.assert_allclose(stripped.probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(stripped.probs[A, S], 0.35 / 0.98, rtol=1e-12)

    def test_rejects_row_with_no_live_mass(self):
        policy = collapsed_policy({A: [0.0, 0.0, 0.0, 1.0]})
        with pytest.raises(ConfigInvalid):
            strip_death_transitions(policy)


class TestEnergyConservation:
    def test_sequential_replay_is_exact_with_dyadic_drains(self):
        energy = EnergyModel(capacity=64.0, drain=np.array([0.125, 4.0, 1.0, 0.0]))
        rng = substream(11, 0)
        node = Node(id=0, state=S, battery=energy.capacity)
        drained = []
        for _ in range(500):
            if node.state is D:
                break
            drained.append(float(energy.drain[node.state]))
            node = step_node(node, default_policy(), energy, rng, DeathMode.ENERGY)
        replay = energy.capacity
        for d in drained:
            replay -= d
        assert node.battery == replay

    def test_sequential_replay_matches_default_drains(self):
        energy = default_energy()
        rng = substream(12, 0)
        node = Node(id=0, state=S, battery=energy.capacity)
        replay = energy.capacity
        for _ in range(300):
            drained = float(energy.drain[node.state])
            node = step_node(node, default_policy(), energy, rng, DeathMode.PROBABILISTIC)
            replay -= drained
        assert node.battery == replay


def sample_lifetimes(policy: NodePolicy, count: int, seed: int) -> np.ndarray:
    """Death tick of every node in one probabilistic-death run of ``count`` nodes.

    The run's threshold is ``count``, so it lasts until the last node dies;
    each tick's rise in the dead count is that many nodes dying at it.
    """
    config = ScenarioConfig(n_deployed=count, max_ticks=10_000_000, seed=seed, policy=policy,
                            energy=default_energy(), death_mode=DeathMode.PROBABILISTIC,
                            m_override=count)
    trace = run_one(config)
    assert trace.network_death_tick is not None
    ticks = np.array([rec.tick for rec in trace.per_tick])
    dead = np.array([rec.dead for rec in trace.per_tick])
    lifetimes = np.repeat(ticks[1:], np.diff(dead))
    assert lifetimes.size == count
    return lifetimes


class TestEmpiricalAgreement:
    def test_sampled_lifetimes_match_analytic_mean(self):
        policy = default_policy()
        lifetimes = sample_lifetimes(policy, 10_000, seed=77)
        analytic = expected_node_lifetime(policy)
        se = lifetimes.std(ddof=1) / np.sqrt(lifetimes.size)
        assert abs(lifetimes.mean() - analytic) <= 3.0 * se

    def test_randomized_policies_have_consistent_lifetimes(self):
        rng = np.random.default_rng(31337)
        checked = 0
        while checked < 5:
            policy = random_node_policy(rng)
            try:
                analytic = expected_node_lifetime(policy)
            except NoAbsorptionPath:
                continue
            if analytic > 2000:
                continue
            checked += 1
            lifetimes = sample_lifetimes(policy, 4000, seed=1000 + checked)
            se = lifetimes.std(ddof=1) / np.sqrt(lifetimes.size)
            assert abs(lifetimes.mean() - analytic) <= 4.0 * se
