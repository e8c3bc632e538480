"""Acceptance suite: one test per shipped criterion, with a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import numpy as np
import pytest

import sleepwatch as sw
from closed_form_oracle import chain_absorptions
from conftest import random_absorbing_chain, random_node_policy
from sleepwatch import chain
from sleepwatch.attack import AttackModel, AttackKind, rts_cts_flood
from sleepwatch.cli import main
from sleepwatch.detect import Decision, compute_baseline, detect
from sleepwatch.errors import ForbiddenTransition
from sleepwatch.lifecycle import NodePolicy, NodeState
from sleepwatch.network import (
    NetworkChainParams,
    build_matrix,
    death_probability,
    expected_death_time,
    expected_visits_closed,
)
from sleepwatch.simulate import run_one


def _ok(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_death_probability_closed_form():
    worst_linear = 0.0
    worst_oracle = 0.0
    for m in range(2, 101):
        analysis = chain.analyze(build_matrix(m))
        col = analysis.absorbing_order.index(m)
        for i in range(m + 1):
            psi = death_probability(i, m)
            worst_linear = max(worst_linear, abs(psi - i / m))
            if i == 0:
                oracle = 0.0
            elif i == m:
                oracle = 1.0
            else:
                oracle = float(analysis.absorb_prob[analysis.transient_order.index(i), col])
            worst_oracle = max(worst_oracle, abs(psi - oracle))
    assert worst_linear <= 1e-12
    assert worst_oracle <= 1e-9
    _ok(1, f"psi = i/M to {worst_linear:.2e}, matches absorption oracle to {worst_oracle:.2e}")


def test_criterion_2_expected_death_time_closed_form():
    assert expected_death_time(1, 2) == pytest.approx(2.0, rel=1e-12)
    assert expected_death_time(2, 4) == pytest.approx(28 / 3, rel=1e-12)
    worst = 0.0
    for m in range(2, 201):
        analysis = chain.analyze(build_matrix(m))
        closed = np.array([expected_death_time(i, m) for i in range(1, m)])
        worst = max(worst, float(np.max(np.abs(closed - analysis.expected_steps) / analysis.expected_steps)))
    assert worst <= 1e-9
    _ok(2, f"death time matches fundamental-matrix steps to rel {worst:.2e} for M in 2..200")


def test_criterion_3_visit_count_closed_form():
    assert expected_visits_closed(1, 1, 3) == pytest.approx(3.0, rel=1e-12)
    assert expected_visits_closed(1, 2, 3) == pytest.approx(1.5, rel=1e-12)
    worst = 0.0
    for m in range(2, 51):
        analysis = chain.analyze(build_matrix(m))
        closed = np.array(
            [[expected_visits_closed(i, j, m) for j in range(1, m)] for i in range(1, m)]
        )
        if closed.size:
            worst = max(worst, float(np.max(np.abs(closed - analysis.fundamental) / analysis.fundamental)))
    assert worst <= 1e-9
    _ok(3, f"visit counts match the fundamental matrix to rel {worst:.2e} for M in 2..50")


def test_criterion_4_monte_carlo_chain_consistency():
    steps, absorbed_at = chain_absorptions(m=20, initial_dead=1, runs=10_000, seed=20_260_809)
    expected = expected_death_time(1, 20)
    mean = float(steps.mean())
    se = float(steps.std(ddof=1) / np.sqrt(steps.size))
    assert np.all((absorbed_at == 0) | (absorbed_at == 20))
    assert abs(mean - expected) <= 3.0 * se
    _ok(4, f"empirical absorption {mean:.2f} vs {expected:.2f} within 3 SE ({se:.3f})")


def test_criterion_5_simulate_is_byte_deterministic(tmp_path, capsys):
    import json

    doc = {
        "network": {"n_deployed": 10, "initial_dead": 1},
        "energy": {"capacity": 100.0},
        "attack": {"kind": "broadcast_replay"},
        "run": {"max_ticks": 300, "seed": 7, "runs": 2, "death_mode": "energy"},
    }
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    capsys.readouterr()  # swallow the summaries printed by the CLI
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and len(names_a) == 3
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _ok(5, f"two simulate invocations produced identical bytes for {names_a}")


def test_criterion_6_detector_operating_points():
    energy = sw.EnergyModel(300.0, np.array([0.1, 5.0, 1.0, 0.0]))
    policy = sw.default_policy()
    params = NetworkChainParams(n_deployed=20, initial_dead=1)

    calibration = sw.ScenarioConfig(
        network=params, max_ticks=600, seed=900_001, policy=policy, energy=energy,
        attack=sw.no_attack(), death_mode=sw.DeathMode.ENERGY, runs=100,
    )
    baseline = compute_baseline(params, scenario=calibration)

    detected = false_positives = 0
    attack_deaths = []
    pairs = 200
    for k in range(pairs):
        common = dict(
            network=params, max_ticks=600, seed=50_000 + k, policy=policy,
            energy=energy, death_mode=sw.DeathMode.ENERGY, runs=1,
        )
        attacked = run_one(sw.ScenarioConfig(attack=rts_cts_flood(
            coverage=1.0, sleep_block=0.9, extra_drain=2.0), **common), 0)
        normal = run_one(sw.ScenarioConfig(attack=sw.no_attack(), **common), 0)
        assert attacked.network_death_tick is not None
        attack_deaths.append(attacked.network_death_tick)
        if detect(attacked, baseline, theta=0.8).decision is Decision.UNDER_ATTACK:
            detected += 1
        if detect(normal, baseline, theta=0.8).decision is Decision.UNDER_ATTACK:
            false_positives += 1

    # the configured flood must actually gut the lifetime, as stipulated
    assert np.mean(attack_deaths) < 0.6 * baseline.expected_death_ticks
    detection_rate = detected / pairs
    fp_rate = false_positives / pairs
    assert detection_rate >= 0.95
    assert fp_rate <= 0.05
    _ok(6, f"detection {detection_rate:.1%}, false positives {fp_rate:.1%} over {pairs} pairs")


def test_criterion_7_structural_invariants():
    # every structurally forbidden transition is rejected
    base = sw.default_policy().probs
    forbidden_cells = [
        (NodeState.SLEEP, NodeState.DEAD),
        (NodeState.INACTIVE, NodeState.SLEEP),
        (NodeState.DEAD, NodeState.SLEEP),
        (NodeState.DEAD, NodeState.ACTIVE),
        (NodeState.DEAD, NodeState.INACTIVE),
    ]
    for src, dst in forbidden_cells:
        probs = np.array(base, copy=True)
        probs[src, dst] += 0.25
        probs[src, src] -= 0.25
        with pytest.raises(ForbiddenTransition):
            NodePolicy(probs)

    # the attack transform preserves stochasticity and structural zeros
    from sleepwatch.attack import transform_policy
    from sleepwatch.lifecycle import ALLOWED

    rng = np.random.default_rng(17)
    for _ in range(1000):
        policy = random_node_policy(rng)
        model = AttackModel(
            kind=AttackKind.RTS_CTS_FLOOD, coverage=1.0, sleep_block=float(rng.random()),
            extra_drain=float(2.0 * rng.random()),
        )
        transformed = NodePolicy(transform_policy(policy, model).probs)
        assert np.all(transformed.probs[~ALLOWED] == 0.0)
        np.testing.assert_allclose(transformed.probs.sum(axis=1), 1.0, atol=1e-9)

    # traces keep dead counts monotone and node counts conserved
    checked_ticks = 0
    for seed, mode, attack in (
        (1, sw.DeathMode.ENERGY, sw.no_attack()),
        (2, sw.DeathMode.ENERGY, rts_cts_flood()),
        (3, sw.DeathMode.PROBABILISTIC, sw.no_attack()),
        (4, sw.DeathMode.PROBABILISTIC, rts_cts_flood(coverage=0.5)),
    ):
        config = sw.ScenarioConfig(
            network=NetworkChainParams(15), max_ticks=400, seed=seed, policy=sw.default_policy(),
            energy=sw.EnergyModel(200.0, np.array([0.1, 5.0, 1.0, 0.0])),
            attack=attack, death_mode=mode, runs=2,
        )
        for run_index in range(config.runs):
            trace = run_one(config, run_index)
            previous = 0
            for rec in trace.per_tick:
                assert rec.dead >= previous
                assert rec.dead + rec.sleep + rec.active + rec.inactive == 15
                previous = rec.dead
                checked_ticks += 1
    _ok(7, f"policy rejection, 1000 transformed policies, {checked_ticks} trace ticks checked")


def test_criterion_8_chain_property_tests():
    rng = np.random.default_rng(271_828)
    ck_worst = 0.0
    row_worst = 0.0
    for _ in range(500):
        tm = random_absorbing_chain(rng, max_states=10)
        a, b = int(rng.integers(0, 17)), int(rng.integers(0, 17))
        lhs = np.linalg.matrix_power(tm.probs, a + b)
        rhs = np.linalg.matrix_power(tm.probs, a) @ np.linalg.matrix_power(tm.probs, b)
        ck_worst = max(ck_worst, float(np.max(np.abs(lhs - rhs))))
        analysis = chain.analyze(tm)
        if analysis.absorb_prob.shape[0]:
            row_worst = max(
                row_worst, float(np.max(np.abs(analysis.absorb_prob.sum(axis=1) - 1.0)))
            )
    assert ck_worst <= 1e-9
    assert row_worst <= 1e-8
    _ok(8, f"Chapman-Kolmogorov dev {ck_worst:.2e}, absorption row-sum dev {row_worst:.2e} over 500 chains")
