import numpy as np
import pytest

import closed_form_oracle as oracle
import sleepwatch as sw
from sleepwatch.detect import (
    Baseline,
    BaselineSource,
    Decision,
    compute_baseline,
    decide,
    detect,
    estimate_step_rate,
    online_estimate,
)
from sleepwatch.errors import (
    ConfigInvalid,
    DegenerateBaseline,
    OutOfRange,
    Uncalibratable,
    WindowTooShort,
)
from sleepwatch.network import NetworkChainParams, expected_death_time, step_probs
from sleepwatch.simulate import run_one, simulate_chain_trajectory


def analytic_baseline(m: int, i0: int, ticks_per_step: float) -> Baseline:
    steps = expected_death_time(i0, m)
    return Baseline(ticks_per_step * steps, BaselineSource.ANALYTIC, ticks_per_step, m, i0)


def immortal_scenario(**overrides) -> sw.ScenarioConfig:
    base = dict(
        n_deployed=5,
        max_ticks=40,
        seed=1,
        policy=sw.default_policy(),
        energy=sw.EnergyModel(10.0, np.zeros(4)),
        attack=sw.no_attack(),
        death_mode=sw.DeathMode.ENERGY,
        runs=3,
    )
    base.update(overrides)
    return sw.ScenarioConfig(**base)


class TestComputeBaseline:
    def test_analytic_scales_expected_death_time(self):
        baseline = compute_baseline(
            NetworkChainParams.with_threshold(2, initial_dead=1), ticks_per_chain_step=10.0
        )
        assert baseline.expected_death_ticks == pytest.approx(20.0, rel=1e-12)
        assert baseline.source is BaselineSource.ANALYTIC

    @pytest.mark.parametrize("i0", [0, 8])
    def test_absorbed_start_is_degenerate(self, i0):
        params = NetworkChainParams(n_deployed=10, initial_dead=i0)
        with pytest.raises(DegenerateBaseline):
            compute_baseline(params, ticks_per_chain_step=1.0)

    def test_requires_exactly_one_calibration(self):
        params = NetworkChainParams(n_deployed=10, initial_dead=1)
        with pytest.raises(ConfigInvalid):
            compute_baseline(params)
        with pytest.raises(ConfigInvalid):
            compute_baseline(params, ticks_per_chain_step=1.0, scenario=immortal_scenario())

    def test_monte_carlo_mean_death_tick(self):
        scenario = sw.ScenarioConfig(
            n_deployed=5, max_ticks=500, seed=12,
            policy=sw.default_policy(),
            energy=sw.EnergyModel(50.0, np.array([0.1, 5.0, 1.0, 0.0])),
            attack=sw.no_attack(), death_mode=sw.DeathMode.ENERGY, runs=10,
        )
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        baseline = compute_baseline(params, scenario=scenario)
        assert baseline.source is BaselineSource.MONTE_CARLO
        assert baseline.expected_death_ticks > 0
        assert baseline.ticks_per_chain_step == pytest.approx(
            baseline.expected_death_ticks / expected_death_time(1, 4), rel=1e-12
        )

    @pytest.mark.parametrize("ticks_per_step", [0.0, float("nan"), float("inf")])
    def test_analytic_calibration_must_be_positive_and_finite(self, ticks_per_step):
        params = NetworkChainParams(n_deployed=10, initial_dead=1)
        with pytest.raises(ConfigInvalid):
            compute_baseline(params, ticks_per_chain_step=ticks_per_step)

    def test_calibration_scenario_must_share_threshold(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        with pytest.raises(ConfigInvalid, match="M=3"):
            compute_baseline(params, scenario=immortal_scenario(m_override=3))

    def test_immortal_normal_scenario_uncalibratable(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        with pytest.raises(Uncalibratable):
            compute_baseline(params, scenario=immortal_scenario())

    def test_attacked_scenario_rejected_for_calibration(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        with pytest.raises(ConfigInvalid):
            compute_baseline(params, scenario=immortal_scenario(attack=sw.rts_cts_flood()))


class TestDecide:
    BASELINE = Baseline(1000.0, BaselineSource.ANALYTIC, 10.0, 8, 1)

    def test_early_death_is_attack(self):
        verdict = decide(400.0, 400.0, self.BASELINE, theta=0.8)
        assert verdict.decision is Decision.UNDER_ATTACK
        assert verdict.observed_death_ticks == 400.0

    def test_on_time_death_is_normal(self):
        assert decide(1000.0, 1000.0, self.BASELINE, theta=0.8).decision is Decision.NORMAL

    def test_death_just_under_margin(self):
        assert decide(799.0, 799.0, self.BASELINE, theta=0.8).decision is Decision.UNDER_ATTACK
        assert decide(800.0, 800.0, self.BASELINE, theta=0.8).decision is Decision.NORMAL

    def test_alive_before_baseline_inconclusive(self):
        assert decide(None, 500.0, self.BASELINE, theta=0.8).decision is Decision.INCONCLUSIVE

    def test_alive_past_baseline_normal(self):
        assert decide(None, 1000.0, self.BASELINE, theta=0.8).decision is Decision.NORMAL

    def test_theta_bounds(self):
        with pytest.raises(ConfigInvalid):
            decide(400.0, 400.0, self.BASELINE, theta=0.0)
        with pytest.raises(ConfigInvalid):
            decide(400.0, 400.0, self.BASELINE, theta=1.5)

    def test_decision_monotone_in_theta(self):
        for observed in (300.0, 650.0, 901.0):
            fired_at = [
                theta
                for theta in np.linspace(0.05, 1.0, 20)
                if decide(observed, observed, self.BASELINE, float(theta)).decision
                is Decision.UNDER_ATTACK
            ]
            # once it fires at some theta it fires at every larger theta
            if fired_at:
                grid = list(np.linspace(0.05, 1.0, 20))
                assert fired_at == [t for t in grid if t >= fired_at[0]]

    def test_scale_consistency(self):
        for scale in (0.25, 3.0, 1000.0):
            scaled = Baseline(1000.0 * scale, BaselineSource.ANALYTIC, 10.0 * scale, 8, 1)
            for observed in (100.0, 799.0, 800.0, 1200.0):
                original = decide(observed, observed, self.BASELINE, 0.8)
                rescaled = decide(observed * scale, observed * scale, scaled, 0.8)
                assert original.decision is rescaled.decision

    def test_detail_records_calibration(self):
        verdict = decide(400.0, 400.0, self.BASELINE, theta=0.8)
        assert "ticks_per_chain_step=10" in verdict.detail
        assert "analytic" in verdict.detail


class TestDetectDispatch:
    def test_trace_verdict(self):
        config = sw.ScenarioConfig(
            n_deployed=5, max_ticks=500, seed=12,
            policy=sw.default_policy(),
            energy=sw.EnergyModel(50.0, np.array([0.1, 5.0, 1.0, 0.0])),
            attack=sw.rts_cts_flood(), death_mode=sw.DeathMode.ENERGY, runs=1,
        )
        trace = run_one(config, 0)
        baseline = Baseline(100.0, BaselineSource.ANALYTIC, 1.0, 4, 1)
        verdict = detect(trace, baseline, 0.8)
        assert verdict.decision in (Decision.UNDER_ATTACK, Decision.NORMAL)
        assert verdict.observed_death_ticks == trace.network_death_tick

    def test_summary_verdict_uses_mean(self):
        from sleepwatch.simulate import run_many

        summary = run_many(immortal_scenario(max_ticks=20))
        baseline = Baseline(10.0, BaselineSource.ANALYTIC, 1.0, 4, 1)
        # censored everywhere, but elapsed 20 >= baseline 10
        assert detect(summary, baseline, 0.8).decision is Decision.NORMAL

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            detect([0, 1, 2], Baseline(10.0, BaselineSource.ANALYTIC, 1.0, 4, 1), 0.8)


class TestStepRateEstimator:
    def test_known_window_arithmetic(self):
        view = np.array([5, 6, 6, 7])
        move = step_probs(20)[0]
        expected_moves = sum(move[i] + move[i] for i in (5, 6, 6))
        rate = estimate_step_rate(view, 20, min_events=2)
        assert rate == pytest.approx(2.0 / expected_moves, rel=1e-12)

    def test_matches_tick_by_tick_sum(self):
        rng = np.random.default_rng(8)
        m = 80
        for _ in range(50):
            view = np.clip(40 + np.cumsum(rng.integers(-1, 2, size=200)), 1, m - 1)
            expected_moves = 0.0
            for i in view[:-1]:
                expected_moves += oracle.move_prob(int(i), m) + oracle.move_prob(int(i), m)
            events = int(np.abs(np.diff(view)).sum())
            assert estimate_step_rate(view, m, min_events=0) == events / expected_moves

    @pytest.mark.parametrize("view", [[-1, 0, 1], [5, 21, 20]])
    def test_states_outside_chain(self, view):
        with pytest.raises(OutOfRange):
            estimate_step_rate(np.array(view), 20, min_events=0)

    def test_too_few_events(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([5, 5, 5, 5]), 20, min_events=1)

    def test_boundary_pinned_window(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([0, 0, 0]), 20, min_events=0)

    def test_tiny_window(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([5]), 20, min_events=0)


class TestOnlineEstimate:
    M = 20
    I0 = 10
    PARAMS = NetworkChainParams.with_threshold(M, initial_dead=I0)
    NORMAL_RATE = 0.5
    WINDOW, STRIDE, MIN_EVENTS = 120, 40, 6
    THETA = 0.8

    @property
    def baseline(self) -> Baseline:
        return analytic_baseline(self.M, self.I0, 1.0 / self.NORMAL_RATE)

    def test_quiet_window_inconclusive(self):
        view = np.full(300, self.I0, dtype=np.int64)
        verdicts = online_estimate(
            view, self.PARAMS, self.baseline, self.THETA,
            window=self.WINDOW, min_events=self.MIN_EVENTS, stride=self.STRIDE,
        )
        assert verdicts
        assert all(v.decision is Decision.INCONCLUSIVE for v in verdicts)

    def test_death_in_view_yields_endpoint_verdict(self):
        view = np.concatenate([np.arange(self.M + 1), np.full(50, self.M)])
        verdicts = online_estimate(
            view, self.PARAMS, self.baseline, self.THETA,
            window=10, min_events=2, stride=10,
        )
        final = verdicts[-1]
        assert final.decision is Decision.UNDER_ATTACK
        assert final.observed_death_ticks == float(self.M)

    def test_empty_view_rejected(self):
        with pytest.raises(ConfigInvalid):
            online_estimate(np.array([], dtype=np.int64), self.PARAMS, self.baseline)

    def test_normal_dynamics_rarely_flagged(self):
        # windows on trajectories that follow the baseline dynamics; the
        # endpoint verdict reflects the raw death-time rule, so only the
        # projection windows are scored here
        flagged = total = 0
        for k in range(100):
            view = simulate_chain_trajectory(
                self.M, self.I0, self.NORMAL_RATE, seed=11_000, max_ticks=6000, run_index=k
            )
            verdicts = online_estimate(
                view, self.PARAMS, self.baseline, self.THETA,
                window=self.WINDOW, min_events=self.MIN_EVENTS, stride=self.STRIDE,
            )
            if view[-1] == self.M:
                verdicts = verdicts[:-1]
            for v in verdicts:
                total += 1
                flagged += v.decision is Decision.UNDER_ATTACK
        assert total > 500
        assert flagged / total <= 0.08

    def test_doubled_rate_flagged_early_on_death_bound_runs(self):
        early_cutoff = 0.6 * self.baseline.expected_death_ticks
        fired = total = k = 0
        while total < 100:
            view = simulate_chain_trajectory(
                self.M, self.I0, 2.0 * self.NORMAL_RATE, seed=22_000, max_ticks=6000, run_index=k
            )
            k += 1
            if view[-1] != self.M:  # recovered to zero dead: no death to flag
                continue
            total += 1
            verdicts = online_estimate(
                view, self.PARAMS, self.baseline, self.THETA,
                window=self.WINDOW, min_events=self.MIN_EVENTS, stride=self.STRIDE,
            )
            died = view[-1] == self.M
            for j, v in enumerate(verdicts):
                is_endpoint = died and j == len(verdicts) - 1
                tick = view.size - 1 if is_endpoint else self.WINDOW + j * self.STRIDE
                if v.decision is Decision.UNDER_ATTACK and tick <= early_cutoff:
                    fired += 1
                    break
        assert fired / total >= 0.95
