import importlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import closed_form_oracle as oracle
import online_oracle
import sleepwatch as sw
from sleepwatch.config import DetectorSettings
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
from sleepwatch.simulate import SimulationTrace, TickRecord, run_one, simulate_chain_trajectory

# the package re-exports a function named ``detect``, which shadows the submodule
detect_module = importlib.import_module("sleepwatch.detect")


def analytic_baseline(m: int, i0: int, ticks_per_step: float) -> Baseline:
    steps = expected_death_time(i0, m)
    return Baseline(ticks_per_step * steps, BaselineSource.ANALYTIC, ticks_per_step)


def immortal_scenario(**overrides) -> sw.ScenarioConfig:
    base = dict(
        network=NetworkChainParams(5),
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
            NetworkChainParams(2, initial_dead=1, m_threshold=2), ticks_per_chain_step=10.0
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
            network=NetworkChainParams(5), max_ticks=500, seed=12,
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
        message = re.escape(f"ticks_per_chain_step must be finite and > 0, got {ticks_per_step}")
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            compute_baseline(params, ticks_per_chain_step=ticks_per_step)

    def test_calibration_scenario_must_share_threshold(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        network = NetworkChainParams(5, m_threshold=3)
        with pytest.raises(ConfigInvalid, match="m_threshold=3"):
            compute_baseline(params, scenario=immortal_scenario(network=network))

    def test_calibration_scenario_must_share_start_state(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        network = NetworkChainParams(5, initial_dead=2)
        with pytest.raises(ConfigInvalid, match="initial_dead=2"):
            compute_baseline(params, scenario=immortal_scenario(network=network))

    def test_immortal_normal_scenario_uncalibratable(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        with pytest.raises(Uncalibratable):
            compute_baseline(params, scenario=immortal_scenario())

    def test_attacked_scenario_rejected_for_calibration(self):
        params = NetworkChainParams(n_deployed=5, initial_dead=1)
        with pytest.raises(ConfigInvalid):
            compute_baseline(params, scenario=immortal_scenario(attack=sw.rts_cts_flood()))


class TestDecide:
    BASELINE = Baseline(1000.0, BaselineSource.ANALYTIC, 10.0)

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
        # True would act as 1 and reach the verdict as a bool
        with pytest.raises(ConfigInvalid, match=r"^threshold_factor must lie in \(0, 1\], got True$"):
            decide(400.0, 400.0, self.BASELINE, theta=True)

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
            scaled = Baseline(1000.0 * scale, BaselineSource.ANALYTIC, 10.0 * scale)
            for observed in (100.0, 799.0, 800.0, 1200.0):
                original = decide(observed, observed, self.BASELINE, 0.8)
                rescaled = decide(observed * scale, observed * scale, scaled, 0.8)
                assert original.decision is rescaled.decision

    def test_detail_records_calibration(self):
        verdict = decide(400.0, 400.0, self.BASELINE, theta=0.8)
        assert "ticks_per_chain_step=10" in verdict.detail
        assert "analytic" in verdict.detail

    MONTE_CARLO = Baseline(160.04166666666666, BaselineSource.MONTE_CARLO, 3.0146296296296297)
    ANALYTIC_NOTE = "[baseline=analytic, ticks_per_chain_step=10]"
    MONTE_CARLO_NOTE = "[baseline=monte_carlo, ticks_per_chain_step=3.01463]"

    @pytest.mark.parametrize("baseline, observed, elapsed, theta, decision, observed_ticks, detail", [
        (BASELINE, 400, 400.0, 0.8, Decision.UNDER_ATTACK, 400.0,
         f"death at tick 400 < 0.8 * baseline 1000 {ANALYTIC_NOTE}"),
        (BASELINE, 1000.0, 1000.0, 0.8, Decision.NORMAL, 1000.0,
         f"death at tick 1000 >= 0.8 * baseline 1000 {ANALYTIC_NOTE}"),
        (BASELINE, None, 1500.0, 0.8, Decision.NORMAL, None,
         f"no death within 1500 ticks >= baseline 1000 {ANALYTIC_NOTE}"),
        (BASELINE, None, 500, 0.8, Decision.INCONCLUSIVE, None,
         f"no death yet at tick 500 < baseline 1000 {ANALYTIC_NOTE}"),
        (MONTE_CARLO, 57, 57, 0.9, Decision.UNDER_ATTACK, 57.0,
         f"death at tick 57 < 0.9 * baseline 160.042 {MONTE_CARLO_NOTE}"),
        (MONTE_CARLO, 128.5, 128.5, 0.8, Decision.NORMAL, 128.5,
         f"death at tick 128.5 >= 0.8 * baseline 160.042 {MONTE_CARLO_NOTE}"),
        (MONTE_CARLO, None, 600, 0.8, Decision.NORMAL, None,
         f"no death within 600 ticks >= baseline 160.042 {MONTE_CARLO_NOTE}"),
        (MONTE_CARLO, None, 159.5, 0.75, Decision.INCONCLUSIVE, None,
         f"no death yet at tick 159.5 < baseline 160.042 {MONTE_CARLO_NOTE}"),
    ], ids=[f"{source}-{branch}" for source in ("analytic", "monte-carlo")
            for branch in ("attack", "normal-by-death", "normal-by-time", "inconclusive")])
    def test_golden_verdicts(self, baseline, observed, elapsed, theta, decision, observed_ticks, detail):
        verdict = decide(observed, elapsed, baseline, theta)
        assert verdict.decision is decision
        assert verdict.observed_death_ticks == observed_ticks
        assert type(verdict.observed_death_ticks) is type(observed_ticks)
        assert (verdict.baseline_ticks, verdict.threshold_factor) == (baseline.expected_death_ticks, theta)
        assert verdict.detail == detail


class TestDetectDispatch:
    def test_trace_verdict(self):
        config = sw.ScenarioConfig(
            network=NetworkChainParams(5), max_ticks=500, seed=12,
            policy=sw.default_policy(),
            energy=sw.EnergyModel(50.0, np.array([0.1, 5.0, 1.0, 0.0])),
            attack=sw.rts_cts_flood(), death_mode=sw.DeathMode.ENERGY, runs=1,
        )
        trace = run_one(config, 0)
        baseline = Baseline(100.0, BaselineSource.ANALYTIC, 1.0)
        verdict = detect(trace, baseline, 0.8)
        assert verdict.decision in (Decision.UNDER_ATTACK, Decision.NORMAL)
        assert verdict.observed_death_ticks == trace.network_death_tick

    def test_summary_verdict_uses_mean(self):
        from sleepwatch.simulate import run_many

        summary = run_many(immortal_scenario(max_ticks=20))
        baseline = Baseline(10.0, BaselineSource.ANALYTIC, 1.0)
        # censored everywhere, but elapsed 20 >= baseline 10
        assert detect(summary, baseline, 0.8).decision is Decision.NORMAL

    def test_hand_built_trace_is_judged_at_its_first_crossing(self):
        # M = 4 is first reached at tick 2 < 0.8 * 3; the last record, at tick 4, is not
        records = tuple(TickRecord(t, d, 5 - d, 0, 0, 5.0 - d) for t, d in enumerate((0, 2, 4, 5, 5)))
        verdict = detect(SimulationTrace(records, 4, 0), Baseline(3.0, BaselineSource.ANALYTIC, 1.0), 0.8)
        assert (verdict.decision, verdict.observed_death_ticks) == (Decision.UNDER_ATTACK, 2.0)

    def test_rejects_other_types(self):
        with pytest.raises(ConfigInvalid, match="^expected SimulationTrace or RunSummary, got list$"):
            detect([0, 1, 2], Baseline(10.0, BaselineSource.ANALYTIC, 1.0), 0.8)


class TestEntryPointArguments:
    """The detector's entry points refuse an argument of the wrong kind as ConfigInvalid."""

    PARAMS = NetworkChainParams(20)
    BASELINE = Baseline(40.0, BaselineSource.ANALYTIC, 2.0)

    @pytest.mark.parametrize("call, message", [
        (lambda p, b: decide("54", 10, b), "observed_death_tick must be a real number, got '54'"),
        (lambda p, b: decide(True, 10, b), "observed_death_tick must be a real number, got True"),
        (lambda p, b: decide(math.nan, 10, b), "observed_death_tick must be finite, got nan"),
        (lambda p, b: decide(math.inf, 10, b), "observed_death_tick must be finite, got inf"),
        (lambda p, b: decide(10**400, 10, b), f"observed_death_tick must be a real number, got {10**400}"),
        (lambda p, b: decide(None, "10", b), "elapsed_ticks must be a real number, got '10'"),
        (lambda p, b: decide(None, -math.inf, b), "elapsed_ticks must be finite, got -inf"),
        (lambda p, b: decide(5, 10, "b"), "baseline must be a Baseline, got str"),
        (lambda p, b: detect("x", b), "expected SimulationTrace or RunSummary, got str"),
        (lambda p, b: compute_baseline(p, ticks_per_chain_step="1"),
         "ticks_per_chain_step must be a real number, got '1'"),
        (lambda p, b: compute_baseline("p", ticks_per_chain_step=1.0),
         "params must be a NetworkChainParams, got str"),
        (lambda p, b: compute_baseline(p, scenario="s"), "scenario must be a ScenarioConfig, got str"),
        (lambda p, b: online_estimate([1, 2, 3], "p", b), "params must be a NetworkChainParams, got str"),
        (lambda p, b: online_estimate([1, 2, 3], p, 40.0), "baseline must be a Baseline, got float"),
        (lambda p, b: Baseline("x", BaselineSource.ANALYTIC, 1.0),
         "expected_death_ticks must be a real number, got 'x'"),
        (lambda p, b: Baseline(40.0, "analytic", 2.0), "source must be a BaselineSource, got str"),
        (lambda p, b: Baseline(40.0, BaselineSource.ANALYTIC, "2"),
         "ticks_per_chain_step must be a real number, got '2'"),
    ], ids=["decide-str", "decide-bool", "decide-nan", "decide-inf", "decide-huge-int",
            "elapsed-str", "elapsed-inf", "decide-baseline", "detect-str", "ticks-str",
            "params-str", "scenario-str", "online-params", "online-baseline", "baseline-ticks",
            "baseline-source", "baseline-calibration"])
    def test_refused_in_one_line(self, call, message):
        with pytest.raises(ConfigInvalid) as refused:
            call(self.PARAMS, self.BASELINE)
        assert str(refused.value) == message

    def test_numpy_reals_give_the_same_verdict(self):
        for observed, elapsed in ((20, 30), (None, 30), (None, 50)):
            numpy_observed = observed if observed is None else np.int64(observed)
            assert decide(numpy_observed, np.float64(elapsed), self.BASELINE) == decide(
                observed, elapsed, self.BASELINE)
        # theta and the baseline's fields are kept as the floats their checks return: a float32
        # theta is not compared in float32, and a Fraction formats in the detail
        baseline = Baseline(100.0, BaselineSource.ANALYTIC, 1.0)
        for theta in (np.float32(0.8), np.float64(0.8), Fraction(4, 5), np.float32(0.5)):
            for observed in (50.0, 80.0, None):
                verdict = decide(observed, 80.0, baseline, theta)
                assert verdict == decide(observed, 80.0, baseline, float(theta))
        fractions = Baseline(Fraction(100), BaselineSource.ANALYTIC, Fraction(1))
        assert (fractions, decide(80.0, 80.0, fractions)) == (baseline, decide(80.0, 80.0, baseline))
        fraction, real = (compute_baseline(self.PARAMS, ticks_per_chain_step=t) for t in (Fraction(3, 2), 1.5))
        assert (fraction, decide(None, 10, fraction)) == (real, decide(None, 10, real))
        trace = run_one(immortal_scenario(), 0)
        assert detect(trace, baseline, Fraction(4, 5)) == detect(trace, baseline, 0.8)
        view = simulate_chain_trajectory(16, 8, 0.7, 3, 2_000)
        assert online_estimate(view, NetworkChainParams(20), baseline, Fraction(4, 5), window=50) == (
            online_estimate(view, NetworkChainParams(20), baseline, 0.8, window=50))
        settings = DetectorSettings(theta=Fraction(4, 5), ticks_per_chain_step=np.float32(1.5))
        stored = (settings.theta, settings.ticks_per_chain_step)
        assert [(type(x), x) for x in stored] == [(float, 0.8), (float, 1.5)]


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

    @pytest.mark.parametrize("view", [[-1, 0, 1], [5, 21, 20], [5, 6, 21], [5, 6, -2]])  # end ticks too
    def test_states_outside_chain(self, view):
        with pytest.raises(OutOfRange):
            estimate_step_rate(np.array(view), 20, min_events=0)

    def test_states_outside_chain_refused_in_a_quiet_window(self):
        # 2 events, too few to fit, but -1 is no chain state
        with pytest.raises(OutOfRange, match=re.escape("dead count -1 at tick 1 outside [0, 20]")):
            estimate_step_rate(np.array([1, -1, 1]), 20, min_events=5)

    def test_too_few_events(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([5, 5, 5, 5]), 20, min_events=1)

    def test_boundary_pinned_window(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([0, 0, 0]), 20, min_events=0)

    def test_tiny_window(self):
        with pytest.raises(WindowTooShort):
            estimate_step_rate(np.array([5]), 20, min_events=0)

    @pytest.mark.parametrize("view", [[1.7, 2.2, 3.9], [[5, 6, 7], [7, 8, 9]]])
    def test_malformed_window_refused(self, view):
        # floats are not truncated into counts, nor 2-D rows summed as one window
        with pytest.raises(ConfigInvalid, match="chain view"):
            estimate_step_rate(view, 20, min_events=1)

    @pytest.mark.parametrize("name,m,min_events", [
        ("m", 20.0, 3), ("m", True, 0), ("m", "20", 0),
        ("min_events", 20, float("nan")), ("min_events", 20, 2.5), ("min_events", 20, True),
    ])
    def test_non_integer_m_or_min_events_refused(self, name, m, min_events):
        # a float m must not reach the step-probability index
        value = m if name == "m" else min_events
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(ConfigInvalid, match=message):
            estimate_step_rate(np.array([5, 6, 6, 7]), m, min_events)

    @pytest.mark.parametrize("view", [[1, 1, 1], [1, 2, 1]])  # quiet and busy
    @pytest.mark.parametrize("m,error,message", [
        (-5, OutOfRange, "threshold must be at least 2, got -5"),
        (10**30, ConfigInvalid, f"threshold {10**30} is too large for numpy arrays"),
    ])
    def test_threshold_checked_before_the_window(self, view, m, error, message):
        # a quiet window is not fitted, so it must not hide a bad threshold behind WindowTooShort
        with pytest.raises(error, match=re.escape(message)):
            estimate_step_rate(np.array(view), m, min_events=1)

    def test_numpy_integer_m_and_min_events_accepted(self):
        view = np.array([5, 6, 6, 7])
        assert estimate_step_rate(view, np.int64(20), np.int8(2)) == estimate_step_rate(view, 20, 2)

    def test_matches_window_by_window_oracle(self):
        rng = np.random.default_rng(14)
        m = 16
        for _ in range(200):
            view = rng.integers(-1, m + 2, size=int(rng.integers(2, 12)))
            if rng.random() < 0.5:
                view = np.clip(view, 0, m)
            min_events = int(rng.integers(0, 8))
            assert outcome(estimate_step_rate, view, m, min_events) == outcome(
                online_oracle.estimate_step_rate, view, m, min_events)


def outcome(fn, *args, **kwargs):
    """What a call returned, or the type and message of what it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # whatever was raised is the outcome compared
        return type(exc), str(exc)
    if isinstance(result, list):
        return [(v.decision, v.observed_death_ticks, v.baseline_ticks, v.threshold_factor, v.detail)
                for v in result]
    return result


def random_walk(m: int, ticks: int, seed: int) -> np.ndarray:
    """A live dead-count view: a lazy walk kept inside [1, m - 1]."""
    rng = np.random.default_rng(seed)
    return np.clip(m // 2 + np.cumsum(rng.integers(-1, 2, size=ticks)), 1, m - 1)


class TestOnlineEstimate:
    M = 20
    I0 = 10
    PARAMS = NetworkChainParams(M, initial_dead=I0, m_threshold=M)
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


class TestOnlineEstimateRefusals:
    PARAMS = NetworkChainParams(20)

    @property
    def baseline(self) -> Baseline:
        return analytic_baseline(16, 1, 1.0)

    @pytest.mark.parametrize("min_events", [0, -1])
    def test_min_events_below_one_refused(self, min_events):
        # a window without events would fit a rate of 0 and divide by it
        with pytest.raises(ConfigInvalid, match="min_events"):
            online_estimate([1, 1, 1, 1], self.PARAMS, self.baseline,
                            window=2, min_events=min_events, stride=1)

    @pytest.mark.parametrize("min_events", [float("nan"), 2.0, 1.5, True, "2"])
    def test_non_integer_min_events_refused(self, min_events):
        # nan must not mark every window inconclusive, nor True count as 1
        message = re.escape(f"min_events must be an integer, got {min_events!r}")
        with pytest.raises(ConfigInvalid, match=message):
            online_estimate([1, 2, 3, 4, 5, 6], self.PARAMS, self.baseline,
                            window=2, min_events=min_events, stride=1)

    def test_numpy_integer_min_events_accepted(self):
        view = [1, 2, 3, 4, 5, 6]
        got = online_estimate(view, self.PARAMS, self.baseline, window=2, min_events=np.int16(1))
        assert got == online_estimate(view, self.PARAMS, self.baseline, window=2, min_events=1)

    @pytest.mark.parametrize("window,stride", [
        (2.5, 1), (4, 1.5), (4.0, 1), (4, 2.0), (True, 1), (4, True), ("4", 1),
    ], ids=["fractional-window", "fractional-stride", "float-window", "float-stride",
            "bool-window", "bool-stride", "string-window"])
    def test_non_integer_window_or_stride_refused(self, window, stride):
        # a float or bool must not reach the window index arrays
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            online_estimate([1, 2, 3, 4, 5, 6, 7, 8], self.PARAMS, self.baseline,
                            window=window, min_events=1, stride=stride)

    @pytest.mark.parametrize("window,stride", [
        (4, 1), (np.int64(4), np.int32(1)), (np.uint8(4), None), (4, np.intp(2)),
    ], ids=["python", "numpy", "numpy-no-stride", "numpy-stride"])
    def test_integer_window_and_stride_accepted(self, window, stride):
        view = [1, 2, 3, 4, 5, 6, 7, 8]
        got = outcome(online_estimate, view, self.PARAMS, self.baseline,
                      window=window, min_events=1, stride=stride)
        assert isinstance(got, list) and got
        assert got == outcome(online_estimate, view, self.PARAMS, self.baseline,
                              window=int(window), min_events=1,
                              stride=None if stride is None else int(stride))

    @pytest.mark.parametrize("window,stride", [(1, 1), (2, 0)], ids=["window-1", "stride-0"])
    def test_short_window_or_zero_stride_refused(self, window, stride):
        with pytest.raises(ConfigInvalid, match=r"^window must be >= 2 and stride >= 1$"):
            online_estimate([1, 2, 3, 4], self.PARAMS, self.baseline,
                            window=window, min_events=1, stride=stride)

    def test_uint64_view_past_int64_refused(self):
        # read as int64, 2**64 - 1 would wrap to -1 and the first window would count 6 events
        view = np.array([1, 2, 3, 2**64 - 1, 2, 3, 4, 5], dtype=np.uint64)
        message = f"dead count {2**64 - 1} at tick 3 outside [0, "
        with pytest.raises(OutOfRange, match=f"^{re.escape(message + '16]')}$"):
            online_estimate(view, self.PARAMS, self.baseline, window=3, stride=1, min_events=50)
        with pytest.raises(OutOfRange, match=f"^{re.escape(message + '20]')}$"):
            estimate_step_rate(view, 20, 1)

    @pytest.mark.parametrize("window,stride", [(4, 4), (3, 1), (8, 8), (3, 2), (5, 2)])
    def test_count_above_m_refused_wherever_the_windows_end(self, window, stride):
        view = [0, 1, 2, 3, 4, 5, 6, 7, 9]
        with pytest.raises(OutOfRange, match=re.escape("dead count 9 at tick 8 outside [0, 8]")):
            online_estimate(view, NetworkChainParams(10, m_threshold=8), analytic_baseline(8, 1, 1.0),
                            window=window, stride=stride)

    def test_count_below_zero_refused_in_unfitted_windows(self):
        view = simulate_chain_trajectory(80, 10, 0.5, 42, 400)
        params, baseline = NetworkChainParams(100, initial_dead=10), analytic_baseline(80, 10, 2.0)
        assert len(online_estimate(view, params, baseline, window=50, stride=10, min_events=10**6)) == 36
        view[3] = -1  # every window is too quiet to fit, yet the count is no chain state
        with pytest.raises(OutOfRange, match=re.escape("dead count -1 at tick 3 outside [0, 80]")):
            online_estimate(view, params, baseline, window=50, stride=10, min_events=10**6)

    @pytest.mark.parametrize("top", [5, 2**63 - 1], ids=["in-chain", "int64-max"])
    def test_uint64_view_in_int64_range_kept(self, top):
        view = np.array([1, 2, 3, top, 2, 3, 4, 5], dtype=np.uint64)
        for min_events in (1, 50):
            kwargs = dict(window=3, stride=1, min_events=min_events)
            assert outcome(online_estimate, view, self.PARAMS, self.baseline, **kwargs) == outcome(
                online_estimate, view.astype(np.int64), self.PARAMS, self.baseline, **kwargs)

    def test_fractional_view_refused(self):
        with pytest.raises(ConfigInvalid, match="integer"):
            online_estimate([1.7, 2.2, 3.9, 4.1], self.PARAMS, self.baseline,
                            window=2, min_events=1, stride=1)

    def test_two_dimensional_view_refused(self):
        with pytest.raises(ConfigInvalid, match="1-D"):
            online_estimate(np.array([[1, 2], [3, 4]]), self.PARAMS, self.baseline,
                            window=2, min_events=1, stride=1)

    @pytest.mark.parametrize("view", [[1, 2, 3, 4], np.array([1, 2, 3, 4], dtype=np.uint8)])
    def test_integer_views_accepted(self, view):
        got = outcome(online_estimate, view, self.PARAMS, self.baseline,
                      window=2, min_events=1, stride=1)
        assert len(got) == 2
        assert got == outcome(online_oracle.online_estimate, np.asarray(view, dtype=np.int64),
                              self.PARAMS, self.baseline, window=2, min_events=1, stride=1)


class TestOnlineEstimateMatchesOracle:
    """The chunked windows give the verdicts and errors of a window-by-window loop."""

    # (window, stride, min_events): window 2, stride > window, stride None,
    # uneven strides, a window longer than any view
    SETTINGS = [(2, 1, 1), (2, 3, 1), (10, None, 2), (37, 5, 3), (200, 10, 5),
                (50, 1, 1), (5000, 1, 1)]

    @staticmethod
    def views(m: int, window: int, stride: int, seed: int) -> dict[str, np.ndarray]:
        i0 = m // 2
        view = simulate_chain_trajectory(m, i0, 0.5, seed=seed, max_ticks=600)
        live = view[: int(np.argmax(view >= m))] if view[-1] >= m else view
        rng = np.random.default_rng(seed)
        end_tick = window + stride * int(rng.integers(0, 40))

        def injected(base: np.ndarray, at: int, value: int) -> np.ndarray:
            out = base.copy()
            if out.size > 1:
                out[min(at, out.size - 1)] = value
            return out

        long_live = np.concatenate([live, random_walk(m, 600, seed)])
        return {
            "trajectory": view,
            "live": live,
            "death": np.concatenate([live, np.arange(live[-1], m + 1), np.full(5, m)]),
            "below_inside": injected(long_live, int(rng.integers(1, long_live.size)), -1),
            "below_at_end": injected(long_live, end_tick, -1),
            "above_at_end": injected(long_live, end_tick, m + 3),
        }

    def test_grid(self):
        seen = set()
        for m in (4, 16, 80, 400):
            params = NetworkChainParams(m, initial_dead=m // 2, m_threshold=m)
            baseline = analytic_baseline(m, m // 2, 2.0)
            for seed, (window, stride, min_events) in enumerate(self.SETTINGS):
                views = self.views(m, window, stride or window, 1_400 + seed)
                for (kind, view), theta in itertools.product(views.items(), (0.8, 1.0)):
                    args = (view, params, baseline, theta)
                    kwargs = dict(window=window, min_events=min_events, stride=stride)
                    got = outcome(online_estimate, *args, **kwargs)
                    assert got == outcome(online_oracle.online_estimate, *args, **kwargs), (
                        m, window, stride, min_events, kind, theta)
                    if isinstance(got, tuple):
                        seen.add("below" if int(got[1].split()[2]) < 0 else "above")
                    elif got and got[-1][1] is not None:
                        seen.add("death")
        # the grid reaches a count refused below 0, one refused above M, and an observed death
        assert {"below", "above", "death"} <= seen

    @pytest.mark.parametrize("spare_rows", [0, 1])
    @pytest.mark.parametrize("chunk", [None, 3 * 200])
    def test_chunk_boundaries(self, monkeypatch, chunk, spare_rows):
        if chunk is not None:
            monkeypatch.setattr(detect_module, "_CHUNK", chunk)
        m, window = 80, 200
        rows = detect_module._CHUNK // window
        windows = 2 * rows + spare_rows  # chunks filled exactly, or a last chunk of one row
        view = random_walk(m, window + windows, seed=5)  # ticks 0..window + windows - 1
        params = NetworkChainParams(100, initial_dead=10)
        baseline = analytic_baseline(m, 10, 2.0)
        got = outcome(online_estimate, view, params, baseline, window=window, stride=1)
        assert len(got) == windows
        assert got == outcome(online_oracle.online_estimate, view, params, baseline,
                              window=window, stride=1)
        # an end state below 0 in the last window is refused before any window
        view[-1] = -1
        assert outcome(online_estimate, view, params, baseline, window=window, stride=1) == (
            OutOfRange, f"dead count -1 at tick {view.size - 1} outside [0, 80]")

    def test_one_projection_call(self, monkeypatch):
        asked = []

        def counted(i, m):
            asked.append(np.size(i))
            return expected_death_time(i, m)

        monkeypatch.setattr(detect_module, "expected_death_time", counted)
        monkeypatch.setattr(detect_module, "_CHUNK", 3 * 200)  # blocks of 3 rows
        view = random_walk(80, 1_200, seed=5)
        params = NetworkChainParams(100, initial_dead=10)
        verdicts = online_estimate(view, params, analytic_baseline(80, 10, 2.0), window=200, stride=1)
        assert len(verdicts) == 1_000
        assert asked == [sum(v.decision is not Decision.INCONCLUSIVE for v in verdicts)]

    def test_row_sums_are_one_window_sums(self):
        rng = np.random.default_rng(21)
        for window in (2, 7, 200, 2000):
            moves = rng.random(window + 300) * rng.choice([1e-3, 1.0, 1e3], size=window + 300)
            starts = np.arange(0, 301, 3)
            block = sliding_window_view(moves, window)[starts]
            rows = np.cumsum(block, axis=1)[:, -1]
            in_place = np.cumsum(block, axis=1, out=block)[:, -1]  # as the kernel sums
            one_by_one = np.array([np.cumsum(moves[s:s + window])[-1] for s in starts])
            assert rows.tobytes() == in_place.tobytes() == one_by_one.tobytes()

    def test_temporaries_stay_bounded(self):
        # unchunked, 18,001 windows of 2,000 moves would take ~290 MB per block
        view = random_walk(80, 20_001, seed=9)  # ticks 0..20,000
        params = NetworkChainParams(100, initial_dead=10)
        baseline = analytic_baseline(80, 10, 2.0)
        tracemalloc.start()
        try:
            verdicts = online_estimate(view, params, baseline, window=2_000, stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 18_001
        assert peak < 32 * 2**20
