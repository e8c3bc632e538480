import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import closed_form_oracle as oracle
from sleepwatch import chain, network, serialize
from sleepwatch.attack import AttackKind, AttackModel, broadcast_replay, rts_cts_flood
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
from sleepwatch.errors import ConfigInvalid, OutOfRange, SleepwatchError, TooFewNodes
from sleepwatch.lifecycle import DeathMode, EnergyModel, NodePolicy, NodeState, default_energy, default_policy
from sleepwatch.network import (
    NetworkChainParams,
    build_matrix,
    death_probability,
    expected_death_time,
    expected_visits_closed,
    step_probs,
    threshold_from_deployed,
)
from sleepwatch.simulate import (RunSummary, ScenarioConfig, SimulationTrace, TickRecord, run_one,
                                 simulate_chain_trajectory)

#: thresholds at which every state is compared bit for bit with the oracle
PINNED_THRESHOLDS = [*range(2, 61), 97, 200, 800]


class TestStepProbs:
    def test_interior_state_m3(self):
        move, stay = step_probs(3)
        assert move[1] == pytest.approx(2 / 9, abs=1e-15)
        assert stay[1] == pytest.approx(5 / 9, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 5, 17])
    def test_boundaries_are_absorbing(self, m):
        move, stay = step_probs(m)
        for i in (0, m):
            assert move[i] == 0.0 and stay[i] == 1.0

    def test_rows_sum_to_one(self):
        for m in range(2, 40):
            move, stay = step_probs(m)
            assert move.shape == stay.shape == (m + 1,)
            np.testing.assert_allclose(2.0 * move + stay, 1.0, rtol=0.0, atol=1e-12)
            # up and down are one array; the assembled chain shows them equal
            probs = build_matrix(m).probs
            for i in range(1, m):
                assert probs[i, i + 1] == probs[i, i - 1]

    @pytest.mark.parametrize("i,m", [(-1, 5), (6, 5), (0, 1)])
    def test_out_of_range(self, i, m):
        for closed_form in (death_probability, expected_death_time):
            with pytest.raises(OutOfRange):
                closed_form(i, m)
            with pytest.raises(OutOfRange):
                closed_form(np.array([0, i]), m)
        if m < 2:
            with pytest.raises(OutOfRange):
                step_probs(m)

    @pytest.mark.parametrize("m", [8.5, 8.0, np.float64(8.0), True, "8", None])
    @pytest.mark.parametrize("form", [
        lambda m: death_probability(3, m),
        lambda m: expected_visits_closed(3, 4, m),
        lambda m: expected_death_time(3, m),
        lambda m: expected_death_time(np.arange(3), m),
        step_probs,
        build_matrix,
    ], ids=["death_probability", "expected_visits_closed", "expected_death_time",
            "expected_death_time-array", "step_probs", "build_matrix"])
    def test_threshold_must_be_an_integer(self, form, m):
        # a fractional threshold must not give a number, a float one a bare
        # TypeError or IndexError, nor True a threshold of 1
        message = re.escape(f"threshold must be an integer, got {m!r}")
        with pytest.raises(ConfigInvalid, match=message):
            form(m)

    def test_numpy_integer_threshold_gives_the_same_values(self):
        assert death_probability(3, np.int64(8)) == death_probability(3, 8)
        assert expected_death_time(3, np.int32(8)) == expected_death_time(3, 8)
        assert np.array_equal(build_matrix(np.int64(8)).probs, build_matrix(8).probs)

    def test_bits_match_scalar_formula(self):
        for m in PINNED_THRESHOLDS:
            move, stay = step_probs(m)
            assert move.tolist() == [oracle.move_prob(i, m) for i in range(m + 1)], m
            assert stay.tolist() == [oracle.stay_prob(i, m) for i in range(m + 1)], m


class TestArrayArguments:
    """Each closed form takes one state or an array of states."""

    def test_death_probability_bits(self):
        for m in PINNED_THRESHOLDS:
            got = death_probability(np.arange(m + 1), m)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == oracle.death_probabilities(m), m

    def test_expected_death_time_bits(self):
        for m in PINNED_THRESHOLDS:
            got = expected_death_time(np.arange(m + 1), m)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [oracle.expected_death_time(i, m) for i in range(m + 1)], m

    def test_expected_visits_bits(self):
        for m in PINNED_THRESHOLDS:
            states = np.arange(1, m)
            got = expected_visits_closed(states[:, None], states, m)
            assert got.shape == (m - 1, m - 1)
            assert got.tolist() == [
                [oracle.expected_visits(i, j, m) for j in range(1, m)] for i in range(1, m)
            ], m

    @pytest.mark.parametrize("m", [2, 7, 97])
    def test_scalar_argument_returns_float(self, m):
        for i in range(m + 1):
            for value in (death_probability(i, m), expected_death_time(i, m)):
                assert type(value) is float
        assert type(death_probability(np.int64(1), m)) is float
        assert type(expected_visits_closed(1, m - 1, m)) is float

    def test_expected_death_time_rows_span_several_chunks(self):
        # every state at M = 800, permuted into a 3 x 267 array, each value in its place
        m = 800
        states = np.random.default_rng(3).permutation(m + 1).reshape(3, 267)
        got = expected_death_time(states, m)
        assert got.shape == states.shape
        assert got.tolist() == [[oracle.expected_death_time(int(i), m) for i in row] for row in states]

    @pytest.mark.parametrize("state", [2.7, 1.5, np.float64(2.0), True, np.bool_(True), "3", None],
                             ids=["2.7", "1.5", "float64", "True", "bool_", "str", "None"])
    def test_non_integer_state_is_refused(self, state):
        # truncated, 2.7 would give the values of state 2 and True those of state 1
        message = re.escape(f"state must be an integer, got {state!r}")
        for form in (lambda i: death_probability(i, 8), lambda i: expected_death_time(i, 16),
                     lambda i: expected_visits_closed(i, 3, 8), lambda i: expected_visits_closed(3, i, 8)):
            with pytest.raises(ConfigInvalid, match=message):
                form(state)

    @pytest.mark.parametrize("states, dtype", [
        (np.array([1.0, 2.0]), "float64"),
        (np.array([1, 2], dtype=np.float32), "float32"),
        (np.array([True, False]), "bool"),
        (np.array(["1", "2"]), "<U1"),
        ([1.5, 2], "float64"),
        ([True], "bool"),
        (np.array(2.0), "float64"),
    ], ids=["float64", "float32", "bool", "str", "float-list", "bool-list", "0-d-float"])
    def test_non_integer_state_array_is_refused(self, states, dtype):
        message = re.escape(f"states must have an integer dtype, got {dtype}")
        for form in (lambda i: death_probability(i, 8), lambda i: expected_death_time(i, 8),
                     lambda i: expected_visits_closed(i, 3, 8)):
            with pytest.raises(ConfigInvalid, match=message):
                form(states)

    @pytest.mark.parametrize("states, item", [
        ([1, True], True),
        ([[1, 2], [3, True]], True),
        ((3, False), False),
        ([1, np.bool_(True)], np.bool_(True)),
        ([2, None], None),
        ([1.5, 10**30], 1.5),
    ], ids=["bool-in-list", "bool-in-nested-list", "bool-in-tuple", "bool_-in-list", "None-in-list",
            "float-beside-huge-int"])
    def test_non_integer_item_of_a_list_is_refused(self, states, item):
        # numpy folds a bool into an integer array, and a None or a huge int makes an object one
        message = re.escape(f"state must be an integer, got {item!r}")
        for form in (lambda i: death_probability(i, 8), lambda i: expected_death_time(i, 8),
                     lambda i: expected_visits_closed(i, 3, 8)):
            with pytest.raises(ConfigInvalid, match=message):
                form(states)

    def test_list_items_past_int64_are_out_of_range(self):
        for states in ([10**30], [1, -(10**30)], ([2**63],)):
            big = np.asarray(states, dtype=object).flat[-1]
            with pytest.raises(OutOfRange, match=rf"^state {big} outside \[0, 8\]$"):
                death_probability(states, 8)
        # an object array is not a list: its dtype is refused, with no item loop
        with pytest.raises(ConfigInvalid, match="^states must have an integer dtype, got object$"):
            death_probability(np.array([10**30], dtype=object), 8)

    def test_lists_of_integers_give_the_bits_of_arrays(self):
        states = [[0, 1, np.int32(2)], (3, np.uint8(4), 8)]
        want = death_probability(np.array(states, dtype=np.int64), 8).tolist()
        assert death_probability(states, 8).tolist() == want
        want = expected_death_time(np.array([3, 4, 8]), 8).tolist()
        assert expected_death_time(states[1], 8).tolist() == want

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_integer_dtypes_give_the_bits_of_python_ints(self, dtype):
        m = 200  # a product like m * (m - i) would wrap in int8 or uint8 arithmetic
        states = np.arange(128)  # every state int8 can hold
        typed = states.astype(dtype)
        assert death_probability(typed, m).tolist() == death_probability(states, m).tolist()
        assert expected_death_time(typed, m).tolist() == expected_death_time(states, m).tolist()
        want = expected_visits_closed(states[1:, None], states[1:], m)
        assert expected_visits_closed(typed[1:, None], typed[1:], m).tolist() == want.tolist()
        for i in (1, 57, 127):
            assert death_probability(dtype(i), m) == death_probability(i, m)
            assert expected_death_time(dtype(i), m) == expected_death_time(i, m)
            assert expected_visits_closed(dtype(i), dtype(3), m) == expected_visits_closed(i, 3, m)

    def test_out_of_range_states_of_any_integer_type(self):
        with pytest.raises(OutOfRange, match=r"^state 9 outside \[0, 8\]$"):
            death_probability(np.array([3, 9], dtype=np.uint8), 8)
        with pytest.raises(OutOfRange, match=r"^state 0 outside \[1, 7\]$"):
            expected_visits_closed(np.uint64(0), 3, 8)
        for big in (2**63, 10**30):  # past int64: refused as out of range, not an OverflowError
            with pytest.raises(OutOfRange, match=rf"^state {big} outside \[0, 8\]$"):
                expected_death_time(big, 8)

    def test_scalar_and_array_agree(self):
        m = 41
        states = np.array([[0, 5], [20, 41]])
        for closed_form in (death_probability, expected_death_time):
            got = closed_form(states, m)
            assert got.shape == states.shape
            assert got.tolist() == [[closed_form(int(i), m) for i in row] for row in states]


def traced_peak(closed_form, *args):
    """The closed form's value for ``args`` and its ``tracemalloc`` peak in bytes."""
    tracemalloc.start()
    try:
        value = closed_form(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


class TestTemporaries:
    """The closed forms hold a few arrays of M floats, or one output array, at a time."""

    def test_expected_death_time_holds_a_few_arrays_of_m_floats(self):
        # each array of 801 floats takes 6.4 KB; 82 rows of 799 terms would take 0.5 MB
        value, peak = traced_peak(expected_death_time, np.arange(801), 800)
        assert value.shape == (801,)
        assert peak < 200_000

    def test_expected_visits_fills_one_output_array(self):
        states = np.arange(1, 800)
        value, peak = traced_peak(expected_visits_closed, states[:, None], states, 800)
        assert value.nbytes == 799 * 799 * 8
        assert peak < 2 * value.nbytes


class TestDeathProbability:
    def test_half_dead_means_even_odds(self):
        assert death_probability(2, 4) == pytest.approx(0.5, abs=1e-15)

    def test_boundaries(self):
        assert death_probability(0, 9) == 0.0
        assert death_probability(9, 9) == pytest.approx(1.0, abs=1e-15)

    def test_ratio_sum_collapses_to_linear(self):
        # full grid for small m; spot states for large m keep this quick
        for m in range(2, 61):
            for i in range(m + 1):
                assert death_probability(i, m) == pytest.approx(i / m, abs=1e-12)
        for m in (97, 150, 200):
            for i in (0, 1, m // 3, m // 2, m - 1, m):
                assert death_probability(i, m) == pytest.approx(i / m, abs=1e-12)


class TestExpectedVisitsClosed:
    def test_m3_values_match_hand_inverted_fundamental(self):
        assert expected_visits_closed(1, 1, 3) == pytest.approx(3.0, rel=1e-12)
        assert expected_visits_closed(1, 2, 3) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_own_state_visits_equal_threshold(self, m):
        analysis = chain.analyze(build_matrix(m))
        for i in range(1, m):
            assert expected_visits_closed(i, i, m) == pytest.approx(float(m), rel=1e-12)
            assert expected_visits_closed(i, i, m) == pytest.approx(
                analysis.fundamental[i - 1, i - 1], rel=1e-9
            )

    @pytest.mark.parametrize("m", [2**32 + 1, 2**40, 3 * 10**9, 10**15 + 7])
    def test_large_threshold_does_not_wrap(self, m):
        # m * (m - i) passes int64 from m ~ 3.04e9 on; in float64 the product and the
        # quotient each round once, so every entry lies within an ulp of the exact one
        states = [1, 2, 5, 7, 10**4, m // 3, m // 2, m - 2, m - 1]
        got = expected_visits_closed(np.array(states)[:, None], np.array(states), m)
        for (a, i), (b, j) in itertools.product(enumerate(states), repeat=2):
            exact = Fraction(m * (m - i), m - j) if j <= i else Fraction(m * i, j)
            assert got[a, b] == pytest.approx(float(exact), rel=2**-52, abs=0.0), (i, j)
        assert expected_visits_closed(1, 1, m) == float(m)

    def test_large_threshold_examples(self):
        assert expected_visits_closed(np.array([5]), np.array([2]), 2**32 + 1).tolist() == [4294967294.0]
        assert expected_visits_closed(1, 1, 2**32 + 1) == 4294967297.0

    @pytest.mark.parametrize("i,j,m", [(0, 1, 5), (1, 5, 5), (5, 1, 5), (1, 0, 5)])
    def test_rejects_absorbing_states(self, i, j, m):
        with pytest.raises(OutOfRange):
            expected_visits_closed(i, j, m)


class TestExpectedDeathTime:
    def test_two_state_first_step_analysis(self):
        # t = 1 + t/2 from the single transient state
        assert expected_death_time(1, 2) == pytest.approx(2.0, rel=1e-12)

    def test_m4_center_matches_linear_solve(self):
        assert expected_death_time(2, 4) == pytest.approx(28 / 3, rel=1e-12)

    def test_absorbed_starts(self):
        assert expected_death_time(0, 10) == 0.0
        assert expected_death_time(10, 10) == 0.0

    def test_symmetric_under_state_reflection(self):
        for m in range(2, 61):
            for i in range(m + 1):
                assert expected_death_time(i, m) == pytest.approx(
                    expected_death_time(m - i, m), rel=1e-12
                )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            expected_death_time(11, 10)

    @pytest.mark.parametrize("m", [4_000, 16_000])
    def test_large_threshold_bits(self, m):
        # past PINNED_THRESHOLDS, at the boundaries, next to them and in the middle
        states = [0, 1, 2, m // 2, m - 2, m - 1, m]
        got = expected_death_time(np.array(states), m)
        assert got.tolist() == [oracle.expected_death_time(i, m) for i in states]
        assert [expected_death_time(i, m) for i in states] == got.tolist()


class TestConditionalDeathTime:
    """E[T | death, start i], the mean death time of the runs that die, in the test oracle."""

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 81, 300])
    def test_matches_h_transformed_fundamental_matrix(self, m):
        # conditioned on absorption at m, the visits to j from i are N[i, j] * b[j] / b[i]
        analysis = chain.analyze(build_matrix(m))
        b = analysis.absorb_prob[:, analysis.absorbing_order.index(m)]
        conditioned = (analysis.fundamental @ b) / b
        for row, i in enumerate(analysis.transient_order):
            assert oracle.conditional_death_time(i, m) == pytest.approx(conditioned[row], rel=1e-11)

    def test_readme_chain_from_one_dead_node(self):
        # N = 20 gives M = 16: the one network in 16 that dies takes M(M - 1) steps on average,
        # far longer than the 53 steps of the mean over every run, most of which heal
        m, i = 16, 1
        assert death_probability(i, m) == 1 / 16
        assert expected_death_time(i, m) == pytest.approx(53.0917, abs=5e-5)
        assert oracle.conditional_death_time(i, m) == pytest.approx(m * (m - 1), rel=1e-15)

    def test_matches_chain_stepper(self):
        steps, absorbed_at = oracle.chain_absorptions(16, 8, 2000, 4242)
        died = steps[absorbed_at == 16]
        assert died.size == 1014
        se = float(died.std(ddof=1)) / np.sqrt(died.size)
        assert abs(float(died.mean()) - oracle.conditional_death_time(8, 16)) <= 4 * se


class TestBuildMatrix:
    def test_m2_middle_row(self):
        tm = build_matrix(2)
        np.testing.assert_allclose(tm.probs[1], [0.25, 0.5, 0.25], atol=1e-15)

    def test_m3_interior_rows(self):
        tm = build_matrix(3)
        np.testing.assert_allclose(tm.probs[1], [2 / 9, 5 / 9, 2 / 9, 0.0], atol=1e-15)
        np.testing.assert_allclose(tm.probs[2], [0.0, 2 / 9, 5 / 9, 2 / 9], atol=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 10, 41])
    def test_off_tridiagonal_exactly_zero(self, m):
        tm = build_matrix(m)
        for i in range(m + 1):
            for j in range(m + 1):
                if abs(i - j) > 1:
                    assert tm.probs[i, j] == 0.0
        assert np.max(np.abs(tm.probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_refuses_a_matrix_numpy_cannot_size_before_allocating(self, monkeypatch):
        def allocate(m):
            raise AssertionError("step_probs allocated before the size check")

        monkeypatch.setattr(network, "step_probs", allocate)
        with pytest.raises(ConfigInvalid, match="too large for numpy arrays"):
            build_matrix(3_100_000_000)

    def test_absorbing_states_declared(self):
        tm = build_matrix(7)
        assert tm.absorbing == frozenset({0, 7})

    def test_absorption_toward_threshold_matches_death_probability(self):
        for m in (3, 8, 15):
            analysis = chain.analyze(build_matrix(m))
            col = analysis.absorbing_order.index(m)
            for row, i in enumerate(analysis.transient_order):
                assert analysis.absorb_prob[row, col] == pytest.approx(
                    death_probability(i, m), abs=1e-9
                )


class TestThreshold:
    @pytest.mark.parametrize("n,m", [(10, 8), (5, 4), (7, 6), (2, 2), (25, 20), (100, 80)])
    def test_four_fifths_half_up(self, n, m):
        assert threshold_from_deployed(n) == m

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            threshold_from_deployed(1)

    @pytest.mark.parametrize("n", [20.5, 20.0, np.float64(20.0), True, "20"],
                             ids=["20.5", "20.0", "float64", "True", "str"])
    def test_non_integer_node_count_is_refused(self, n):
        # truncated, 20.5 gave 16.0
        with pytest.raises(ConfigInvalid, match=re.escape(f"n_deployed must be an integer, got {n!r}")):
            threshold_from_deployed(n)

    def test_numpy_integer_node_count_gives_an_int(self):
        for n in (np.int64(20), np.uint16(20), np.int8(20)):
            m = threshold_from_deployed(n)
            assert type(m) is int and m == 16

    def test_params_derive_threshold(self):
        params = NetworkChainParams(n_deployed=10, initial_dead=3)
        assert params.m_threshold == 8

    @pytest.mark.parametrize("m", [2, 7, 10])
    def test_params_keep_explicit_threshold_in_range(self, m):
        params = NetworkChainParams(n_deployed=10, initial_dead=1, m_threshold=m)
        assert params.m_threshold == m

    @pytest.mark.parametrize("m", [-1, 0, 1, 11])
    def test_params_reject_threshold_outside_range(self, m):
        with pytest.raises(ConfigInvalid, match=r"outside \[2, 10\]"):
            NetworkChainParams(n_deployed=10, initial_dead=1, m_threshold=m)

    def test_params_reject_node_counts_numpy_cannot_size(self):
        largest = np.iinfo(np.intp).max // 8
        assert NetworkChainParams(n_deployed=largest).n_deployed == largest
        with pytest.raises(ConfigInvalid, match="too large for numpy arrays"):
            NetworkChainParams(n_deployed=largest + 1)

    def test_params_with_explicit_threshold_still_need_two_nodes(self):
        with pytest.raises(TooFewNodes):
            NetworkChainParams(n_deployed=1, initial_dead=1, m_threshold=2)

    def test_params_reject_bad_initial_dead(self):
        with pytest.raises(OutOfRange):
            NetworkChainParams(n_deployed=10, initial_dead=9)
        with pytest.raises(OutOfRange):
            NetworkChainParams(n_deployed=10, initial_dead=5, m_threshold=4)

    @pytest.mark.parametrize("value", [10.5, True, np.float64(10.0), "10"])
    @pytest.mark.parametrize("name", ["n_deployed", "initial_dead", "m_threshold"])
    def test_params_reject_non_integer(self, name, value):
        kwargs = {"n_deployed": 20, "initial_dead": 1, "m_threshold": 16, name: value}
        with pytest.raises(ConfigInvalid, match=re.escape(f"{name} must be an integer, got {value!r}")):
            NetworkChainParams(**kwargs)

    def test_params_store_numpy_integers_as_int(self):
        params = NetworkChainParams(np.int64(20), np.int8(1), np.uint16(10))
        assert params == NetworkChainParams(20, 1, 10)
        assert [type(v) for v in (params.n_deployed, params.initial_dead, params.m_threshold)] == [int] * 3
        assert type(NetworkChainParams(np.int32(20)).m_threshold) is int


class TestLibraryBoundary:
    """Only a ``SleepwatchError`` leaves the public closed forms, estimators and detector."""

    POOL = [-1, 0, 1, 2, 3, 8, 2**31, 2**32 + 1, 2**63, 10**30, 10**400, True, 2.5, math.nan, math.inf,
            -math.inf, "3", None, [1, 2], [[1, 2], [3]], np.array([], dtype=np.int64), np.array([]),
            np.array([1, 3, -2], dtype=np.int8), np.array([2, 2**64 - 1], dtype=np.uint64),
            np.array([1.0, 2.5]), NetworkChainParams(10), Baseline(40.0, BaselineSource.ANALYTIC, 2.0),
            BaselineSource.ANALYTIC, RunSummary(100, (50, None)),
            # the enums, one instance of each model type, and the enum values as strings;
            # the scenario has an attack, so no call runs it as a Monte Carlo baseline
            BaselineSource.MONTE_CARLO, AttackKind.RTS_CTS_FLOOD, DeathMode.ENERGY, NodeState.ACTIVE,
            Decision.NORMAL, default_policy(), default_energy(), rts_cts_flood(), build_matrix(3),
            ScenarioConfig(NetworkChainParams(20), 50, 0, default_policy(), default_energy(), rts_cts_flood()),
            DetectorSettings(), "energy", "analytic", "rts_cts_flood",
            # records, bare and in a tuple, and a real trace, for the trace's builders and readers
            TickRecord(0, 0, 5, 0, 0, 5000.0), (TickRecord(0, 0, 5, 0, 0, 5000.0), TickRecord(1, 4, 1, 0, 0, 4.0)),
            (), run_one(ScenarioConfig(NetworkChainParams(5), 60, 1, default_policy(), default_energy()))]
    # an allocating call takes a threshold or tick count of at most 10**4, or one the
    # checks refuse: expected_death_time(1, 2**32 + 1) would ask for a 34 GB arange
    SMALL = [v for v in POOL if not (type(v) is int and 10**4 < v <= network._MAX_ITEMS)]

    TOO_LARGE = f"threshold {10**30} is too large for numpy arrays"
    RAGGED = "must form an array, not a ragged sequence"

    @pytest.mark.parametrize("call, message", [
        (lambda: expected_death_time(2, 10**30), TOO_LARGE),
        (lambda: step_probs(10**30), TOO_LARGE),
        (lambda: death_probability(10**30, 10**30), TOO_LARGE),
        (lambda: expected_visits_closed(5, 2, 10**30), TOO_LARGE),
        (lambda: death_probability([[1, 2], [3]], 8), f"states {RAGGED}"),
        (lambda: expected_visits_closed(np.array([], dtype=np.int64), np.array([1, 2]), 3),
         "states of shapes (0,) and (2,) do not broadcast"),
        (lambda: estimate_step_rate([[1, 2], [3]], 8, 1), f"chain view {RAGGED}"),
        (lambda: simulate_chain_trajectory(10, 3, [0.5], 1, 10), "step_prob must lie in (0, 1], got [0.5]"),
        (lambda: simulate_chain_trajectory(10, 3, np.array([0.5, 0.5]), 1, 10),
         "step_prob must lie in (0, 1], got [0.5 0.5]"),
    ], ids=["death-time", "step-probs", "death-probability", "visits", "ragged", "no-broadcast",
            "ragged-view", "step-prob-list", "step-prob-array"])
    def test_each_hole_is_refused_in_one_line(self, call, message):
        with pytest.raises(SleepwatchError) as refused:
            call()
        assert str(refused.value) == message

    @pytest.mark.parametrize("window, stride", [(2, 10**30), (10**30, None), (10**30, 10**30)])
    def test_window_or_stride_past_the_view_gives_that_length(self, window, stride):
        baseline = Baseline(40.0, BaselineSource.ANALYTIC, 2.0)
        view, params = np.arange(10), NetworkChainParams(20)
        got = online_estimate(view, params, baseline, window=window, min_events=1, stride=stride)
        assert got == online_estimate(view, params, baseline, window=min(window, 10), min_events=1,
                                      stride=10)

    def test_random_calls_raise_only_sleepwatch_errors(self):
        rng = np.random.default_rng(20260)
        calls = [
            (death_probability, [self.POOL] * 2),
            (expected_death_time, [self.POOL, self.SMALL]),
            (expected_visits_closed, [self.POOL] * 3),
            (step_probs, [self.SMALL]),
            (build_matrix, [self.SMALL]),
            (threshold_from_deployed, [self.POOL]),
            (NetworkChainParams, [self.POOL] * 3),
            (simulate_chain_trajectory, [self.SMALL, self.POOL, self.POOL, self.POOL, self.SMALL,
                                         self.POOL]),
            (estimate_step_rate, [self.POOL, self.SMALL, self.POOL]),
            (online_estimate, [self.POOL] * 7),
            # theta at its default, so that most calls get past its check
            (decide, [self.POOL] * 3),
            (detect, [self.POOL] * 2),
            (compute_baseline, [self.POOL] * 3),
            (Baseline, [self.POOL] * 3),
            # the model types are only built, never run
            (AttackModel, [self.POOL] * 6),
            (rts_cts_flood, [self.POOL] * 5),
            (broadcast_replay, [self.POOL] * 5),
            (EnergyModel, [self.POOL] * 2),
            (NodePolicy, [self.POOL]),
            (chain.TransitionMatrix, [self.POOL] * 2),
            (chain.AbsorptionAnalysis, [self.POOL] * 5),
            (RunSummary, [self.POOL] * 3),
            (SimulationTrace, [self.POOL] * 3),
            (serialize.trace_to_csv, [self.POOL]),
            (ScenarioConfig, [self.POOL] * 8),
            (DetectorSettings, [self.POOL] * 5),
        ]
        escaped = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                for fn, pools in calls:
                    args = [pool[rng.integers(len(pool))] for pool in pools]
                    try:
                        fn(*args)
                    except SleepwatchError:
                        pass
                    except Exception as e:  # noqa: BLE001 - what escaped is the finding
                        escaped.append(f"{getattr(fn, '__name__', fn)}{tuple(args)!r}: {e!r}")
        assert not escaped, "\n".join(sorted(set(escaped))[:20])
