import re
import tracemalloc

import numpy as np
import pytest

import closed_form_oracle as oracle
from sleepwatch import chain, network
from sleepwatch.errors import ConfigInvalid, OutOfRange, TooFewNodes
from sleepwatch.network import (
    NetworkChainParams,
    build_matrix,
    death_probability,
    expected_death_time,
    expected_visits_closed,
    step_probs,
    threshold_from_deployed,
)

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
        # 801 states at M = 800 take ten chunks of at most 82 rows each
        m = 800
        assert network._CHUNK // (m - 1) < m + 1
        states = np.random.default_rng(3).permutation(m + 1).reshape(3, 267)
        got = expected_death_time(states, m)
        assert got.shape == states.shape
        assert got.tolist() == [[oracle.expected_death_time(int(i), m) for i in row] for row in states]

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
    """The closed forms hold one chunk of terms, or one output array, at a time."""

    def test_expected_death_time_holds_one_chunk_of_terms(self):
        # unchunked, each of the 801 x 799 term rows and its running sum takes 5.1 MB
        value, peak = traced_peak(expected_death_time, np.arange(801), 800)
        assert value.shape == (801,)
        assert peak < 2_000_000

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
