import re
import sys
import weakref

import numpy as np
import pytest

from conftest import random_absorbing_chain
from sleepwatch import chain
from sleepwatch.chain import TransitionMatrix
from sleepwatch.errors import (
    BadAbsorbingRow,
    ConfigInvalid,
    NoAbsorptionPath,
    NotStochastic,
    SingularSystem,
)
from sleepwatch.network import build_matrix


def two_state() -> TransitionMatrix:
    return TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), frozenset({0}))


def m3_chain() -> TransitionMatrix:
    return build_matrix(3)


def blocks(tm: TransitionMatrix, analysis: chain.AbsorptionAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """Q and R of ``tm`` under the state orders ``analysis`` reports."""
    t, a = analysis.transient_order, analysis.absorbing_order
    return tm.probs[np.ix_(t, t)], tm.probs[np.ix_(t, a)]


class TestValidate:
    def test_accepts_simple_absorbing_chain(self):
        tm = two_state()
        assert chain.validate(tm) is tm

    def test_construction_runs_module_validate(self, monkeypatch):
        # through the module global, so a wrapper installed on chain.validate sees every matrix
        seen = []
        monkeypatch.setattr(chain, "validate", seen.append)
        tm = two_state()
        assert seen == [tm]

    @pytest.mark.parametrize("probs", [np.array(1.0), np.ones(2), np.ones((2, 3)), np.zeros((0, 0))],
                             ids=["scalar", "vector", "non-square", "empty"])
    def test_rejects_non_square_or_empty(self, probs):
        with pytest.raises(NotStochastic, match="must be square and non-empty"):
            TransitionMatrix(probs, frozenset())

    def test_rejects_bad_row_sum(self):
        with pytest.raises(NotStochastic, match=r"^row 1 sums to 1\.1, expected 1 within 1e-09$"):
            TransitionMatrix(np.array([[1.0, 0.0], [0.6, 0.5]]), frozenset({0}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(NotStochastic):
            TransitionMatrix(np.array([[1.0, 0.0, 0.0], [0.5, bad, 0.5], [0.0, 0.0, 1.0]]), frozenset({0, 2}))

    def test_rejects_negative_entries(self):
        with pytest.raises(NotStochastic):
            TransitionMatrix(np.array([[1.0, 0.0], [1.2, -0.2]]), frozenset({0}))

    def test_rejects_non_identity_absorbing_row(self):
        with pytest.raises(BadAbsorbingRow):
            TransitionMatrix(np.array([[0.9, 0.1], [0.5, 0.5]]), frozenset({0}))

    def test_rejects_disguised_absorbing_state(self):
        # state 1 is absorbing in all but name, so absorption from it is impossible
        with pytest.raises(NoAbsorptionPath):
            TransitionMatrix(np.eye(2), frozenset({0}))

    @pytest.mark.parametrize("probs, dtype", [([["a"]], "<U1"), (None, "object"), ([[1.0, None], [0.0, 1.0]], "object")],
                             ids=["str", "none", "mixed"])
    def test_rejects_non_numeric_entries(self, probs, dtype):
        with pytest.raises(ConfigInvalid, match=f"^transition matrix must hold real numbers, got dtype {dtype}$"):
            TransitionMatrix(probs, frozenset())

    @pytest.mark.parametrize("absorbing, message", [
        (0, "absorbing must be a Set, got int"),
        ([0], "absorbing must be a Set, got list"),
        (frozenset({0.0}), "absorbing state must be an integer, got 0.0"),
        (frozenset({"0"}), "absorbing state must be an integer, got '0'"),
    ], ids=["int", "list", "float", "str"])
    def test_rejects_absorbing_states_that_are_not_a_set_of_integers(self, absorbing, message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), absorbing)

    def test_rejects_stranded_transient_group(self):
        probs = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 0.5, 0.5],
                [0.0, 0.5, 0.5],
            ]
        )
        with pytest.raises(NoAbsorptionPath):
            TransitionMatrix(probs, frozenset({0}))


class TestCanonicalize:
    """The [Q R; 0 I] split that analyze makes: ascending transient and absorbing orders."""

    def test_single_transient(self):
        tm = two_state()
        analysis = chain.analyze(tm)
        assert analysis.transient_order == (1,)
        assert analysis.absorbing_order == (0,)
        q, r = blocks(tm, analysis)
        np.testing.assert_array_equal(q, [[0.5]])
        np.testing.assert_array_equal(r, [[0.5]])

    def test_network_chain_m3(self):
        q, r = blocks(m3_chain(), chain.analyze(m3_chain()))
        np.testing.assert_allclose(q, [[5 / 9, 2 / 9], [2 / 9, 5 / 9]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(r, [[2 / 9, 0.0], [0.0, 2 / 9]], rtol=0, atol=1e-15)

    def test_all_absorbing_gives_empty_blocks(self):
        analysis = chain.analyze(TransitionMatrix(np.eye(2), frozenset({0, 1})))
        assert analysis.transient_order == ()
        assert analysis.absorbing_order == (0, 1)
        assert analysis.fundamental.shape == (0, 0)
        assert analysis.absorb_prob.shape == (0, 2)
        assert analysis.expected_steps.shape == (0,)

    def test_orders_partition_states_ascending(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            tm = random_absorbing_chain(rng)
            analysis = chain.analyze(tm)
            assert analysis.transient_order == tuple(tm.transient)
            assert analysis.absorbing_order == tuple(sorted(tm.absorbing))
            assert sorted(analysis.transient_order + analysis.absorbing_order) == list(range(tm.n_states))


class TestAnalyze:
    def test_geometric_escape(self):
        analysis = chain.analyze(two_state())
        np.testing.assert_allclose(analysis.fundamental, [[2.0]], rtol=1e-12)
        np.testing.assert_allclose(analysis.expected_steps, [2.0], rtol=1e-12)

    def test_network_chain_m3_closed_values(self):
        # (I - Q)^-1 for Q = [[5/9,2/9],[2/9,5/9]] inverted by hand
        analysis = chain.analyze(m3_chain())
        np.testing.assert_allclose(analysis.fundamental, [[3.0, 1.5], [1.5, 3.0]], rtol=1e-12)
        np.testing.assert_allclose(analysis.expected_steps, [4.5, 4.5], rtol=1e-12)
        np.testing.assert_allclose(
            analysis.absorb_prob, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], rtol=1e-12
        )

    def test_absorb_prob_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            analysis = chain.analyze(random_absorbing_chain(rng))
            if analysis.absorb_prob.shape[0]:
                np.testing.assert_allclose(analysis.absorb_prob.sum(axis=1), 1.0, atol=1e-8)

    def test_expected_steps_at_least_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            analysis = chain.analyze(random_absorbing_chain(rng))
            assert np.all(analysis.expected_steps >= 1.0 - 1e-12)
            assert np.all(analysis.fundamental >= -1e-12)

    def test_repeated_analysis_bit_identical(self):
        tm = m3_chain()
        first = chain.analyze(tm)
        second = chain.analyze(tm)
        assert first.fundamental.tobytes() == second.fundamental.tobytes()
        assert first.absorb_prob.tobytes() == second.absorb_prob.tobytes()
        assert first.expected_steps.tobytes() == second.expected_steps.tobytes()

    @pytest.mark.parametrize("m", [*range(2, 60), 81, 200, 300, 799, 800, 1000])
    def test_fundamental_is_the_identity_solve_bit_for_bit(self, m):
        # inv(I - Q) and solve(I - Q, I) make the same LAPACK gesv call on an
        # identity; the published oracle must not move by one bit
        tm = build_matrix(m)
        analysis = chain.analyze(tm)
        q, _ = blocks(tm, analysis)
        identity = np.eye(len(q))
        expected = np.linalg.solve(identity - q, identity)
        assert analysis.fundamental.tobytes() == expected.tobytes()

    def test_fundamental_is_the_inverse_of_eye_minus_q_bit_for_bit(self):
        # I - Q is built in place; the inverse must see the bits np.eye(n) - q has
        rng = np.random.default_rng(17)
        for _ in range(200):
            tm = random_absorbing_chain(rng, max_states=12)
            analysis = chain.analyze(tm)
            q, _ = blocks(tm, analysis)
            expected = np.linalg.inv(np.eye(len(q)) - q)
            assert analysis.fundamental.tobytes() == expected.tobytes()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="a 3.10 caller keeps its arguments alive")
    def test_argument_is_released_before_the_inverse(self, monkeypatch):
        built = []
        inv = np.linalg.inv

        def spy(a):
            assert built[0]() is None, "the transition matrix outlived its Q and R copies"
            return inv(a)

        def build(m):
            tm = build_matrix(m)
            built.append(weakref.ref(tm))
            return tm

        monkeypatch.setattr(np.linalg, "inv", spy)
        analysis = chain.analyze(build(30))
        assert analysis.fundamental.shape == (29, 29)

    def test_singular_system_from_underflowed_escape(self):
        # escape mass so small it vanishes from both the row sum and I - Q:
        # passes the tolerance checks yet leaves nothing to absorb through
        probs = np.array([[1.0, 0.0], [1e-30, 1.0]])
        tm = TransitionMatrix(probs, frozenset({0}))
        with pytest.raises(SingularSystem):
            chain.analyze(tm)


class TestNStep:
    def test_zero_steps_is_identity(self):
        tm = two_state()
        np.testing.assert_array_equal(np.linalg.matrix_power(tm.probs, 0), np.eye(2))

    def test_three_step_absorption(self):
        # paths that stay alive 3 times: 0.5^3, so absorbed mass is 0.875
        tm = two_state()
        stepped = np.linalg.matrix_power(tm.probs, 3)
        assert stepped[1, 0] == pytest.approx(0.875, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_absorbing_state_stays_put(self, n):
        stepped = np.linalg.matrix_power(m3_chain().probs, n)
        assert stepped[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert stepped[3, 3] == pytest.approx(1.0, abs=1e-12)

    def test_chapman_kolmogorov(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            tm = random_absorbing_chain(rng)
            a, b = int(rng.integers(0, 17)), int(rng.integers(0, 17))
            lhs = np.linalg.matrix_power(tm.probs, a + b)
            rhs = np.linalg.matrix_power(tm.probs, a) @ np.linalg.matrix_power(tm.probs, b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_transient_mass_decays(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            tm = random_absorbing_chain(rng, min_absorbing_mass=0.05)
            transient = tm.transient
            if not transient:
                continue
            masses = []
            for k in range(11):
                stepped = np.linalg.matrix_power(tm.probs, 2**k)
                masses.append(stepped[np.ix_(transient, transient)].sum())
            assert masses[-1] < 1e-12
            assert masses[-1] <= masses[0] + 1e-12


class TestExpectedVisits:
    def test_network_chain_m3_entries(self):
        analysis = chain.analyze(m3_chain())
        # transient states 1 and 2 sit at fundamental rows/columns 0 and 1
        assert analysis.fundamental[0, 0] == pytest.approx(3.0, rel=1e-12)
        assert analysis.fundamental[0, 1] == pytest.approx(1.5, rel=1e-12)

    def test_geometric_self_visits(self):
        analysis = chain.analyze(two_state())
        assert analysis.fundamental[0, 0] == pytest.approx(2.0, rel=1e-12)

