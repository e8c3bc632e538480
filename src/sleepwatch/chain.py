"""Generic absorbing Markov chain engine.

A :class:`TransitionMatrix` checks itself when it is built (see
:func:`validate`), so every matrix is a valid absorbing chain.
:func:`analyze` splits P into the transient block Q and the
transient-to-absorbing block R, and computes the standard absorption
quantities from the fundamental matrix N = (I - Q)^-1:

- N[i, j] is the expected number of visits to transient state j before
  absorption, starting from transient state i;
- N @ R gives the absorption probabilities into each absorbing state;
- N @ 1 gives the expected number of steps to absorption.

The fundamental matrix is computed with a direct dense solve (LAPACK
partial-pivot factorization). Chains in this toolkit have at most a few
hundred states, so exactness and simplicity beat sparse machinery.

This module is the brute-force oracle against which the closed forms in
:mod:`sleepwatch.network` are checked.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .errors import (BadAbsorbingRow, NoAbsorptionPath, NotStochastic, SingularSystem, require_array,
                     require_int, require_type)

ROW_SUM_TOL = 1e-9


def _readonly(name: str, a: np.ndarray) -> np.ndarray:
    out = require_array(name, a, reals=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix with declared absorbing states.

    ``probs[i, j]`` is the one-step probability of moving from state i to
    state j. States listed in ``absorbing`` must carry identity rows.
    Construction runs :func:`validate`, so an invalid matrix never exists.
    """

    probs: np.ndarray
    absorbing: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _readonly("transition matrix", self.probs))
        states = require_type("absorbing", self.absorbing, Set)
        object.__setattr__(self, "absorbing", frozenset(require_int("absorbing state", a) for a in states))
        validate(self)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def transient(self) -> list[int]:
        return [s for s in range(self.n_states) if s not in self.absorbing]


@dataclass(frozen=True)
class AbsorptionAnalysis:
    """Fundamental-matrix quantities of an absorbing chain.

    ``fundamental[i, j]`` is the expected visit count to transient state
    ``transient_order[j]`` starting from ``transient_order[i]``;
    ``absorb_prob`` rows are distributions over ``absorbing_order``;
    ``expected_steps`` is the expected time to absorption per start state.
    """

    transient_order: tuple[int, ...]
    absorbing_order: tuple[int, ...]
    fundamental: np.ndarray
    absorb_prob: np.ndarray
    expected_steps: np.ndarray

    def __post_init__(self) -> None:
        for name in ("fundamental", "absorb_prob", "expected_steps"):
            object.__setattr__(self, name, _readonly(name, getattr(self, name)))


def check_rows(p: np.ndarray, entries: str, row_sum) -> None:
    """NotStochastic unless ``p``'s entries lie in [0, 1] and its rows sum to 1; ``row_sum`` words a bad row."""
    if not np.isfinite(p).all() or np.any(p < 0.0) or np.any(p > 1.0 + ROW_SUM_TOL):
        raise NotStochastic(f"{entries} must lie in [0, 1]")
    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise NotStochastic(row_sum(int(bad[0]), float(sums[bad[0]])))


def validate(matrix: TransitionMatrix) -> TransitionMatrix:
    """Check stochasticity, absorbing rows, and absorption reachability.

    Returns the matrix unchanged when every row sums to 1 within
    ``ROW_SUM_TOL``, every declared absorbing state has an identity row,
    and every transient state can reach some absorbing state through
    nonzero entries (structural graph search, independent of
    conditioning).

    Raises:
        NotStochastic: a row sum deviates by more than ``ROW_SUM_TOL``,
            or an entry is not finite or lies outside [0, 1].
        BadAbsorbingRow: an absorbing state's row is not the identity row.
        NoAbsorptionPath: some transient state cannot reach absorption,
            so the fundamental matrix would diverge.
    """
    p = matrix.probs
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise NotStochastic(f"transition matrix must be square and non-empty, got shape {p.shape}")
    n = matrix.n_states
    check_rows(p, "transition probabilities",
               lambda row, total: f"row {row} sums to {total}, expected 1 within {ROW_SUM_TOL}")
    for a in sorted(matrix.absorbing):
        if a < 0 or a >= n:
            raise BadAbsorbingRow(f"absorbing state {a} out of range for {n} states")
        expected = np.zeros(n)
        expected[a] = 1.0
        if np.max(np.abs(p[a] - expected)) > ROW_SUM_TOL:
            raise BadAbsorbingRow(f"state {a} declared absorbing but its row is not the identity row")

    # Backward reachability from the absorbing set over nonzero entries.
    reached = set(matrix.absorbing)
    frontier = list(matrix.absorbing)
    incoming = [np.flatnonzero(p[:, j] > 0.0) for j in range(n)]
    while frontier:
        j = frontier.pop()
        for i in incoming[j]:
            i = int(i)
            if i not in reached:
                reached.add(i)
                frontier.append(i)
    stranded = [s for s in matrix.transient if s not in reached]
    if stranded:
        raise NoAbsorptionPath(f"transient state(s) {stranded} cannot reach any absorbing state")
    return matrix


def analyze(matrix: TransitionMatrix) -> AbsorptionAnalysis:
    """Compute the fundamental matrix and the absorption quantities.

    Every :class:`TransitionMatrix` is valid by construction. Splits it into
    Q (transient to transient) and R (transient to absorbing), both in
    ascending original state order, so repeated calls produce identical
    results. Builds I - Q in its copy of Q and inverts it directly (the
    LAPACK ``gesv`` solve of (I - Q) N = I, without a second identity for
    the right-hand side);
    ``absorb_prob = N @ R`` and ``expected_steps = N @ 1``.

    Raises:
        SingularSystem: I - Q is numerically singular. This signals a
            chain that defeats the reachability check within the row-sum
            tolerance (e.g. an escape probability that underflows).
    """
    transient = tuple(matrix.transient)
    absorbing = tuple(sorted(matrix.absorbing))
    q = matrix.probs[np.ix_(transient, transient)]
    r = matrix.probs[np.ix_(transient, absorbing)]
    # Q and R are copies. Dropping the argument lets a caller's temporary
    # matrix be freed before the inverse (CPython >= 3.11 moves a call's
    # arguments into the callee's frame).
    del matrix
    # I - Q in place: 0.0 - q off the diagonal and (0.0 - q) + 1.0 = 1.0 - q
    # on it, the bits np.eye(n) - q gives, without the identity or a copy
    np.subtract(0.0, q, out=q)
    q.flat[:: len(transient) + 1] += 1.0
    try:  # a chain with no transient state gets empty blocks: inv of a 0x0 matrix is 0x0
        fundamental = np.linalg.inv(q)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"I - Q is singular for transient states {transient}") from exc
    return AbsorptionAnalysis(transient, absorbing, fundamental, fundamental @ r, fundamental.sum(axis=1))

