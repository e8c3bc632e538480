"""Shared generators for randomized chain, policy and float-formatting tests."""

from __future__ import annotations

import numpy as np

from sleepwatch.chain import TransitionMatrix
from sleepwatch.errors import NoAbsorptionPath
from sleepwatch.lifecycle import ALLOWED, NodePolicy


def random_absorbing_chain(
    rng: np.random.Generator,
    max_states: int = 10,
    min_absorbing_mass: float = 0.0,
) -> TransitionMatrix:
    """Random validated chain with 2..max_states states, at least one absorbing.

    Transient rows are Dirichlet draws with random zeros mixed in;
    candidates that lose every path to absorption are rejected and
    redrawn. ``min_absorbing_mass`` forces that much direct
    transient-to-absorbing probability per row, which pins the spectral
    radius of Q away from 1 for decay tests.
    """
    while True:
        n = int(rng.integers(2, max_states + 1))
        n_abs = int(rng.integers(1, n))
        absorbing = set(int(s) for s in rng.permutation(n)[:n_abs])
        probs = np.zeros((n, n))
        abs_idx = sorted(absorbing)
        for i in range(n):
            if i in absorbing:
                probs[i, i] = 1.0
                continue
            row = rng.dirichlet(np.ones(n))
            drop = rng.random(n) < 0.3
            drop[int(rng.integers(0, n))] = False  # keep the row non-degenerate
            row[drop] = 0.0
            total = row.sum()
            if total <= 0.0:
                row[:] = 1.0 / n
            else:
                row /= total
            if min_absorbing_mass > 0.0:
                row *= 1.0 - min_absorbing_mass
                row[abs_idx] += min_absorbing_mass / len(abs_idx)
            probs[i] = row
        try:
            return TransitionMatrix(probs, frozenset(absorbing))
        except NoAbsorptionPath:
            continue


def random_node_policy(rng: np.random.Generator) -> NodePolicy:
    """Random validated policy: positive mass on a random subset of allowed cells."""
    probs = np.zeros((4, 4))
    probs[3, 3] = 1.0
    for s in range(3):
        allowed = np.flatnonzero(ALLOWED[s])
        keep = allowed[rng.random(allowed.size) < 0.8]
        if keep.size == 0:
            keep = allowed
        weights = rng.random(keep.size) + 0.05
        probs[s, keep] = weights / weights.sum()
    return NodePolicy(probs)


def random_float64(rng: np.random.Generator, size: int) -> np.ndarray:
    """Finite float64 values from random bit patterns, either sign.

    Half take any finite binary exponent, subnormals included; the other
    half a binary exponent in [-20, 60] (magnitudes ~1e-6 to ~2e18), the
    range where ``%.17g`` switches between fixed and exponent form.
    """
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = np.where(rng.random(size) < 0.5, rng.integers(0, 2047, size=size),
                        rng.integers(1023 - 20, 1023 + 61, size=size)).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, size=size, dtype=np.uint64)
    return (sign | (exponent << np.uint64(52)) | mantissa).view(np.float64)
