"""Seed-stable random stream derivation.

Every random draw in the toolkit comes from numpy's PCG64 bit generator,
seeded through a ``SeedSequence`` spawn key. A stream is addressed by
``(seed, *key)``, so any run or purpose maps to the same byte-identical
stream on every platform and every invocation. The key layout used by the
simulator is::

    (seed, run_index, AFFECTED_STREAM)   attacker target selection
    (seed, run_index, STEP_STREAM)       per-tick node stepping
    (seed, run_index, CHAIN_STREAM)      dead-count chain trajectory

Keeping target selection on its own stream guarantees that enabling a
no-op attack cannot perturb the node-stepping draws.
"""

from __future__ import annotations

import numpy as np

AFFECTED_STREAM = 0
STEP_STREAM = 1
CHAIN_STREAM = 2


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the PCG64 generator addressed by (seed, *key)."""
    seq = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))
