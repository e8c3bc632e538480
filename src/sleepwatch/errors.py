"""Exception types shared across the toolkit, and the integer check that raises one."""

import numpy as np


class SleepwatchError(Exception):
    """Base class for all toolkit errors."""


class NotStochastic(SleepwatchError):
    """A transition-matrix row does not sum to 1 within tolerance, or has entries outside [0, 1]."""


class BadAbsorbingRow(SleepwatchError):
    """A state declared absorbing does not have an identity row."""


class NoAbsorptionPath(SleepwatchError):
    """Some transient state cannot reach any absorbing state; absorption quantities diverge."""


class SingularSystem(SleepwatchError):
    """I - Q is numerically singular despite the matrix passing validation tolerances."""


class OutOfRange(SleepwatchError):
    """A chain state index or threshold argument violates its documented bounds."""


class TooFewNodes(SleepwatchError):
    """Deployed node count too small to define a death threshold of at least 2."""


class ForbiddenTransition(SleepwatchError):
    """A node policy puts probability mass on a structurally forbidden transition."""


class ConfigInvalid(SleepwatchError):
    """A scenario or component configuration violates one of its invariants."""


class DegenerateBaseline(SleepwatchError):
    """Baseline requested for an already-absorbed start state; expected death time is zero."""


class Uncalibratable(SleepwatchError):
    """Monte Carlo baseline requested but every calibration run was censored."""


class WindowTooShort(SleepwatchError):
    """Too few observed events in an estimation window to fit a rate."""


class InvariantViolated(SleepwatchError):
    """A simulation broke one of its own invariants: a dead node revived or a node was lost."""


def require_int(name: str, value) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a ``bool``, or ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    return int(value)
