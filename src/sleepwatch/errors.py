"""Exception types shared across the toolkit, and every argument check, each raising ConfigInvalid."""

import math
import numbers

import numpy as np

#: Largest element count numpy can size for an 8-byte dtype.
_MAX_ITEMS = np.iinfo(np.intp).max // 8


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


def require_count(name: str, value) -> int:
    """``value`` as an ``int`` in [1, ``_MAX_ITEMS``], so also a finite float."""
    count = require_int(name, value)
    if count < 1:
        raise ConfigInvalid(f"{name} must be at least 1, got {count}")
    if count > _MAX_ITEMS:
        raise ConfigInvalid(f"{name} {count} is too large for numpy arrays")
    return count


def require_non_negative(name: str, value) -> int:
    """``value`` as an ``int`` of at least 0: a seed, run index or tick budget."""
    integer = require_int(name, value)
    if integer < 0:
        raise ConfigInvalid(f"{name} must be a non-negative integer, got {integer}")
    return integer


def require_real(name: str, value, finite: bool = False) -> float:
    """``value`` as a float: a real number, not a ``bool``; finite if asked."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            pass
        else:
            if finite and not math.isfinite(real):
                raise ConfigInvalid(f"{name} must be finite, got {real}")
            return real
    raise ConfigInvalid(f"{name} must be a real number, got {value!r}")


def require_positive(name: str, value) -> float:
    """``value`` as a float, finite and above 0."""
    real = require_real(name, value)
    if not 0.0 < real < math.inf:
        raise ConfigInvalid(f"{name} must be finite and > 0, got {real}")
    return real


def require_fraction(name: str, value) -> float:
    """``value`` as a float in (0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value <= 1.0:
        raise ConfigInvalid(f"{name} must lie in (0, 1], got {value}")
    return float(value)


def require_type(name: str, value, kind: type):
    """``value`` if it is an instance of ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ConfigInvalid(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def require_array(name: str, value, reals: bool = False) -> np.ndarray:
    """``value`` as an array, not ragged; with ``reals``, a float copy of an integer or float one."""
    try:
        array = np.array(value) if reals else np.asarray(value)
    except ValueError:
        raise ConfigInvalid(f"{name} must form an array, not a ragged sequence") from None
    if reals:
        if array.dtype.kind not in "iuf":
            raise ConfigInvalid(f"{name} must hold real numbers, got dtype {array.dtype}")
        array = array.astype(float, copy=False)
    return array
