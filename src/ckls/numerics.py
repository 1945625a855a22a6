"""Small numerically-stable kernels shared across modules, and the five
argument rules.  Two take one scalar and raise InputError naming it:

- count (require_count, require_seed): an integer, never a bool or a
  float, >= low; a seed is also below 2^64;
- real (require_real): a real number, not a bool, that converts to a
  finite float.

Three shape the arguments of the closed-form layer, whose element-wise
functions take a float, a 0-d array, a list or an array:

- point (positive_points): a float array, DomainError unless every value
  is > 0, so NaN fails;
- horizon (require_horizon): DomainError unless t >= 0, so NaN fails;
- return (like_argument): a float for a scalar or 0-d argument.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, InputError

__all__ = ["stable_phi", "affine_exp_convolution", "not_normal", "require_count", "require_seed",
           "require_real", "positive_points", "require_horizon", "like_argument"]


# the least normal float
TINY = float(np.finfo(float).tiny)


def not_normal(mag) -> np.ndarray:
    """Where the magnitude mag is not a normal float: zero, subnormal,
    infinite or NaN."""
    return ~((mag >= TINY) & (mag < np.inf))


# the longest repr an error message echoes whole
_ECHO_CHARS = 40


def _echo(value) -> str:
    """repr(value) for an error message, but the size of an int of more
    than 64 bits, whose digits would crowd the message (and past 4300 of
    them str() refuses), and the head and length of a longer repr."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    text = repr(value)
    if len(text) > _ECHO_CHARS:
        return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"
    return text


def require_count(name: str, value, low: int = 1) -> int:
    """The count rule: value as an int; InputError unless it is an
    integer, never a bool or a float, >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {_echo(value)}")
    if not value >= low:
        raise InputError(f"{name} must be >= {low}, got {_echo(value)}")
    return int(value)


def require_seed(value) -> int:
    """The count rule for a seed, which is also below 2^64: one 64-bit word."""
    seed = require_count("seed", value, low=0)
    if not seed < 2**64:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {_echo(value)}")
    return seed


def require_real(name: str, value) -> float:
    """The real rule: value as a float; InputError unless it is a real
    number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {_echo(value)}")
    try:
        out = float(value)
    except OverflowError:  # an int past the float range
        out = math.inf
    if not math.isfinite(out):
        raise InputError(f"{name} must be finite, got {_echo(value)}")
    return out


def positive_points(x, name: str = "x") -> np.ndarray:
    """x as a float array; DomainError unless every value is > 0."""
    arr = np.asarray(x, dtype=float)
    # one reduction: the least value is NaN if any is
    if arr.size and not arr.min() > 0:
        raise DomainError(f"{name} must be positive, got {x}")
    return arr


def require_horizon(t) -> None:
    """DomainError unless the time t is >= 0."""
    if not t >= 0:
        raise DomainError(f"t must be nonnegative, got {t}")


def like_argument(out, x):
    """out as a float when x is a scalar or a 0-d array, as it is otherwise."""
    return float(out) if np.ndim(x) == 0 else out


def stable_phi(c: float, t: float) -> float:
    """integral_0^t e^(c s) ds = (e^(c t) - 1) / c, stable through c = 0.

    Series switchover at |c t| < 1e-8, where the ratio form would lose all
    digits (or divide by zero at c = 0 exactly).
    """
    ct = c * t
    if abs(ct) < 1e-8:
        return t * (1.0 + 0.5 * ct)
    return math.expm1(ct) / c


def affine_exp_convolution(alpha: float, beta: float, c: float, t: float) -> float:
    """integral_0^t (alpha + beta s) e^(c (t - s)) ds in closed form.

    Equals alpha (e^(ct)-1)/c + beta (e^(ct) - c t - 1)/c^2, with the
    c -> 0 limit alpha t + beta t^2/2 handled by series.
    """
    ct = c * t
    if abs(ct) < 1e-6:
        quad = 0.5 * t * t * (1.0 + ct / 3.0 + ct * ct / 12.0)
        return alpha * stable_phi(c, t) + beta * quad
    return alpha * stable_phi(c, t) + beta * (math.expm1(ct) - ct) / (c * c)
