"""The power transform linking the model to a square-root diffusion.

For gamma != 1 and a free constant C > 0,

    f(x)  = C^2 / (4 (1-gamma)^2) * x^(2 (1-gamma))
    f'(x) = C^2 / (2 (1-gamma))   * x^(1 - 2 gamma)
    f''(x)= C^2 (1-2 gamma) / (2 (1-gamma)) * x^(-2 gamma)
    finv(y) = (|2 (gamma-1) / C| sqrt(y))^(1/(1-gamma))

f is strictly monotone on (0, inf): increasing for gamma < 1, decreasing
for gamma > 1, and satisfies x^gamma f'(x) = C sqrt(f(x)) sign(1-gamma).
Under the reweighted measure of the girsanov module, where the rate has
drift b x + (gamma sigma^2 / 2) x^(2 gamma - 1), mapping the rate through
f yields a square-root diffusion with volatility vol = sigma C, linear
drift 2 b (1-gamma) and constant drift vol^2 / 4, one degree of freedom.
Under the base measure (drift a - b x) Ito's formula gives the linear
drift -2 b (1-gamma) instead, plus a term in x^(1 - 2 gamma) from a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTransform, DomainError
from .numerics import TINY, _echo, like_argument, not_normal, positive_points, require_real
from .params import CklsParams, require_transformable

__all__ = [
    "Transform",
    "CirParams",
    "default_c",
    "make_transform",
    "derive_cir",
]


@dataclass(frozen=True)
class Transform:
    """Frozen power map: the constant C > 0 and the exponent gamma != 1.

    Both pass the real rule (numerics.require_real), and C > 0; gamma = 1
    has no power transform and raises DegenerateTransform.
    f, f' and f'' are each a constant times a power of x; where the
    constant or the power leaves the normal float range (near gamma = 1,
    at extreme C or x) but the product does not, they are formed in logs.
    """

    c: float
    gamma: float

    def __post_init__(self) -> None:
        if require_real("gamma", self.gamma) == 1.0:
            raise DegenerateTransform("gamma = 1: the power transform is undefined")
        if not require_real("C", self.c) > 0:
            raise ValueError(f"C must be positive, got {_echo(self.c)}")

    @cached_property
    def _c_squared(self) -> float:
        """C^2, or inf where it is past the float range: f, f' and f''
        then take _power's log route."""
        try:
            return float(self.c**2)
        except OverflowError:
            return math.inf

    def f(self, x):
        g = self.gamma
        return self._power(self._c_squared / (4.0 * (1.0 - g) ** 2), 0, x)

    def fprime(self, x):
        g = self.gamma
        return self._power(self._c_squared / (2.0 * (1.0 - g)), 1, x)

    def fsecond(self, x):
        g = self.gamma
        return self._power(self._c_squared * (1.0 - 2.0 * g) / (2.0 * (1.0 - g)), 2, x)

    def _exponents(self) -> tuple[float, float, float]:
        """The powers of x in f, f' and f''."""
        g = self.gamma
        return 2.0 * (1.0 - g), 1.0 - 2.0 * g, -2.0 * g

    def log_abs(self, x, k: int = 0):
        """log |f^(k)(x)| for k = 0, 1, 2 at the positive points x, from
        log x: finite also where f^(k)(x) is past the float range, and
        -inf where f^(k) is 0 (f'' at gamma = 1/2)."""
        arr = positive_points(x)
        p = self._exponents()
        # f^(k) = C^2 / (4 (1-gamma)^2) p_0 ... p_(k-1) x^(p_k)
        with np.errstate(divide="ignore"):
            log_coef = (
                2.0 * math.log(self.c) - math.log(4.0) - 2.0 * math.log(abs(1.0 - self.gamma))
                + np.log(np.abs(p[:k])).sum()
            )
        return like_argument(log_coef + p[k] * np.log(arr), x)

    def _power(self, coef: float, k: int, x):
        """f^(k)(x) = coef x^(p_k) at the positive points x: the product
        where C^2, coef and x^(p_k) are normal floats, and formed in logs
        (log_abs) where one is not, so the result is zero or infinite only
        where f^(k)(x) is past the float range."""
        arr = np.asarray(x, dtype=float)
        # the least x is the positivity test (NaN if any x is) and, with
        # the greatest, the range test below
        lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (1.0, 1.0)
        if not lo > 0:
            raise DomainError(f"x must be positive, got {x}")
        p = self._exponents()
        normal_coef = TINY <= abs(coef) < math.inf and TINY <= self._c_squared
        # every x^(p_k) is a normal float while |p_k log2 x| stays below
        # 1022 at both ends of x (1000 leaves room for rounding): then no
        # point needs the mask
        if normal_coef and abs(p[k]) * max(abs(math.log2(lo)), abs(math.log2(hi))) < 1000.0:
            return like_argument(coef * arr ** p[k], x)
        # past the float range these are formed again below
        with np.errstate(over="ignore", invalid="ignore"):
            power = arr ** p[k]
            out = coef * power
        far = not_normal(power) | (not normal_coef)
        if np.any(far):
            with np.errstate(over="ignore"):
                logs = np.sign(math.prod(p[:k])) * np.exp(self.log_abs(arr, k))
            out = np.where(far, logs, out)
        return like_argument(out, x)

    def inverse(self, y):
        arr = positive_points(y, "y")
        g = self.gamma
        # one power of a base of order x^(1-gamma): the two separate powers
        # |2(gamma-1)/C|^(1/(1-gamma)) and y^(1/(2(1-gamma))) underflow and
        # overflow near gamma = 1, and their product is NaN
        out = (abs(2.0 * (g - 1.0) / self.c) * np.sqrt(arr)) ** (1.0 / (1.0 - g))
        return like_argument(out, y)


@dataclass(frozen=True)
class CirParams:
    """Coefficients of the image square-root diffusion.

    dY = (drift_const + drift_lin * Y) dt + vol * sqrt(Y) dW,  Y(0) = y0,

    with drift_const = vol^2 / 4, read off vol: one degree of freedom in
    the transition law, Y the square of a Gaussian (see distribution).
    """

    drift_lin: float
    vol: float
    y0: float

    @property
    def drift_const(self) -> float:
        return self.vol**2 / 4.0

    def __post_init__(self) -> None:
        require_real("drift_lin", self.drift_lin)
        for name in ("vol", "y0"):
            if not require_real(name, getattr(self, name)) > 0:
                raise ValueError(f"{name} must be positive, got {_echo(getattr(self, name))}")


def default_c(gamma: float) -> float:
    """Default constant 2|1-gamma|, which normalizes f to the pure power
    x^(2(1-gamma)).  The explicit rate solution does not depend on C, so
    the choice is free; this one is the simplest."""
    return 2.0 * abs(1.0 - gamma)


def make_transform(p: CklsParams, c: float | None = None) -> Transform:
    """Build the power transform for a parameter set.

    c defaults to 2|1-gamma|; Transform validates it and gamma (gamma = 1
    raises DegenerateTransform).
    """
    return Transform(c=default_c(p.gamma) if c is None else c, gamma=p.gamma)


def derive_cir(p: CklsParams, t: Transform) -> CirParams:
    """Coefficients of the transformed diffusion for a transformable regime.

    Requires a change-of-measure-valid parameter set; otherwise raises
    RegimeError naming the violated inequality.
    """
    require_transformable(p)
    return CirParams(
        drift_lin=2.0 * p.b * (1.0 - p.gamma),
        vol=p.sigma * t.c,
        y0=t.f(p.r0),
    )
