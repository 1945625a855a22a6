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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransform
from .numerics import like_argument, positive_points
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

    Both are finite real numbers, not bools; gamma = 1 has no power
    transform and raises DegenerateTransform.
    """

    c: float
    gamma: float

    def __post_init__(self) -> None:
        g, c = self.gamma, self.c
        if isinstance(g, bool) or not isinstance(g, numbers.Real) or not math.isfinite(g):
            raise ValueError(f"gamma must be a finite real number, got {g!r}")
        if g == 1.0:
            raise DegenerateTransform("gamma = 1: the power transform is undefined")
        if isinstance(c, bool) or not isinstance(c, numbers.Real) or not 0 < c < math.inf:
            raise ValueError(f"C must be positive and finite, got {c!r}")

    def f(self, x):
        arr = positive_points(x)
        g = self.gamma
        out = self.c**2 / (4.0 * (1.0 - g) ** 2) * arr ** (2.0 * (1.0 - g))
        return like_argument(out, x)

    def fprime(self, x):
        arr = positive_points(x)
        g = self.gamma
        out = self.c**2 / (2.0 * (1.0 - g)) * arr ** (1.0 - 2.0 * g)
        return like_argument(out, x)

    def fsecond(self, x):
        arr = positive_points(x)
        g = self.gamma
        out = self.c**2 * (1.0 - 2.0 * g) / (2.0 * (1.0 - g)) * arr ** (-2.0 * g)
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
        if not self.vol > 0:
            raise ValueError(f"vol must be positive, got {self.vol}")
        if not self.y0 > 0:
            raise ValueError(f"y0 must be positive, got {self.y0}")


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
