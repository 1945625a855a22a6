"""Non-central chi-square machinery and the exact time-t transition laws.

Under the transformed measure the level Y_t = f(r_t) at a fixed time t
satisfies Y_t / L ~ noncentral-chi-square(df, nonc) where

    L    = (vol^2 / 4) * integral_0^t e^(drift_lin * s) ds   (the
           variance of the Gaussian sqrt(Y_t)),
    nonc = Y_0 e^(drift_lin * t) / L                          (squared
           Gaussian mean over variance),

and the degrees of freedom are forced to 4 drift_const / vol^2 = 1 by the
squared-Gaussian structure ("derived" rule).  The alternative df = C^2
("paper" rule) is kept as a selectable variant so the goodness-of-fit
arbitration can document the discrepancy; the two coincide at C = 1.

At df = 1 (the default) Y_t / L = (sqrt(nonc) + Z)^2 with Z standard
normal, so the law has the closed form

    cdf(x) = Phi(sqrt(x) - sqrt(nonc)) - Phi(-sqrt(x) - sqrt(nonc)),
    pdf(x) = (phi(sqrt(x) - sqrt(nonc)) + phi(sqrt(x) + sqrt(nonc))) / (2 sqrt(x)).

Other df go through scipy.special: the distribution function is chndtr
and the density the Bessel form

    pdf(x) = 1/2 e^(-(sqrt(x) - sqrt(nonc))^2 / 2) (x / nonc)^(df/4 - 1/2)
             ive(df/2 - 1, sqrt(nonc x)),

with the exponentially scaled Bessel function, so nothing overflows at
large nonc.  Only scipy.special is imported: scipy.stats would add about
half a second to every process that imports ckls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, RegimeError
from .numerics import stable_phi
from .params import CklsParams, classify_regime
from .transform import CirParams, Transform

__all__ = [
    "TransitionSpec",
    "NoncentralChiSq",
    "transition_spec",
    "noncentral_pdf",
    "noncentral_cdf",
    "noncentral_sample",
    "rate_density",
    "rate_cdf",
]


@dataclass(frozen=True)
class TransitionSpec:
    """(scale, df, nonc) fixing the law of Y_t / scale at one time t."""

    t: float
    scale: float
    df: float
    nonc: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.df > 0:
            raise ValueError(f"df must be positive, got {self.df}")
        if not self.nonc >= 0:
            raise ValueError(f"nonc must be nonnegative, got {self.nonc}")

    def mean(self) -> float:
        """E[Y_t] = scale * (df + nonc)."""
        return self.scale * (self.df + self.nonc)

    def to_dict(self) -> dict:
        return {"t": self.t, "scale": self.scale, "df": self.df, "nonc": self.nonc}


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square with df degrees of freedom and noncentrality nonc."""

    df: float
    nonc: float

    def __post_init__(self) -> None:
        if not self.df > 0:
            raise ValueError(f"df must be positive, got {self.df}")
        if not self.nonc >= 0:
            raise ValueError(f"nonc must be nonnegative, got {self.nonc}")


def transition_spec(
    p: CklsParams,
    cir: CirParams,
    t: float,
    delta_rule: str = "derived",
) -> TransitionSpec:
    """Scale, degrees of freedom and noncentrality of the time-t law.

    The time argument is restored in both exponents (the scale must equal
    the accumulated Gaussian variance, which vanishes at t = 0); the
    drift_lin -> 0 degeneracy is handled by the stable limit
    scale = vol^2 t / 4, nonc = 4 y0 / (vol^2 t).
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    regime = classify_regime(p)
    if not regime.girsanov_valid:
        raise RegimeError("transition law requires a change-of-measure-valid regime")
    scale = cir.vol**2 / 4.0 * stable_phi(cir.drift_lin, t)
    nonc = cir.y0 * math.exp(cir.drift_lin * t) / scale
    if delta_rule == "derived":
        df = 4.0 * cir.drift_const / cir.vol**2
    elif delta_rule == "paper":
        df = (cir.vol / p.sigma) ** 2
    else:
        raise ValueError(f"unknown delta_rule {delta_rule!r}")
    return TransitionSpec(t=t, scale=scale, df=df, nonc=nonc)


def noncentral_pdf(d: NoncentralChiSq, x):
    """Density of the noncentral chi-square at x.

    df = 1 is the squared-Gaussian closed form; other df use the Bessel
    form with the exponentially scaled scipy.special.ive, and nonc = 0 the
    central chi-square.  x < 0 gives 0.  At x = 0 the continuous limit is
    returned for df >= 2 (e^(-nonc/2)/2 at df = 2, 0 above); for df < 2 the
    density diverges at 0+ and x = 0 raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if d.df < 2.0 and np.any(arr == 0.0):
        raise DomainError("density diverges at 0+ for df < 2")
    half_df = 0.5 * d.df
    # x <= 0 is overwritten below; NaN propagates
    with np.errstate(divide="ignore", invalid="ignore"):
        if d.nonc == 0.0:
            dens = np.exp(
                (half_df - 1.0) * np.log(arr) - 0.5 * arr - half_df * math.log(2.0)
                - math.lgamma(half_df)
            )
        else:
            s, r = np.sqrt(arr), math.sqrt(d.nonc)
            gap = (arr - d.nonc) / (s + r)  # s - r without cancellation
            if d.df == 1.0:
                dens = (np.exp(-0.5 * gap**2) + np.exp(-0.5 * (s + r) ** 2)) / (
                    2.0 * np.sqrt(2.0 * math.pi * arr)
                )
            else:
                # ive(v, z) = I_v(z) e^(-z) folds e^(sqrt(nonc x)) into the
                # exponent; one exp, so a large power of x / nonc cannot meet
                # an underflowed Gaussian factor as inf * 0.  ive is NaN
                # beyond z of about 2e9, where two terms of its large-z
                # expansion are exact in double precision.
                v, z = half_df - 1.0, r * s
                bessel = np.where(
                    z < 1e9,
                    special.ive(v, z),
                    (1.0 - (4.0 * v * v - 1.0) / (8.0 * z)) / np.sqrt(2.0 * math.pi * z),
                )
                dens = 0.5 * bessel * np.exp(
                    (0.5 * half_df - 0.5) * np.log(arr / d.nonc) - 0.5 * gap**2
                )
    at_zero = 0.5 * math.exp(-0.5 * d.nonc) if d.df == 2.0 else 0.0
    out = np.where(arr < 0.0, 0.0, np.where(arr == 0.0, at_zero, dens))
    return float(out) if out.ndim == 0 else out


def noncentral_cdf(d: NoncentralChiSq, x):
    """Distribution function: Phi(sqrt(x) - sqrt(nonc)) - Phi(-sqrt(x) -
    sqrt(nonc)) at df = 1, scipy.special.chndtr otherwise.  Monotone, 0 for
    x <= 0, 1 at infinity; NaN at a NaN x.  chndtr returns NaN at some
    very large nonc (around 1e11 and up); that raises DomainError rather
    than passing the NaN on."""
    arr = np.maximum(np.asarray(x, dtype=float), 0.0)
    if d.df == 1.0:
        s, r = np.sqrt(arr), math.sqrt(d.nonc)
        out = special.ndtr(s - r) - special.ndtr(-s - r)
    else:
        out = special.chndtr(arr, d.df, d.nonc)
        if np.any(np.isnan(out) & ~np.isnan(arr)):
            raise DomainError(
                f"scipy.special.chndtr returned NaN at df={d.df}, nonc={d.nonc}"
            )
    return float(out) if out.ndim == 0 else out


def noncentral_sample(d: NoncentralChiSq, rng: np.random.Generator, size=None):
    """Draw from the noncentral chi-square.

    df >= 1 uses (Z + sqrt(nonc))^2 plus an independent central
    chi-square(df - 1) (omitted when df = 1); df < 1 uses the Poisson
    mixture N ~ Poisson(nonc/2), then chi-square(df + 2N).
    """
    if d.df >= 1.0:
        z = rng.standard_normal(size)
        out = (z + math.sqrt(d.nonc)) ** 2
        if d.df > 1.0:
            out = out + rng.chisquare(d.df - 1.0, size)
        return out
    n = rng.poisson(0.5 * d.nonc, size)
    return rng.chisquare(d.df + 2.0 * n)


def rate_density(p: CklsParams, tr: Transform, spec: TransitionSpec, x):
    """Density of the rate at time t under the transformed measure:
    g(x) = pdf(f(x)/scale) |f'(x)| / scale via change of variables."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0):
        raise DomainError(f"x must be positive, got {x}")
    d = NoncentralChiSq(df=spec.df, nonc=spec.nonc)
    y = tr.f(x)
    return noncentral_pdf(d, np.asarray(y) / spec.scale) * np.abs(tr.fprime(x)) / spec.scale


def rate_cdf(p: CklsParams, tr: Transform, spec: TransitionSpec, x):
    """Distribution function of the rate, orientation-corrected for the
    decreasing transform when gamma > 1 (P(r <= x) = P(Y >= f(x)))."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(arr.shape, dtype=float)
    pos = arr > 0.0
    if np.any(pos):
        d = NoncentralChiSq(df=spec.df, nonc=spec.nonc)
        inner = noncentral_cdf(d, tr.f(arr[pos]) / spec.scale)
        out[pos] = 1.0 - inner if tr.gamma > 1.0 else inner
    return float(out[0]) if scalar else out
