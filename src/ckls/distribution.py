"""Non-central chi-square machinery and the exact time-t transition laws.

Under the transformed measure the level Y_t = f(r_t) at a fixed time t
satisfies Y_t / L ~ noncentral-chi-square(df, nonc) where

    L    = (vol^2 / 4) * integral_0^t e^(drift_lin * s) ds   (the
           variance of the Gaussian sqrt(Y_t)),
    nonc = Y_0 e^(drift_lin * t) / L                          (squared
           Gaussian mean over variance),

and the degrees of freedom are 1.0 by rule, sqrt(Y_t) being Gaussian
("derived" rule; not 4 drift_const / vol^2, which can round off 1).  The
alternative df = C^2 ("paper" rule) is kept as a selectable variant so the
goodness-of-fit arbitration can document the discrepancy; they meet at C = 1.

At df = 1 (the default) Y_t / L = (sqrt(nonc) + Z)^2 with Z standard
normal, so the law has the closed form

    cdf(x) = Phi(sqrt(x) - sqrt(nonc)) - Phi(-sqrt(x) - sqrt(nonc)),
    pdf(x) = (phi(sqrt(x) - sqrt(nonc)) + phi(sqrt(x) + sqrt(nonc))) / (2 sqrt(x)).

Other df go through scipy.special: the distribution function is chndtr
and the density the Bessel form

    pdf(x) = 1/2 e^(-(sqrt(x) - sqrt(nonc))^2 / 2) (x / nonc)^(df/4 - 1/2)
             ive(df/2 - 1, sqrt(nonc x)),

with the exponentially scaled Bessel function, so nothing overflows at
large nonc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import TINY, _echo, like_argument, not_normal, require_real, stable_phi
from .params import CklsParams, require_transformable
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
class NoncentralChiSq:
    """Noncentral chi-square with df > 0 degrees of freedom and noncentrality nonc >= 0."""

    df: float
    nonc: float

    def __post_init__(self) -> None:
        if not require_real("df", self.df) > 0:
            raise ValueError(f"df must be positive, got {_echo(self.df)}")
        if not require_real("nonc", self.nonc) >= 0:
            raise ValueError(f"nonc must be nonnegative, got {_echo(self.nonc)}")


@dataclass(frozen=True, kw_only=True)
class TransitionSpec(NoncentralChiSq):
    """The law of Y_t / scale at one time t: a NoncentralChiSq."""

    t: float
    scale: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not require_real("scale", self.scale) > 0:
            raise ValueError(f"scale must be positive, got {_echo(self.scale)}")

    def mean(self) -> float:
        """E[Y_t] = scale * (df + nonc)."""
        return self.scale * (self.df + self.nonc)


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
    scale = vol^2 t / 4, nonc = 4 y0 / (vol^2 t).  The law is taken at a
    finite t > 0 (the t -> inf limit, where it exists, is the stationary
    law, not a transition law).  DomainError, naming t, where the scale or
    the noncentrality is past the float range.
    """
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    require_transformable(p)
    try:
        scale = cir.vol**2 / 4.0 * stable_phi(cir.drift_lin, t)
        nonc = cir.y0 * math.exp(cir.drift_lin * t) / scale
    except OverflowError:  # e^(drift_lin t) past the float range
        scale = nonc = math.inf
    if not (scale < math.inf and nonc < math.inf):
        raise DomainError(f"the law at t = {t} has a scale or nonc past the float range")
    if delta_rule == "derived":
        df = 1.0
    elif delta_rule == "paper":
        df = (cir.vol / p.sigma) ** 2
    else:
        raise ValueError(f"unknown delta_rule {delta_rule!r}")
    return TransitionSpec(df=df, nonc=nonc, t=t, scale=scale)


def noncentral_pdf(d: NoncentralChiSq, x):
    """Density of the noncentral chi-square at x.

    df = 1 is the squared-Gaussian closed form; other df use the Bessel
    form with the exponentially scaled scipy.special.ive, and nonc = 0 the
    central chi-square.  x < 0 and x = +inf give 0, a NaN x NaN.  At x = 0
    the continuous limit is returned for df >= 2 (e^(-nonc/2)/2 at df = 2,
    0 above); for df < 2 the density diverges at 0+ and x = 0 raises
    DomainError.
    """
    from scipy import special  # deferred: scipy.special takes tenths of a second to import

    arr = np.asarray(x, dtype=float)
    if d.df < 2.0 and np.any(arr == 0.0):
        raise DomainError("density diverges at 0+ for df < 2")
    half_df = 0.5 * d.df
    # x <= 0 and x = +inf are overwritten below; NaN propagates
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
    out = np.where((arr < 0.0) | (arr == math.inf), 0.0, np.where(arr == 0.0, at_zero, dens))
    return like_argument(out, x)


def noncentral_cdf(d: NoncentralChiSq, x):
    """Distribution function: Phi(sqrt(x) - sqrt(nonc)) - Phi(-sqrt(x) -
    sqrt(nonc)) at df = 1, scipy.special.chndtr otherwise.  Monotone, 0 for
    x <= 0, 1 at infinity; NaN at a NaN x.  chndtr returns NaN at some
    very large nonc (around 1e11 and up); that raises DomainError rather
    than passing the NaN on."""
    from scipy import special  # deferred, as in noncentral_pdf

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
    return like_argument(out, x)


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
    g(x) = pdf(f(x)/scale) |f'(x)| / scale via change of variables, 0
    at x = +inf.  On the df = 1 law, at a finite x where f(x)/scale or
    f'(x) is not a normal float or the product is 0, it is formed in logs
    (_log_rate_density_df1), so the far right tail for gamma > 1, about
    x^(-gamma), is 0 only where that density underflows.  Other df (the
    Bessel form) take the float product throughout: 0 where a factor or
    the product underflows."""
    y = np.asarray(tr.f(x)) / spec.scale
    fprime = np.abs(tr.fprime(x))
    # the df < 2 pdf raises at 0; those points are overwritten below
    tail = (y == 0.0) & (tr.gamma > 1.0)
    dens = noncentral_pdf(spec, np.where(tail, 1.0, y))
    with np.errstate(over="ignore", invalid="ignore"):
        out = dens * fprime / spec.scale
    out = np.where(tail | (dens == 0.0), 0.0, out)
    # five reductions decide whether any point needs the log form
    if spec.df == 1.0 and out.size and not (
        min(y.min(), fprime.min(), out.min()) >= TINY and max(y.max(), fprime.max()) < math.inf
    ):
        arr = np.asarray(x, dtype=float)
        far = (not_normal(y) | not_normal(fprime) | (out == 0.0)) & (arr < math.inf)
        out[far] = np.exp(_log_rate_density_df1(tr, spec, arr[far]))
    return like_argument(out, x)


def _log_rate_density_df1(tr: Transform, spec: TransitionSpec, x):
    """log of rate_density at x on the df = 1 law, from the logs of f(x)
    and |f'(x)|: with s = sqrt(f(x)/scale) and r = sqrt(nonc), log of
    (phi(s - r) + phi(s + r)) |f'(x)| / (s scale)."""
    log_scale = math.log(spec.scale)
    log_y = tr.log_abs(x) - log_scale
    with np.errstate(over="ignore"):  # an infinite s gives a log density of -inf
        s, r = np.exp(0.5 * log_y), math.sqrt(spec.nonc)
    log_pdf = np.logaddexp(-0.5 * (s - r) ** 2, -0.5 * (s + r) ** 2) - 0.5 * math.log(8.0 * math.pi)
    return log_pdf - 0.5 * log_y + tr.log_abs(x, 1) - log_scale


def rate_cdf(p: CklsParams, tr: Transform, spec: TransitionSpec, x):
    """Distribution function of the rate, orientation-corrected for the
    decreasing transform when gamma > 1 (P(r <= x) = P(Y >= f(x))).  0 for
    x <= 0, NaN at a NaN x."""
    arr = np.asarray(x, dtype=float)
    out = np.where(np.isnan(arr), np.nan, 0.0)
    pos = arr > 0.0
    if np.any(pos):
        inner = noncentral_cdf(spec, tr.f(arr[pos]) / spec.scale)
        out[pos] = 1.0 - inner if tr.gamma > 1.0 else inner
    return like_argument(out, x)
