"""Closed-form moments, a-priori moment bounds, the boundary scale
function, and goodness-of-fit statistics for the verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, RegimeError
from .numerics import affine_exp_convolution, positive_points, require_horizon, stable_phi
from .params import CklsParams, MomentCase, classify_regime

__all__ = [
    "MomentBound",
    "KsResult",
    "KS_CRITICAL_1PCT",
    "mean_rate",
    "gronwall_bound",
    "scale_function",
    "scale_function_log_magnitude",
    "ks_statistic",
]

# Asymptotic Kolmogorov quantile: P(sup|F_n - F| > c/sqrt(n)) = 0.01.
KS_CRITICAL_1PCT = 1.6276
_SCALE_PANELS = 400  # geometric quadrature panels between x and 1
# ks_statistic's bracketed search: the spacing of the first evaluated
# samples, the cuts of a surviving run per round, and the decrease of the
# CDF between sorted samples (ulp-level non-monotonicity) it tolerates
_KS_STRIDE = 64
_KS_SPLIT = 8
_KS_SLACK = 1e-9


def mean_rate(p: CklsParams, t: float) -> float:
    """a/b + (r0 - a/b) e^(-b t), with the b = 0 limit r0 + a t: the
    solution of m' = a - b m.

    For 1/2 < gamma < 1 this is E r_t.  For gamma > 1 the integral of
    sigma r^gamma dW is a strict local martingale, bounded below on [0, t],
    hence a supermartingale, so the value is an upper bound on E r_t that
    is tight only as t -> 0 (on a = 1, b = 0.2, sigma = 0.5, gamma = 1.5,
    r0 = 1 the gap is below Monte Carlo resolution at t <= 1 and about 0.3
    at t = 3).
    """
    require_horizon(t)
    return p.r0 * math.exp(-p.b * t) + p.a * stable_phi(-p.b, t)


@dataclass(frozen=True)
class MomentBound:
    """A-priori upper bound for E r_t^(-2 gamma) or E r_t^(2 (gamma-1))."""

    kind: str  # "neg_moment" | "frac_moment"
    t: float
    bound: float
    case: MomentCase


def gronwall_bound(p: CklsParams, t: float, kind: str) -> MomentBound:
    """Closed-form evaluation of the integral-inequality bounds.

    neg_moment (E r^(-2 gamma)), with Psi(t) = r0^(-2 gamma)
    + gamma (2 gamma + 1) sigma^2 t:
      case I  bound = Psi(t) + c I(t), c = 2 b gamma
      case II bound = Psi(t) + c I(t), c = gamma (2 b + (2 gamma + 1) sigma^2)
    where I(t) = integral_0^t Psi(s) e^(c (t-s)) ds is closed-form since
    Psi is affine.

    frac_moment (E r^(2 (gamma-1))):
      case I  same shape with Psi~(t) = r0^(2 (gamma-1))
              + (gamma-1)(2 gamma-3) sigma^2 t and c = 2 b (1 - gamma)
      case II bound = 1 + mean_rate(t), from x^(2 (gamma-1)) <= 1 + x;
              an upper bound still, since mean_rate bounds E r_t from
              above for gamma > 1
    """
    if kind not in ("neg_moment", "frac_moment"):
        raise ValueError(f"unknown moment kind {kind!r}")
    require_horizon(t)
    regime = classify_regime(p)
    if regime.moment_case is None:
        raise RegimeError(
            "moment bounds need 1 < gamma <= 3/2, or 1/2 <= gamma < 1 with "
            f"(2 gamma + 1) sigma^2 <= 2 a; got gamma={p.gamma}, "
            f"(2g+1)sigma^2={(2 * p.gamma + 1) * p.sigma ** 2:g} vs 2a={2 * p.a:g}"
        )
    g, s = p.gamma, p.sigma
    case = regime.moment_case
    if kind == "neg_moment":
        alpha = p.r0 ** (-2.0 * g)
        beta = g * (2.0 * g + 1.0) * s**2
        c = 2.0 * p.b * g if case is MomentCase.CASE_I else g * (2.0 * p.b + (2.0 * g + 1.0) * s**2)
    else:
        if case is MomentCase.CASE_II:
            return MomentBound(kind, t, 1.0 + mean_rate(p, t), case)
        alpha = p.r0 ** (2.0 * (g - 1.0))
        beta = (g - 1.0) * (2.0 * g - 3.0) * s**2
        c = 2.0 * p.b * (1.0 - g)
    psi_t = alpha + beta * t
    bound = psi_t + c * affine_exp_convolution(alpha, beta, c, t)
    return MomentBound(kind, t, bound, case)


def _scale_exponents(p: CklsParams, variant: str) -> tuple[float, float]:
    if variant not in ("paper", "derived"):
        raise ValueError(f"unknown scale variant {variant!r}")
    if not 0.5 <= p.gamma < 1.0:
        raise RegimeError(f"scale function requires gamma in [1/2, 1), got {p.gamma}")
    kappa = p.b / (p.sigma**2 * (1.0 - p.gamma))
    if variant == "paper":
        return kappa, p.gamma / p.sigma
    return -kappa, p.gamma


def scale_function(p: CklsParams, x: float, variant: str = "paper") -> float:
    """Boundary-classification scale function, the exponential of
    scale_function_log_magnitude:

        p(x) = e^(-kappa) integral_1^x y^(-e) exp(kappa y^(2 (1-gamma))) dy,

    with kappa = b / (sigma^2 (1-gamma)) and inner power e = gamma/sigma as
    printed (variant "paper"), or kappa = -b / (sigma^2 (1-gamma)) and
    e = gamma (variant "derived"): the scale function of the auxiliary
    drift b x + (gamma sigma^2 / 2) x^(2 gamma - 1) with diffusion
    sigma x^gamma, whose density x^(-gamma) exp(kappa (x^(2 (1-gamma)) - 1))
    is exp(-integral_1^x 2 mu / sigma^2).  p(1) = 0 and p is
    strictly increasing; divergence at the boundaries is exhibited by
    evaluation, never asserted.  OverflowError only where |p| itself
    leaves the float range.
    """
    sign, log_magnitude = scale_function_log_magnitude(p, x, variant)
    return sign * math.exp(log_magnitude)


def scale_function_log_magnitude(
    p: CklsParams, x: float, variant: str = "paper"
) -> tuple[float, float]:
    """(sign, log|p(x)|), overflow-safe for extreme x; (0.0, -inf) at x = 1.

    The integrand is summed in log space over geometric panels with
    Gauss-Legendre nodes, so divergence trends can be reported at points
    where exp(kappa x^(2(1-gamma))) overflows a float.
    """
    positive_points(x)
    kappa, e = _scale_exponents(p, variant)
    two_1mg = 2.0 * (1.0 - p.gamma)
    if x == 1.0:
        return 0.0, -math.inf
    lo, hi, sign = (x, 1.0, -1.0) if x < 1.0 else (1.0, x, 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.geomspace(lo, hi, _SCALE_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = mid[:, None] + half[:, None] * nodes[None, :]
    log_terms = -e * np.log(y) + kappa * y**two_1mg + np.log(half[:, None] * weights[None, :])
    m = log_terms.max()
    log_integral = m + math.log(np.exp(log_terms - m).sum())
    return sign, -kappa + log_integral


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical_1pct: float
    ess: float
    cdf_points: int  # samples at which cdf was evaluated


def _cdf_at(cdf: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise InputError(f"cdf must return one value per point: shape {f.shape} for {x.shape}")
    if np.isnan(f).any():
        raise InputError("cdf returned NaN")
    return f


def ks_statistic(
    samples: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray | None = None,
) -> KsResult:
    """One-sample Kolmogorov-Smirnov distance sup |F_hat - F|.

    With weights, finite and positive, the empirical CDF uses normalized
    cumulative weights and the 1% critical value uses the effective
    sample size in place of n (asymptotic c(alpha)/sqrt(ESS)).

    cdf must be elementwise and nondecreasing.  It is evaluated only
    where the supremum can be: first on every _KS_STRIDE-th sample and the
    last, then in rounds of one cdf call each.  The empirical CDF rises
    from lower_i to upper_i at sample i; between evaluated samples a < b,
    F and both steps are nondecreasing, so each unevaluated i has
    upper_i - F_i <= upper_(b-1) - F_a and F_i - lower_i <= F_b - lower_(a+1).
    A run whose bound is below the largest distance so far, less
    _KS_SLACK, is dropped; every other run is cut _KS_SPLIT ways for the
    next round.  The result is the full-evaluation statistic bit for bit.
    cdf_points counts the samples evaluated."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise InputError(f"samples must be 1-D, got shape {samples.shape}")
    n = samples.size
    if n == 0:
        raise InputError("empty input")
    # one comparison per neighbour pair: False at a decrease and next to a
    # NaN (a lone sample is compared with itself)
    if not np.all(samples[1:] >= samples[:-1] if n > 1 else samples == samples):
        raise InputError("samples must be sorted ascending, without NaN")
    # lower_i = frac[i], upper_i = frac[i + 1]
    if weights is None:
        frac = np.arange(n + 1) / n
        ess = float(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape:
            raise InputError("weights must match samples in shape")
        # the least weight is NaN if any is
        top = float(weights.max())
        if not (weights.min() > 0 and top < math.inf):
            raise InputError("weights must be finite and positive")
        # scaled by a power of two, exactly, to a greatest weight in
        # [1/2, 1): the sums below neither overflow nor underflow, and
        # w 2^k gives the same doubles for every k
        weights = np.ldexp(weights, -math.frexp(top)[1])
        steps = np.concatenate([[0.0], np.cumsum(weights)])
        frac = steps / steps[-1]
        ess = float(steps[-1] ** 2 / np.sum(weights**2))
    f = np.empty(n)
    known = np.zeros(n, dtype=bool)
    new = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    d = -math.inf
    while new.size:
        f_new = f[new] = _cdf_at(cdf, samples[new])
        known[new] = True
        d = max(d, float(np.max(frac[new + 1] - f_new)), float(np.max(f_new - frac[new])))
        at = np.flatnonzero(known)
        f_at, a, b = f[at], at[:-1], at[1:]
        width = b - a
        bound = np.maximum(frac[b] - f_at[:-1], f_at[1:] - frac[a + 1])
        open_run = (width > 1) & (bound >= d - _KS_SLACK)
        # cut points of the open runs, ascending, with repeats in runs
        # narrower than _KS_SPLIT and the known left ends among them
        a, width = a[open_run, None], width[open_run, None]
        cuts = (a + width * np.arange(1, _KS_SPLIT) // _KS_SPLIT).ravel()
        fresh = ~known[cuts]
        fresh[1:] &= cuts[1:] != cuts[:-1]
        new = cuts[fresh]
    if np.any(f_at[1:] - f_at[:-1] < -_KS_SLACK):
        raise InputError("cdf must be nondecreasing along the sorted samples")
    return KsResult(
        statistic=d,
        critical_1pct=KS_CRITICAL_1PCT / math.sqrt(ess),
        ess=ess,
        cdf_points=int(at.size),
    )
