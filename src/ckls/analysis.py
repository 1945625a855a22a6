"""Closed-form moments, a-priori moment bounds, the boundary scale
function, and goodness-of-fit statistics for the verification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .engine import (
    NoiseMatrix,
    POSITIVITY_FLOOR,
    TimeGrid,
    ckls_diffusion,
    ckls_drift,
    map_noise_blocks,
    step_columns,
)
from .errors import DomainError, InputError, RegimeError
from .numerics import affine_exp_convolution, stable_phi
from .params import CklsParams, MomentCase, classify_regime

__all__ = [
    "MomentBound",
    "McMomentResult",
    "KsResult",
    "KS_CRITICAL_5PCT",
    "KS_CRITICAL_1PCT",
    "mean_rate",
    "gronwall_bound",
    "mc_moment",
    "scale_function",
    "scale_function_log_magnitude",
    "ks_statistic",
]

# Asymptotic Kolmogorov quantiles: P(sup|F_n - F| > c/sqrt(n)) = alpha.
KS_CRITICAL_5PCT = 1.3581
KS_CRITICAL_1PCT = 1.6276


def mean_rate(p: CklsParams, t: float) -> float:
    """E r_t = a/b + (r0 - a/b) e^(-b t), with the b = 0 limit r0 + a t."""
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
      case II bound = 1 + mean_rate(t)
    """
    if kind not in ("neg_moment", "frac_moment"):
        raise ValueError(f"unknown moment kind {kind!r}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
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


@dataclass(frozen=True)
class McMomentResult:
    terminal_estimate: float
    terminal_std_error: float
    time_integral_estimate: float
    time_integral_std_error: float
    n_paths: int
    truncations: int


def mc_moment(
    p: CklsParams,
    t: float,
    exponent: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    workers: int = 1,
) -> McMomentResult:
    """Euler-path Monte Carlo estimates of E r_t^kappa and of
    E integral_0^t r_s^kappa ds (trapezoid in time), with standard errors."""
    grid = TimeGrid(t, n_steps)
    noise = NoiseMatrix(seed=seed, n_paths=n_paths, grid=grid)
    drift, diffusion = ckls_drift(p), ckls_diffusion(p)
    dt = grid.dt

    def run_block(lo: int, hi: int, dW: np.ndarray) -> dict:
        n = hi - lo
        r = np.full(n, p.r0)
        g_prev = r**exponent
        integral = np.zeros(n)
        trunc = 0
        for col in step_columns(dW):
            r = r + drift(r) * dt + diffusion(r) * col
            hit = r < POSITIVITY_FLOOR
            if hit.any():
                trunc += int(hit.sum())
                r = np.where(hit, POSITIVITY_FLOOR, r)
            g = r**exponent
            integral += 0.5 * dt * (g_prev + g)
            g_prev = g
        return {"terminal": g_prev, "integral": integral, "trunc": trunc}

    blocks = map_noise_blocks(noise, run_block, workers=workers)
    terminal = np.concatenate([b["terminal"] for b in blocks])
    integral = np.concatenate([b["integral"] for b in blocks])
    root_n = math.sqrt(n_paths)
    return McMomentResult(
        terminal_estimate=float(terminal.mean()),
        terminal_std_error=float(terminal.std(ddof=1) / root_n),
        time_integral_estimate=float(integral.mean()),
        time_integral_std_error=float(integral.std(ddof=1) / root_n),
        n_paths=n_paths,
        truncations=sum(b["trunc"] for b in blocks),
    )


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
    """Boundary-classification scale function, by adaptive quadrature:

        p(x) = e^(-kappa) integral_1^x y^(-e) exp(kappa y^(2 (1-gamma))) dy,

    with kappa = b / (sigma^2 (1-gamma)) and inner power e = gamma/sigma as
    printed (variant "paper"), or kappa = -b / (sigma^2 (1-gamma)) and
    e = gamma (variant "derived"): the scale function of the auxiliary
    drift b x + (gamma sigma^2 / 2) x^(2 gamma - 1) with diffusion
    sigma x^gamma, whose density x^(-gamma) exp(kappa (x^(2 (1-gamma)) - 1))
    is exp(-integral_1^x 2 mu / sigma^2).  p(1) = 0 and p is
    strictly increasing; divergence at the boundaries is exhibited by
    evaluation, never asserted.
    """
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    kappa, e = _scale_exponents(p, variant)
    two_1mg = 2.0 * (1.0 - p.gamma)

    def integrand(y: float) -> float:
        return y ** (-e) * math.exp(kappa * y**two_1mg)

    if x == 1.0:
        return 0.0
    # geometric panels keep the power-law integrand tame per panel; a
    # single adaptive pass silently mis-converges over many decades
    lo, hi, sign = (x, 1.0, -1.0) if x < 1.0 else (1.0, x, 1.0)
    n_panels = max(1, math.ceil(4.0 * math.log10(hi / lo)))
    edges = np.geomspace(lo, hi, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _err = integrate.quad(integrand, a, b, limit=200)
        total += val
    return sign * math.exp(-kappa) * total


def scale_function_log_magnitude(
    p: CklsParams, x: float, variant: str = "paper", panels: int = 400
) -> tuple[float, float]:
    """(sign, log|p(x)|), overflow-safe for extreme x.

    The integrand is summed in log space over geometric panels with
    Gauss-Legendre nodes, so divergence trends can be reported at points
    where exp(kappa x^(2(1-gamma))) overflows a float.
    """
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    kappa, e = _scale_exponents(p, variant)
    two_1mg = 2.0 * (1.0 - p.gamma)
    if x == 1.0:
        return 0.0, -math.inf
    lo, hi, sign = (x, 1.0, -1.0) if x < 1.0 else (1.0, x, 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.geomspace(lo, hi, panels + 1)
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
    critical_5pct: float
    critical_1pct: float
    ess: float

    @property
    def below_1pct(self) -> bool:
        return self.statistic < self.critical_1pct


def ks_statistic(
    samples: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray | None = None,
) -> KsResult:
    """One-sample Kolmogorov-Smirnov distance sup |F_hat - F|.

    With weights, the empirical CDF uses normalized cumulative weights and
    the critical values use the effective sample size in place of n
    (asymptotic c(alpha)/sqrt(ESS))."""
    samples = np.asarray(samples, dtype=float)
    if np.any(np.diff(samples) < 0):
        raise InputError("samples must be sorted ascending")
    n = samples.size
    if weights is None:
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ess = float(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape:
            raise InputError("weights must match samples in shape")
        if not np.all(weights > 0):
            raise InputError("weights must be positive")
        cum = np.cumsum(weights)
        total = cum[-1]
        upper = cum / total
        lower = np.concatenate([[0.0], upper[:-1]])
        ess = float(total**2 / np.sum(weights**2))
    f_vals = np.asarray(cdf(samples), dtype=float)
    d_plus = float(np.max(upper - f_vals))
    d_minus = float(np.max(f_vals - lower))
    d = max(d_plus, d_minus)
    return KsResult(
        statistic=d,
        critical_5pct=KS_CRITICAL_5PCT / math.sqrt(ess),
        critical_1pct=KS_CRITICAL_1PCT / math.sqrt(ess),
        ess=ess,
    )
