"""Drift adjustment, path weights and measure-consistency estimators.

The change of measure reweights base-measure paths by

    R_t = exp( sum_k q(r_k) dW_k - 1/2 sum_k q(r_k)^2 dt )

with the drift adjustment q evaluated by the left-point (Ito) rule,
matching the Euler scheme's filtration alignment.  Under the reweighted
measure the rate has drift b x + (gamma sigma^2 / 2) x^(2 gamma - 1), the
drift the closed-form solution solves (engine.auxiliary_drift, "derived"),
so by Ito's formula the level f(r) is the square-root diffusion of
transform.derive_cir, of one degree of freedom, on both branches.  (The
printed kernel (a/sigma x^(-gamma) - gamma sigma/2 x^(gamma-1))
sgn(gamma-1) leads elsewhere: for gamma < 1 to a level with linear drift
-2b(1-gamma), for gamma > 1 to no square-root diffusion.)
Weights are accumulated in log space and exponentiated once: q(r)^2 is
large near small rates, where the a/sigma x^(-gamma) term dominates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .engine import NoiseMatrix, TimeGrid, ckls_diffusion, ckls_drift, euler_blocks
from .errors import DegenerateTransform, DegenerateWeights, InputError
from .numerics import like_argument, positive_points
from .params import CklsParams

__all__ = [
    "WeightedEstimate",
    "WeightedSample",
    "drift_adjustment",
    "weighted_expectation_arrays",
    "simulate_weighted",
]


@dataclass(frozen=True)
class WeightedEstimate:
    estimate: float          # self-normalized: sum(w phi) / sum(w)
    std_error: float
    raw_estimate: float      # unnormalized: mean(w phi)
    raw_std_error: float
    ess: float               # (sum w)^2 / sum w^2
    n_paths: int

    def to_dict(self) -> dict:
        return asdict(self)


def drift_adjustment(p: CklsParams, x):
    """q(x) = 2b/sigma x^(1-gamma) + gamma sigma/2 x^(gamma-1) - a/sigma x^(-gamma).

    The kernel that carries the base drift a - b x to the drift the
    closed-form solution solves (engine.auxiliary_drift(p, "derived")):
    q = (b x + gamma sigma^2/2 x^(2 gamma-1) - (a - b x)) / (sigma x^gamma),
    on both branches.  Evaluated from the single power s = sigma x^(gamma-1),
    the one engine.ckls_diffusion multiplies by x, as
    (2b - a/x) / s + gamma/2 s.
    """
    if p.gamma == 1.0:
        raise DegenerateTransform("drift adjustment requires gamma != 1")
    arr = positive_points(x)
    s = ckls_diffusion(p).power(arr)
    out = _drift_adjustment_into(p, arr, s, np.empty_like(arr), np.empty_like(arr))
    return like_argument(out, x)


def _drift_adjustment_into(
    p: CklsParams, x: np.ndarray, s: np.ndarray, out: np.ndarray, tmp: np.ndarray
):
    """drift_adjustment's arithmetic, operation for operation, from
    s = ckls_diffusion(p).power(x) into out; tmp is scratch of x's shape.
    Unchecked: gamma != 1 and x > 0."""
    np.divide(p.a, x, out=out)
    np.subtract(2.0 * p.b, out, out=out)
    np.divide(out, s, out=out)
    np.multiply(0.5 * p.gamma, s, out=tmp)
    return np.add(out, tmp, out=out)


def _times_exp(x: float, m: float) -> float:
    """x e^m: infinite where that overflows, 0 at x = 0, never NaN for
    finite x and m."""
    if x == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(x * np.exp(m))


def weighted_expectation_arrays(log_weights: np.ndarray, phi: np.ndarray) -> WeightedEstimate:
    """Self-normalized and raw importance-sampling estimates of E phi from
    per-path log weights, with the effective sample size
    (sum w)^2 / sum w^2.  A log weight of -inf is a zero weight; one of
    +inf or NaN raises InputError, as does a NaN phi."""
    log_weights = np.asarray(log_weights, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if log_weights.shape != phi.shape:
        raise InputError(
            f"log weights of shape {log_weights.shape} do not match phi of shape {phi.shape}"
        )
    if log_weights.size == 0:
        raise InputError("empty input")
    if not np.all(log_weights < np.inf):
        raise InputError("log weights must be below +inf and not NaN")
    if np.any(np.isnan(phi)):
        raise InputError("phi must not be NaN")
    shift = float(log_weights.max())
    if shift == -np.inf:
        raise DegenerateWeights("all weights are zero")
    # the self-normalised estimate, its SE and the ESS do not change when
    # every log weight moves by one constant; shifting by the max keeps
    # exp finite (log weights near 800 overflow it)
    w = np.exp(log_weights - shift)
    w_sum = w.sum()
    n = w.size
    est = float(np.sum(w * phi) / w_sum)
    wn = w / w_sum
    se = float(np.sqrt(np.sum(wn * wn * (phi - est) ** 2)))
    raw = w * phi
    raw_est = _times_exp(float(raw.mean()), shift)
    raw_se = _times_exp(float(raw.std(ddof=1) / np.sqrt(n)), shift) if n > 1 else float("nan")
    ess = float(w_sum**2 / np.sum(w * w))
    return WeightedEstimate(
        estimate=est,
        std_error=se,
        raw_estimate=raw_est,
        raw_std_error=raw_se,
        ess=ess,
        n_paths=int(n),
    )


class _Weight:
    """Euler observer: per path, the running sums of q dW and q^2, with q
    from the step's power s; end forms the log weight and dt sum q^2."""

    def __init__(self, p: CklsParams, dt: float, n: int):
        self.p, self.dt = p, dt
        self.q_dw, self.q_sq = np.zeros(n), np.zeros(n)
        self.q, self.tmp = np.empty(n), np.empty(n)

    def step(self, k, r, s, dW) -> None:
        q, tmp = self.q, self.tmp
        _drift_adjustment_into(self.p, r, s, q, tmp)
        np.multiply(q, dW, out=tmp)
        self.q_dw += tmp
        np.multiply(q, q, out=q)
        self.q_sq += q

    def end(self, r) -> dict:
        q_int = np.multiply(self.dt, self.q_sq, out=self.q_sq)
        return {"log_weight": self.q_dw - 0.5 * q_int, "q_integral_sq": q_int}


@dataclass(frozen=True)
class WeightedSample:
    """Fused Euler-plus-weight run: terminal state and log weight per path."""

    terminal_rate: np.ndarray
    log_weight: np.ndarray
    q_integral_sq: np.ndarray
    truncations: int

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weight)


def simulate_weighted(
    p: CklsParams,
    grid: TimeGrid,
    noise: NoiseMatrix,
    workers: int = 1,
) -> WeightedSample:
    """Simulate the base model and accumulate weights in one streaming pass.

    The kernel runs on the calling thread over blocks of
    engine.block_rows(grid.n_steps) paths (BLOCK_SIZE from 64 steps on,
    up to 4 BLOCK_SIZE on shorter grids), stitched by path index, so
    statistics do not depend on the worker count or the block cut.  It
    reads each block in column order, a step's noise
    as one contiguous column; the thread that draws a block's rows also
    transposes them (engine.map_noise_blocks).  With workers >= 2,
    workers - 1 pool threads draw and transpose the next block meanwhile,
    so at most two blocks of noise are resident.  The rates are
    engine.euler_blocks' on grid, which raises InputError unless the
    noise fits it, with the base drift and diffusion, those of euler_ckls
    bit for bit;
    the weight observer derives q from each step's power
    s = sigma r^(gamma-1) with drift_adjustment's operations in per-block
    buffers, and keeps per path the sums of q dW and q^2.  A rate that
    overflows to +inf gives a NaN rate one step later; that NaN is
    returned if it comes from the last step, and raises DomainError at
    the next step otherwise.
    """
    if p.gamma == 1.0:
        raise DegenerateTransform("drift adjustment requires gamma != 1")
    run = euler_blocks(
        ckls_drift(p), ckls_diffusion(p), p.r0, grid, noise,
        [lambda n: _Weight(p, grid.dt, n)], boundary="raise-nan", workers=workers,
    )
    return WeightedSample(
        terminal_rate=run["rate"],
        log_weight=run["log_weight"],
        q_integral_sq=run["q_integral_sq"],
        truncations=int(run["trunc"].sum()),
    )
