"""Drift adjustment, path weights and measure-consistency estimators.

The change of measure reweights base-measure paths by

    R_t = exp( sum_k q(r_k) dW_k - 1/2 sum_k q(r_k)^2 dt )

with the drift adjustment q evaluated by the left-point (Ito) rule,
matching the Euler scheme's filtration alignment.  Under the reweighted
measure the rate has drift b x + (gamma sigma^2 / 2) x^(2 gamma - 1), the
drift the closed-form solution solves, so by Ito's formula the level
f(r) is the square-root diffusion of transform.derive_cir on both
branches.  (The printed kernel (a/sigma x^(-gamma) - gamma sigma/2
x^(gamma-1)) sgn(gamma-1) leads elsewhere: for gamma < 1 to a level with
linear drift -2b(1-gamma), for gamma > 1 to no square-root diffusion.)
Weights are accumulated in log space and exponentiated once: q(r)^2 is
large near small rates, where the a/sigma x^(-gamma) term dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import (
    NoiseMatrix,
    Path,
    TimeGrid,
    map_noise_blocks,
    step_columns,
    POSITIVITY_FLOOR,
)
from .errors import DegenerateTransform, DegenerateWeights, DomainError, InputError
from .params import CklsParams

__all__ = [
    "WeightedPath",
    "WeightedEstimate",
    "WeightedSample",
    "NovikovEstimate",
    "drift_adjustment",
    "accumulate_weight",
    "weighted_expectation",
    "weighted_expectation_arrays",
    "novikov_diagnostic",
    "simulate_weighted",
]


@dataclass(frozen=True)
class WeightedPath:
    """A base-measure path with its accumulated log weight at t_end."""

    path: Path
    log_weight: float
    q_integral_sq: float


@dataclass(frozen=True)
class WeightedEstimate:
    estimate: float          # self-normalized: sum(w phi) / sum(w)
    std_error: float
    raw_estimate: float      # unnormalized: mean(w phi)
    raw_std_error: float
    ess: float               # (sum w)^2 / sum w^2
    n_paths: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "raw_estimate": self.raw_estimate,
            "raw_std_error": self.raw_std_error,
            "ess": self.ess,
            "n_paths": self.n_paths,
        }


@dataclass(frozen=True)
class NovikovEstimate:
    estimate: float
    std_error: float


def weighted_report(est: "WeightedEstimate", seed: int, params: CklsParams) -> dict:
    """Machine-comparable record of a weighted estimate for CI diffing."""
    return {
        "estimate": est.estimate,
        "std_error": est.std_error,
        "ess": est.ess,
        "n_paths": est.n_paths,
        "seed": int(seed),
        "params": params.to_dict(),
    }


def drift_adjustment(p: CklsParams, x):
    """q(x) = 2b/sigma x^(1-gamma) + gamma sigma/2 x^(gamma-1) - a/sigma x^(-gamma).

    The kernel that carries the base drift a - b x to the drift the
    closed-form solution solves (engine.explicit_solution_drift):
    q = (b x + gamma sigma^2/2 x^(2 gamma-1) - (a - b x)) / (sigma x^gamma),
    on both branches.  Evaluated from the single power s = sigma x^(gamma-1),
    the one engine.ckls_diffusion multiplies by x, as
    (2b - a/x) / s + gamma/2 s.
    """
    if p.gamma == 1.0:
        raise DegenerateTransform("drift adjustment requires gamma != 1")
    arr = np.array(x, dtype=float, ndmin=1)
    if not np.all(arr > 0):
        raise DomainError(f"x must be positive, got {x}")
    s = _sigma_power(p, arr)
    out = _drift_adjustment_into(p, arr, s, np.empty_like(arr), np.empty_like(arr))
    return float(out[0]) if np.ndim(x) == 0 else out


def _sigma_power(p: CklsParams, x: np.ndarray) -> np.ndarray:
    """s = sigma x^(gamma-1), a new array, as engine.ckls_diffusion forms it."""
    # `**`, not np.power: its ** 0.5 fast path is the correctly rounded sqrt
    s = x ** (p.gamma - 1.0)
    return np.multiply(p.sigma, s, out=s)


def _drift_adjustment_into(
    p: CklsParams, x: np.ndarray, s: np.ndarray, out: np.ndarray, tmp: np.ndarray
):
    """drift_adjustment's arithmetic, operation for operation, from
    s = _sigma_power(p, x) into out; tmp is scratch of x's shape.
    Unchecked: gamma != 1 and x > 0."""
    np.divide(p.a, x, out=out)
    np.subtract(2.0 * p.b, out, out=out)
    np.divide(out, s, out=out)
    np.multiply(0.5 * p.gamma, s, out=tmp)
    return np.add(out, tmp, out=out)


def accumulate_weight(p: CklsParams, path: Path, noise_row: np.ndarray) -> WeightedPath:
    """Left-point accumulation of the log weight along one path.

    log R = sum q(r_k) dW_k - 1/2 sum q(r_k)^2 dt over steps k, with r_k
    the state *before* each step; the path must have been simulated with
    exactly this noise row.
    """
    dW = np.asarray(noise_row, dtype=float)
    if dW.shape != (len(path.values) - 1,):
        raise InputError(
            f"noise row length {dW.shape} does not match path with "
            f"{len(path.values)} values"
        )
    dt = path.grid.dt
    q = drift_adjustment(p, path.values[:-1])
    q_int = float(np.sum(q * q) * dt)
    log_w = float(np.sum(q * dW) - 0.5 * q_int)
    return WeightedPath(path=path, log_weight=log_w, q_integral_sq=q_int)


def _times_exp(x: float, m: float) -> float:
    """x e^m: infinite where that overflows, 0 at x = 0, never NaN for
    finite x and m."""
    if x == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(x * np.exp(m))


def weighted_expectation_arrays(log_weights: np.ndarray, phi: np.ndarray) -> WeightedEstimate:
    log_weights = np.asarray(log_weights, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if log_weights.size == 0:
        raise InputError("empty input")
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


def weighted_expectation(
    wpaths: list[WeightedPath], functional: Callable[[Path], float]
) -> WeightedEstimate:
    """Self-normalized and raw importance-sampling estimates of a path
    functional, with the effective sample size (sum w)^2 / sum w^2."""
    if not wpaths:
        raise InputError("empty input")
    logw = np.array([wp.log_weight for wp in wpaths])
    phi = np.array([float(functional(wp.path)) for wp in wpaths])
    return weighted_expectation_arrays(logw, phi)


def novikov_diagnostic(p: CklsParams, wpaths: list[WeightedPath]) -> NovikovEstimate:
    """Monte Carlo estimate of E integral_0^t q(r_s)^2 ds with its standard
    error; finiteness/stability across dt refinement is the usable signal."""
    q_int = np.array([wp.q_integral_sq for wp in wpaths])
    n = q_int.size
    se = float(q_int.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return NovikovEstimate(estimate=float(q_int.mean()), std_error=se)


@dataclass(frozen=True)
class WeightedSample:
    """Fused Euler-plus-weight run: terminal state and log weight per path."""

    terminal_rate: np.ndarray
    log_weight: np.ndarray
    q_integral_sq: np.ndarray
    truncations: int
    seed: int
    n_paths: int

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weight)


def simulate_weighted(
    p: CklsParams,
    grid: TimeGrid,
    noise: NoiseMatrix,
    workers: int = 1,
    block_size: int = 8192,
) -> WeightedSample:
    """Simulate the base model and accumulate weights in one streaming pass.

    Weight accumulation is per-path and parallelizes with the simulation;
    blocks are stitched by path index, so statistics do not depend on the
    worker count.  A thread block reads its noise through
    engine.step_columns and does each step in buffers allocated once per
    block.  A step takes one power, s = sigma r^(gamma-1): q comes from it
    with drift_adjustment's operations and the diffusion is (s r) dW with
    engine.ckls_diffusion's, so the rates are those of euler_ckls, bit for
    bit.  Each path keeps the running sums of q dW and q^2; the log weight
    sum q dW - 1/2 dt sum q^2 and dt sum q^2 are formed once per block.
    A rate that overflows to +inf gives a NaN rate one step later; that
    NaN is returned if it comes from the last step, and raises DomainError
    at the next step otherwise.
    """
    if p.gamma == 1.0:
        raise DegenerateTransform("drift adjustment requires gamma != 1")
    dt = grid.dt

    def run_block(lo: int, hi: int, dW: np.ndarray) -> dict:
        n = hi - lo
        r = np.full(n, p.r0)
        q_dw, q_sq = np.zeros(n), np.zeros(n)
        q, tmp = np.empty(n), np.empty(n)
        trunc = 0
        # the least rate after the last step, before its clamp: NaN if any
        # rate is NaN, and the clamp never removes a NaN
        low = p.r0
        for k, col in enumerate(step_columns(dW)):
            if low != low:
                raise DomainError(f"NaN rate before step {k}")
            s = _sigma_power(p, r)
            _drift_adjustment_into(p, r, s, q, tmp)
            np.multiply(q, col, out=tmp)
            q_dw += tmp
            np.multiply(q, q, out=q)
            q_sq += q
            # r + (a - b r) dt + (s r) col
            np.multiply(p.b, r, out=tmp)
            np.subtract(p.a, tmp, out=tmp)
            tmp *= dt
            s *= r
            s *= col
            r += tmp
            r += s
            low = r.min()
            # also true on NaN: the clamp pass then counts the other rates
            if not low >= POSITIVITY_FLOOR:
                hit = r < POSITIVITY_FLOOR
                trunc += int(np.count_nonzero(hit))
                r[hit] = POSITIVITY_FLOOR
        q_int = np.multiply(dt, q_sq, out=q_sq)
        lw = q_dw - 0.5 * q_int
        return {"rate": r, "log_weight": lw, "q_integral_sq": q_int, "trunc": trunc}

    blocks = map_noise_blocks(noise, run_block, block_size=block_size, workers=workers)
    return WeightedSample(
        terminal_rate=np.concatenate([b["rate"] for b in blocks]),
        log_weight=np.concatenate([b["log_weight"] for b in blocks]),
        q_integral_sq=np.concatenate([b["q_integral_sq"] for b in blocks]),
        truncations=sum(b["trunc"] for b in blocks),
        seed=noise.seed,
        n_paths=noise.n_paths,
    )
