"""Path simulation: discretized schemes under the base measure and exact
draws under the transformed measure.

Everything is reproducible: the Gaussian increments of path i depend on
(seed, i) and the noise-stream rule alone, so changing the path count
never reshuffles earlier paths, and results are bit-identical across runs
and across worker counts (reductions are stitched in path order).

The noise-stream rule (NOISE_RULE, version NOISE_STREAM) cuts the rows
into stream blocks of NOISE_BLOCK rows; block k is one standard_normal
draw, filled row-major, of the generator keyed by
SeedSequence(seed, spawn_key=(k,)), so one generator serves a thousand
rows and its draw runs without the GIL.

Every Euler run is euler_blocks on a TimeGrid, which checks once that
the noise fits the grid, over thread blocks of block_rows(n_steps)
paths: BLOCK_SIZE from 64 steps on, and below that up to 4 BLOCK_SIZE
whole stream blocks while a block's noise stays within 2^18 normals
(2 MB), so a short grid makes fewer, longer numpy calls.  The
kernel runs on the calling thread, a block at a time, and reads each
block in column order, a step's noise as one contiguous column.  The
thread that draws a block's rows, or slices them from increment rows
given as an array, also transposes them into that order
(map_noise_blocks): with workers >= 2 a pool of the other threads draws
and transposes the next block while the kernel runs, so at most two
blocks of noise are resident.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import transition_spec
from .errors import DegenerateTransform, DomainError, InputError, SingularSample
from .numerics import _echo, like_argument, not_normal, require_horizon, stable_phi
from .params import CklsParams, require_transformable
from .transform import CirParams

__all__ = [
    "BLOCK_SIZE",
    "BOUNDARY_RULES",
    "NOISE_BLOCK",
    "NOISE_RULE",
    "NOISE_STREAM",
    "POSITIVITY_FLOOR",
    "TimeGrid",
    "NoiseMatrix",
    "ckls_drift",
    "ckls_diffusion",
    "auxiliary_drift",
    "euler_blocks",
    "euler_values",
    "euler_ckls",
    "euler_auxiliary",
    "euler_under_q",
    "exact_sqrt_level",
    "explicit_rate",
    "explicit_rate_on_grid",
    "sample_cir_exact",
    "block_rows",
    "map_noise_blocks",
    "Snapshots",
]

# Euler paths are clamped here rather than reflected: truncation stays
# visible in the reported counts instead of being hidden by the scheme.
POSITIVITY_FLOOR = 1e-12

# What euler_blocks does with a rate that is not >= the floor; "none"
# skips the floor test.
BOUNDARY_RULES = ("clamp", "raise-nan", "run-off", "none")

# Rows per stream block.  Part of the rule: changing it changes every
# row past the first block, so it is not a setting.
NOISE_BLOCK = 1024

# The rule that turns (seed, path index) into a noise row, and its version;
# NoiseMatrix.rule echoes it into every output.
NOISE_RULE = (
    f"v2: per-block numpy Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))) "
    f"for rows [{NOISE_BLOCK}k, {NOISE_BLOCK}(k+1)): ziggurat standard_normal, row-major"
)
NOISE_STREAM = 2

# Rows per thread block of map_noise_blocks from 64 steps on: four whole
# stream blocks, 16 MB of noise at 512 steps.  Shorter grids take a
# multiple of it (block_rows).
BLOCK_SIZE = 4096


def block_rows(n_steps: int) -> int:
    """Rows per thread block on a grid of n_steps: BLOCK_SIZE from 64
    steps on; below, up to 4 BLOCK_SIZE (whole stream blocks) while a
    block's noise stays within 2^18 normals, 2 MB.  16384 rows at 16
    steps and fewer, 8192 at 32.  A step's ufunc calls cost about 10 us
    each block whatever its rows, a quarter of a 4096-row block's step at
    16 steps; wider blocks gained nothing more and raise peak memory."""
    return BLOCK_SIZE * min(4, max(1, 2**18 // (BLOCK_SIZE * n_steps)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_end with dt = t_end / n_steps."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if isinstance(self.t_end, (bool, np.bool_)) or not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        _require_integer("n_steps", self.n_steps)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


def _row_index(value) -> int:
    """operator.index, which also takes a bool, refusing one."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"row index must be an integer, got {value!r}")
    return operator.index(value)


def _require_integer(name: str, value, low: int = 1) -> None:
    """The count rule: an integer >= low, never a bool or a float."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {_echo(value)}")


@dataclass(frozen=True)
class NoiseMatrix:
    """Per-path Gaussian increments with variance dt per step.

    Row i is standard normals scaled by sqrt(dt), drawn under the
    noise-stream rule NOISE_RULE; rows are realized lazily in blocks so
    large runs never materialize the full matrix.

    Block k holds rows [NOISE_BLOCK k, NOISE_BLOCK (k+1)) and is one
    standard_normal((rows, n_steps)) draw of
    Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))).  The first j rows
    of a block equal a j-row draw, so a range that starts inside a block
    draws from the block start and drops the prefix, and the rows do not
    depend on how the range is cut into calls.
    """

    seed: int
    n_paths: int
    grid: TimeGrid

    def __post_init__(self) -> None:
        _require_integer("seed", self.seed, 0)
        _require_integer("n_paths", self.n_paths)
        if not int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {_echo(self.seed)}")

    @property
    def rule(self) -> str:
        return NOISE_RULE

    def increments(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Realize rows lo..hi (exclusive) as an array of shape (hi-lo, n_steps)."""
        # Python ints: block arithmetic on numpy unsigned counts wraps
        n_paths = int(self.n_paths)
        lo = _row_index(lo)
        hi = n_paths if hi is None else _row_index(hi)
        if not 0 <= lo <= hi <= n_paths:
            raise ValueError(f"bad row range [{lo}, {hi}) for n_paths={n_paths}")
        out = np.empty((hi - lo, self.grid.n_steps))
        if hi == lo:
            return out
        seed, n_steps = int(self.seed), self.grid.n_steps
        for k in range(lo // NOISE_BLOCK, -(-hi // NOISE_BLOCK)):
            start = k * NOISE_BLOCK
            first, last = max(lo, start), min(hi, start + NOISE_BLOCK)
            gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
            )
            if first > start:
                # the normals of the rows before lo, drawn and dropped
                gen.standard_normal((first - start) * n_steps)
            gen.standard_normal(out=out[first - lo : last - lo])
        out *= math.sqrt(self.grid.dt)
        return out


@dataclass(frozen=True, eq=False)
class _Rows:
    """Increment rows given as an array, read as map_noise_blocks reads a
    NoiseMatrix: row i of rows is path i's noise on grid."""

    rows: np.ndarray
    grid: TimeGrid
    n_paths: int

    def increments(self, lo: int, hi: int) -> np.ndarray:
        return self.rows[lo:hi]


@dataclass(frozen=True)
class _CklsDiffusion:
    """sign sigma x^gamma as s x from the one power s = sign sigma
    x^(gamma-1), which euler_blocks also hands to its observers."""

    p: CklsParams
    sign: float = 1.0

    def power(self, x):
        """s = sign sigma x^(gamma-1), a new array."""
        # `**`, not np.power: its ** 0.5 fast path is the correctly rounded sqrt
        s = x ** (self.p.gamma - 1.0)
        s *= self.sign * self.p.sigma
        return s

    def times(self, x, s):
        """The diffusion s x from s = power(x), in place into s."""
        s *= x
        return s

    def __call__(self, x):
        return self.times(x, self.power(x))


def ckls_drift(p: CklsParams) -> Callable[[np.ndarray], np.ndarray]:
    """Base-measure drift a - b x."""
    a, b = p.a, p.b
    return lambda x: a - b * x


def ckls_diffusion(p: CklsParams) -> Callable[[np.ndarray], np.ndarray]:
    """Diffusion sigma x^gamma, evaluated as (sigma x^(gamma-1)) x: the
    power girsanov.simulate_weighted also derives q from, so its rates
    equal the unweighted Euler runs' bit for bit.  For x > 0; at x = 0 or
    +inf with gamma < 1 the product is 0 * inf, NaN."""
    return _CklsDiffusion(p)


def auxiliary_drift(p: CklsParams, variant: str = "derived") -> Callable:
    """Drift of the drift-adjusted auxiliary equation.

    Variant "derived" is the form obtained by expanding the adjusted drift
    a - b x + q(x) sigma x^gamma with girsanov.drift_adjustment: on both
    branches it is (gamma sigma^2 / 2) x^(2 gamma - 1) + b x, the drift of
    the SDE the closed-form rate solution satisfies, driven by
    sign(1-gamma) sigma x^gamma against the transformed-measure noise.
    Variant "paper" is the printed auxiliary drift: 2a - b x - (gamma
    sigma^2 / 2) x^(2 gamma - 1) for gamma > 1 and (gamma sigma / 2)
    x^(2 gamma - 1) - b x for gamma < 1.  gamma = 1 is DegenerateTransform.
    """
    if p.gamma == 1.0:
        raise DegenerateTransform("auxiliary dynamics require gamma != 1")
    if variant not in ("paper", "derived"):
        raise ValueError(f"unknown auxiliary variant {variant!r}")
    g, s, a, b = p.gamma, p.sigma, p.a, p.b
    if variant == "derived":
        return lambda x: 0.5 * g * s**2 * x ** (2.0 * g - 1.0) + b * x
    if g > 1.0:
        return lambda x: 2.0 * a - b * x - 0.5 * g * s**2 * x ** (2.0 * g - 1.0)
    return lambda x: 0.5 * g * s * x ** (2.0 * g - 1.0) - b * x


def _copy_rows(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src, for a column-ordered dst, a tile of rows at a time.

    A copy of the whole of a row-ordered src reads or writes a whole row
    apart on every element; a tile of at least 4096 values (32 KB) and 64
    rows (eight cache lines down each column) stays in cache.  Each floor
    was the faster of the two on its side of 64 steps.
    """
    tile = max(64, 4096 // max(src.shape[1], 1))
    for i in range(0, src.shape[0], tile):
        dst[i : i + tile] = src[i : i + tile]


class Snapshots:
    """Euler observer: row j holds the rates at grid index indices[j];
    every index in order gives the value matrix, transposed."""

    def __init__(self, indices, n_steps: int, n: int):
        self.rows: dict = {}
        for j, k in enumerate(indices):
            if not 0 <= k <= n_steps:
                raise DomainError(f"grid index {k} is outside 0..{n_steps}")
            _require_integer("grid index", k, low=0)
            self.rows.setdefault(k, []).append(j)
        self.n_steps = n_steps
        self.snapshots = np.empty((len(indices), n))

    def step(self, k, r, s, dW) -> None:
        for j in self.rows.get(k, ()):
            self.snapshots[j] = r

    def end(self, r) -> dict:
        self.step(self.n_steps, r, None, None)
        return {"snapshots": self.snapshots}


def euler_blocks(
    drift: Callable,
    diffusion: Callable,
    r0: float,
    grid: TimeGrid,
    noise,
    observers=(),
    boundary: str = "clamp",
    workers: int = 1,
) -> dict:
    """The one Euler-Maruyama loop, r <- r + drift(r) dt + diffusion(r) dW,
    run a thread block of paths at a time.

    The steps are grid's, of size dt = grid.dt.  noise is a NoiseMatrix
    drawn on grid, or increment rows of grid.n_steps columns (one path's
    as a 1-D array), else InputError before any block is drawn; either is
    blocked by map_noise_blocks into blocks of block_rows(grid.n_steps)
    paths in column order, and workers must be an integer >= 1.  Each
    step reads its noise as one contiguous column of the block.  The
    drift is evaluated as given and scaled by dt into a new array;
    ckls_diffusion (or its signed form) is formed as (s r) dW in the
    array s = sign sigma r^(gamma-1), and any other diffusion as given.
    One r.min() a step is the floor test, and the boundary rule, a name
    in BOUNDARY_RULES, says what a failed test does.
    "clamp" sets the rates below the floor to it and counts them per path;
    "raise-nan" also raises DomainError at a NaN rate before the next step;
    "run-off" sets every rate that is not >= the floor (below it, -inf or
    NaN) to +inf, as a path that ran off, so it reads +inf from then on;
    "none" makes no floor test, for a state that may take any sign.

    An observer factory is called with a block's path count; its object
    gets step(k, r_k, s, dW_k) before step k (s is None with another
    diffusion; r_k is the block's rate array, which the step then
    updates in place) and end(r_n), which returns a dict of per-path
    arrays.
    Returns "rate" (r_n), "trunc" (clamped steps) and the observers'
    arrays, blocks joined along the last axis.
    """
    if boundary not in BOUNDARY_RULES:
        raise ValueError(f"unknown boundary rule {boundary!r}; one of {BOUNDARY_RULES}")
    if isinstance(noise, NoiseMatrix):
        if noise.grid != grid:
            raise InputError(f"noise drawn on {noise.grid} does not fit {grid}")
    else:
        rows = np.asarray(noise, dtype=float)
        if rows.ndim > 2 or rows.shape[-1:] != (grid.n_steps,):
            raise InputError(f"noise of shape {rows.shape} does not fit {grid}")
        rows = rows.reshape(-1, grid.n_steps)
        noise = _Rows(rows, grid, len(rows))
    dt = grid.dt
    run_off, raise_nan = boundary == "run-off", boundary == "raise-nan"
    floor = boundary != "none"
    power = isinstance(diffusion, _CklsDiffusion)
    quiet = {"over": "ignore", "invalid": "ignore"} if run_off else {}

    def run_block(lo: int, hi: int, dW: np.ndarray) -> dict:
        n = hi - lo
        r = np.full(n, float(r0))
        trunc = np.zeros(n, dtype=np.int64)
        watch = [make(n) for make in observers]
        low = r0
        with np.errstate(**quiet):
            for k, col in enumerate(dW.T):
                if raise_nan and low != low:
                    raise DomainError(f"NaN rate before step {k}")
                s = diffusion.power(r) if power else None
                for obs in watch:
                    obs.step(k, r, s, col)
                d = drift(r) * dt
                if power:
                    c = diffusion.times(r, s)
                    c *= col
                else:
                    c = diffusion(r) * col
                r += d
                r += c
                if not floor:
                    continue
                low = r.min(initial=np.inf)  # inf for a block of no paths
                # also true on NaN: the floor pass then reaches the others
                if not low >= POSITIVITY_FLOOR:
                    if run_off:
                        # below the floor, -inf or NaN: the path ran off
                        r[~(r >= POSITIVITY_FLOOR)] = np.inf
                    else:
                        hit = r < POSITIVITY_FLOOR
                        trunc += hit
                        r[hit] = POSITIVITY_FLOOR
        out = {"rate": r, "trunc": trunc}
        for obs in watch:
            out.update(obs.end(r))
        return out

    blocks = map_noise_blocks(noise, run_block, workers=workers)
    return {key: np.concatenate([b[key] for b in blocks], axis=-1) for key in blocks[0]}


def euler_values(
    drift: Callable,
    diffusion: Callable,
    r0: float,
    grid: TimeGrid,
    noise,
    boundary: str = "clamp",
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The paths of euler_blocks as a value matrix.

    Returns (values, exits): values of shape (n_paths, grid.n_steps + 1),
    and per path the steps clamped below the floor plus one if its
    terminal rate is not finite (an overflow stays non-finite, NaN is
    never below the floor; under "run-off" a path is +inf from the step
    that left the floor or the finite range on).
    """
    run = euler_blocks(
        drift, diffusion, r0, grid, noise,
        [lambda n: Snapshots(range(grid.n_steps + 1), grid.n_steps, n)], boundary=boundary,
        workers=workers,
    )
    return np.ascontiguousarray(run["snapshots"].T), run["trunc"] + ~np.isfinite(run["rate"])


def euler_ckls(p: CklsParams, grid: TimeGrid, noise) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for the base model: euler_values' (values, exits).

    r_(k+1) = r_k + (a - b r_k) dt + sigma r_k^gamma dW_k, clamped at the
    positivity floor with the clamp events counted per path.
    """
    return euler_values(ckls_drift(p), ckls_diffusion(p), p.r0, grid, noise)


def euler_auxiliary(
    p: CklsParams, grid: TimeGrid, noise, variant: str = "derived", workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for the auxiliary equation: euler_values' (values, exits).

    What an exit is depends on gamma alone.  For gamma < 1 a step that
    lands below the positivity floor is a floor hit: it is clamped at the
    floor and counted (drift and diffusion grow at most linearly, so no
    step overflows).  For gamma > 1 the rate cannot reach 0 (near 0
    sigma x^gamma vanishes faster than x and neither drift pulls down
    faster than linearly), while the derived dynamics reach +inf when the
    level f(r) hits 0.  A step that lands below the floor is then an
    overshoot through +inf and, like a step that overflows, a blowup: the
    path's values are +inf from that step on, and it counts one exit.
    """
    return euler_values(
        auxiliary_drift(p, variant), ckls_diffusion(p), p.r0, grid, noise,
        boundary="run-off" if p.gamma > 1.0 else "clamp", workers=workers,
    )


def euler_under_q(p: CklsParams, grid: TimeGrid, noise) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for the transformed-measure dynamics consistent with
    the closed-form solution, sharing the given noise rows: the drift of
    auxiliary_drift(p) and the diffusion sign(1-gamma) sigma x^gamma.
    RegimeError unless p is transformable, as in explicit_rate_on_grid.
    Returns euler_values' (values, exits), clamped at the floor."""
    require_transformable(p)
    diffusion = _CklsDiffusion(p, sign=1.0 if p.gamma < 1.0 else -1.0)
    return euler_values(auxiliary_drift(p), diffusion, p.r0, grid, noise)


def _ou_draw(p: CklsParams, x0: float, c: float, kappa: float, t: float, z) -> np.ndarray:
    """x0 e^(c t) + kappa sqrt(phi(2c, t)) Z, the OU process dX = c X dt +
    kappa dW at time t from X_0 = x0, after the regime and horizon checks."""
    require_transformable(p)
    require_horizon(t)
    std = kappa * math.sqrt(stable_phi(2.0 * c, t))
    return x0 * math.exp(c * t) + std * np.asarray(z, dtype=float)


def exact_sqrt_level(cir: CirParams, p: CklsParams, t: float, z):
    """Exact draw of the Gaussian sqrt(Y_t) (a signed real).

    sqrt(Y_t) = sqrt(Y_0) e^(rate t) + (vol/2) sqrt(phi(2 rate, t)) Z with
    rate = drift_lin / 2 and phi the stable exponential integral; the
    rate -> 0 limit is sqrt(Y_0) + (vol/2) sqrt(t) Z.  Where e^(rate t)
    or phi(2 rate, t) leaves the float range, the draw is formed as
    e^(rate t) times the time-scaled draw
    sqrt(Y_0) + (vol/2) sqrt(-expm1(-2 rate t) / (2 rate)) Z, so it is
    +-inf, with that draw's sign, where it overflows.
    """
    x0, rate, kappa = math.sqrt(cir.y0), 0.5 * cir.drift_lin, 0.5 * cir.vol
    try:
        out = _ou_draw(p, x0, rate, kappa, t, z)
    except OverflowError:  # only for rate t > 0, after _ou_draw's checks
        std = kappa * math.sqrt(-math.expm1(-2.0 * rate * t) / (2.0 * rate))
        with np.errstate(over="ignore"):
            out = (x0 + std * np.asarray(z, dtype=float)) * np.exp(rate * t)
    return like_argument(out, z)


def explicit_rate(p: CklsParams, t: float, z):
    """Closed-form rate draw at time t under the transformed measure.

    r_t = | r0^(1-gamma) e^(-(gamma-1) b t)
           + sigma |gamma-1| sqrt(phi(2 b (1-gamma), t)) Z |^(1/(1-gamma))

    The result does not depend on the free transform constant.  Where the
    base is not a normal float (r0^(1-gamma) or e^(ct) past the float
    range, or a base that underflows) it is formed in logs instead
    (_rate_in_logs).  A base that is zero there too (a probability-zero
    event hit numerically) raises SingularSample for the caller to
    report.
    """
    g = p.gamma
    c, kappa = p.b * (1.0 - g), p.sigma * abs(g - 1.0)
    try:
        base = _ou_draw(p, p.r0 ** (1.0 - g), c, kappa, t, z)
    except OverflowError:  # r0^(1-gamma), e^(ct) or phi(2c, t) past the float range
        # r0^(1-gamma) overflows only for gamma > 1, transformable, but
        # before _ou_draw has checked t
        require_horizon(t)
        base = np.full(np.shape(z), np.inf)
    mag = np.abs(base)
    with np.errstate(divide="ignore"):  # zero bases are formed again below
        out = np.asarray(mag ** (1.0 / (1.0 - g)))
    far = not_normal(mag)
    if far.any():
        z_far = np.asarray(z, dtype=float)[far]
        with np.errstate(divide="ignore"):
            log_noise = math.log(kappa) + 0.5 * _log_phi(2.0 * c, t) + np.log(np.abs(z_far))
        log_mean = (1.0 - g) * math.log(p.r0) + c * t
        out[far] = _rate_in_logs(g, log_mean, log_noise, np.sign(z_far))
    return like_argument(out, z)


def explicit_rate_on_grid(p: CklsParams, grid: TimeGrid, noise) -> np.ndarray:
    """Pathwise closed-form solution realized on the grid from increments.

    The base X = r^(1-gamma) of explicit_rate is the Ornstein-Uhlenbeck
    process X_0 = r0^(1-gamma), dX = c X dt + sigma |gamma-1| dW with
    c = b (1-gamma), run by euler_values with no floor test as its exact
    skeleton: X <- e^(c dt) X + sigma |gamma-1| sqrt(phi(2c, dt)/dt) dW_k,
    the drift written expm1(c dt)/dt X.  Each step has the Gaussian
    transition law of X, so the value at every grid time has the law of
    explicit_rate there, and a one-step grid gives explicit_rate on the
    same normals.  Returns |X|^(1/(1-gamma)) on the grid.  X is linear in
    X_0: where it is not a normal float, the skeleton is run again from 0
    for its noise part N, and the rate is formed in logs from
    X_0 e^(c t) + N (_rate_in_logs); left as it is where N itself
    overflows.
    """
    require_transformable(p)
    g, dt = p.gamma, grid.dt
    c = p.b * (1.0 - g)
    growth = math.expm1(c * dt) / dt
    vol = p.sigma * abs(g - 1.0) * math.sqrt(stable_phi(2.0 * c, dt) / dt)

    def skeleton(x0: float) -> np.ndarray:
        return euler_values(
            lambda x: growth * x, lambda x: vol, x0, grid, noise, boundary="none"
        )[0]

    try:
        x0 = p.r0 ** (1.0 - g)
    except OverflowError:
        x0 = math.inf
    with np.errstate(invalid="ignore"):  # inf - inf where X_0 is inf
        x = skeleton(x0)
    mag = np.abs(x)
    with np.errstate(divide="ignore"):  # zero bases are formed again below
        out = mag ** (1.0 / (1.0 - g))
    far = not_normal(mag)
    if far.any():
        n = skeleton(0.0)
        far &= np.isfinite(n)
        log_mean = np.broadcast_to((1.0 - g) * math.log(p.r0) + c * grid.times, x.shape)
        with np.errstate(divide="ignore"):
            log_noise = np.log(np.abs(n[far]))
        out[far] = _rate_in_logs(g, log_mean[far], log_noise, np.sign(n[far]))
    return out


def _log_phi(c: float, t: float) -> float:
    """log stable_phi(c, t), also past the float range of phi; -inf at t = 0."""
    if c * t > 700.0:
        return c * t + math.log1p(-math.exp(-c * t)) - math.log(c)
    return math.log(stable_phi(c, t)) if t > 0 else -math.inf


def _rate_in_logs(g: float, log_mean, log_noise, sign) -> np.ndarray:
    """|e^log_mean + sign e^log_noise|^(1/(1-g)): the closed-form rate from
    the logs of its base's two terms, scaled by the larger so that neither
    overflows.  SingularSample where the base is zero."""
    top = np.maximum(log_mean, log_noise)
    u = np.exp(log_mean - top) + sign * np.exp(log_noise - top)
    if np.any(u == 0.0):
        raise SingularSample("explicit solution hit a zero base; resample")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp((top + np.log(np.abs(u))) / (1.0 - g))


def sample_cir_exact(cir: CirParams, p: CklsParams, t: float, z):
    """Exact draw of the transformed level Y_t from standard normals z.

    Under the derived law Y_t / scale is noncentral chi-square of one
    degree of freedom, (Z + sqrt(nonc))^2, so the draw is
    scale (z + sqrt(nonc))^2 with scale and nonc from transition_spec:
    one normal a draw, as for explicit_rate and exact_sqrt_level, and on
    the same z the square of exact_sqrt_level's draw up to rounding.
    """
    spec = transition_spec(p, cir, t, delta_rule="derived")
    return like_argument(spec.scale * (np.asarray(z, dtype=float) + math.sqrt(spec.nonc)) ** 2, z)


def map_noise_blocks(
    noise: NoiseMatrix,
    fn: Callable[[int, int, np.ndarray], dict],
    workers: int = 1,
):
    """Apply fn(lo, hi, increments) over blocks of block_rows(n_steps)
    rows (read at each call): BLOCK_SIZE from 64 steps on, up to 4
    BLOCK_SIZE below while a block's noise stays within 2^18 normals.
    Stitched in block order; zero rows are one empty block.

    noise is a NoiseMatrix, or anything with its n_paths, grid and
    increments(lo, hi), as euler_blocks passes increment rows given as
    an array.  increments is the block of noise rows lo to hi in column
    order: a Fortran-ordered (hi - lo, noise.grid.n_steps) array with the
    rows' values.  euler_blocks reads its columns, a step's noise each,
    as contiguous views, and keeps its working arrays per call.  fn runs
    on the calling thread, one block at a time in block order, so the
    returned list and any ordered reduction of it are the same for every
    worker count.  Each block is a new array, which fn may keep.

    A block is drawn one stream block at a time through noise.increments,
    and each piece is copied into the block in column order (_copy_rows)
    by the thread that drew it, then dropped.  With workers >= 2, a pool
    of workers - 1 threads draws the next block while fn runs, into a
    block this thread allocated.  A block that is not ready when fn needs
    it is finished here: its still-queued pieces are cancelled and drawn
    on this thread, last first, while the pool takes the first.  So at
    most two blocks are resident, whatever workers is; with workers = 1
    this thread allocates and draws each block when fn needs it, after
    the last one is released.  A block size that cuts a stream block
    gives the same rows, but the cut stream block is drawn for both
    thread blocks.  workers must be an integer >= 1.
    """
    _require_integer("workers", workers)
    n_paths = int(noise.n_paths)
    rows = block_rows(noise.grid.n_steps)
    ranges = [(lo, min(lo + rows, n_paths)) for lo in range(0, max(n_paths, 1), rows)]

    def allocate(lo: int, hi: int) -> np.ndarray:
        return np.empty((hi - lo, noise.grid.n_steps), order="F")

    def fill(dW: np.ndarray, lo: int, a: int, b: int) -> None:
        # pieces write disjoint rows, so they need no lock
        _copy_rows(dW[a - lo : b - lo], noise.increments(a, b))

    def queue(lo: int, hi: int):
        # with a pool, this thread allocates the block: a block that a pool
        # thread allocates can stay resident in that thread's malloc arena
        # after it is freed
        dW = allocate(lo, hi) if pool else None
        edges = [lo, *range((lo // NOISE_BLOCK + 1) * NOISE_BLOCK, hi, NOISE_BLOCK), hi]
        return lo, hi, dW, [
            (a, b, pool.submit(fill, dW, lo, a, b) if pool else None)
            for a, b in zip(edges, edges[1:])
        ]

    def finish(lo: int, hi: int, dW, pieces) -> np.ndarray:
        if dW is None:  # one worker: allocated now, after the last block is released
            dW = allocate(lo, hi)
        running = []
        for a, b, piece in reversed(pieces):
            if piece is None or piece.cancel():
                fill(dW, lo, a, b)
            else:
                running.append(piece)
        for piece in running:
            piece.result()
        return dW

    pool = ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else None
    try:
        out = []
        pending = queue(*ranges[0])
        for i, (lo, hi) in enumerate(ranges):
            dW = finish(*pending)
            pending = queue(*ranges[i + 1]) if i + 1 < len(ranges) else None
            out.append(fn(lo, hi, dW))
            del dW  # spent: not resident while the next block is finished
        return out
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
