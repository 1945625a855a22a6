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

Every Euler run is euler_blocks over thread blocks of BLOCK_SIZE paths.
The kernel runs on the calling thread, a block at a time; with workers
>= 2 a pool of the other threads draws the next block's noise meanwhile
(map_noise_blocks), so at most two blocks of noise are resident.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import NoncentralChiSq, noncentral_sample, transition_spec
from .errors import DomainError, InputError, SingularSample
from .numerics import like_argument, require_horizon, stable_phi
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
    "explicit_solution_drift",
    "euler_blocks",
    "euler_exits",
    "euler_values",
    "euler_ckls",
    "euler_auxiliary",
    "euler_under_q",
    "exact_sqrt_level",
    "require_grid_noise",
    "explicit_rate",
    "explicit_rate_on_grid",
    "sample_cir_exact",
    "map_noise_blocks",
    "step_columns",
    "Snapshots",
]

# Euler paths are clamped here rather than reflected: truncation stays
# visible in the reported counts instead of being hidden by the scheme.
POSITIVITY_FLOOR = 1e-12

# What euler_blocks does with a rate that is not >= the floor; "none"
# skips the floor test.
BOUNDARY_RULES = ("clamp", "raise-nan", "run-off", "none")

# Steps step_columns copies at a time: one 64-byte cache line of a
# float64 noise row.
STEP_CHUNK = 8

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

# Rows per thread block, the default block_size of euler_blocks,
# map_noise_blocks and girsanov.simulate_weighted: four whole stream
# blocks, 16 MB of noise at 512 steps.
BLOCK_SIZE = 4096


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
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


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
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

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

    def row(self, i: int) -> np.ndarray:
        return self.increments(i, i + 1)[0]


@dataclass(frozen=True)
class _CklsDrift:
    """a - b x, which euler_blocks evaluates into a buffer of its own."""

    p: CklsParams

    def __call__(self, x):
        return self.p.a - self.p.b * x

    def into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(self.p.b, x, out=out)
        return np.subtract(self.p.a, out, out=out)


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
    return _CklsDrift(p)


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
    branches it is b x + (gamma sigma^2 / 2) x^(2 gamma - 1), the drift of
    explicit_solution_drift.  Variant "paper" is the printed auxiliary
    drift: 2a - b x - (gamma sigma^2 / 2) x^(2 gamma - 1) for gamma > 1 and
    (gamma sigma / 2) x^(2 gamma - 1) - b x for gamma < 1.
    """
    if p.gamma == 1.0:
        raise DomainError("auxiliary dynamics require gamma != 1")
    if variant not in ("paper", "derived"):
        raise ValueError(f"unknown auxiliary variant {variant!r}")
    g, s, a, b = p.gamma, p.sigma, p.a, p.b
    if variant == "derived":
        return explicit_solution_drift(p)
    if g > 1.0:
        return lambda x: 2.0 * a - b * x - 0.5 * g * s**2 * x ** (2.0 * g - 1.0)
    return lambda x: 0.5 * g * s * x ** (2.0 * g - 1.0) - b * x


def explicit_solution_drift(p: CklsParams) -> Callable:
    """Drift of the SDE the closed-form rate solution satisfies:
    (gamma sigma^2 / 2) x^(2 gamma - 1) + b x, driven by
    sign(1-gamma) sigma x^gamma against the transformed-measure noise."""
    g, s, b = p.gamma, p.sigma, p.b
    return lambda x: 0.5 * g * s**2 * x ** (2.0 * g - 1.0) + b * x


def require_grid_noise(grid: TimeGrid, noise) -> None:
    """InputError unless noise is a NoiseMatrix drawn on grid itself or
    increment rows of grid.n_steps columns."""
    if isinstance(noise, NoiseMatrix):
        if noise.grid != grid:
            raise InputError(f"noise drawn on {noise.grid} does not fit {grid}")
    elif np.shape(noise)[-1:] != (grid.n_steps,):
        raise InputError(f"noise of shape {np.shape(noise)} does not fit {grid}")


def _as_increments(noise) -> np.ndarray:
    if isinstance(noise, NoiseMatrix):
        return noise.increments()
    dW = np.asarray(noise, dtype=float)
    if dW.ndim == 1:
        dW = dW[None, :]
    return dW


def step_columns(dW: np.ndarray):
    """Yield the noise columns dW[:, k] in step order as contiguous arrays.

    A column of a row-major block is strided by a whole row, so reading it
    misses the cache on every element.  The columns are instead copied
    STEP_CHUNK steps at a time: each row's next STEP_CHUNK values (one
    cache line) go as one record into an (n_paths, STEP_CHUNK) buffer,
    which is then transposed into the (STEP_CHUNK, n_paths) buffer whose
    rows are yielded.  Both buffers are reused, so a column is valid only
    until the next one is drawn.  The values are dW's, bit for bit; a dW
    that is not C-contiguous is copied once first.
    """
    dW = np.ascontiguousarray(dW)
    n_paths, n_steps = dW.shape
    rows = np.empty((n_paths, STEP_CHUNK), dtype=dW.dtype)
    cols = np.empty((STEP_CHUNK, n_paths), dtype=dW.dtype)
    for k in range(0, n_steps, STEP_CHUNK):
        m = min(STEP_CHUNK, n_steps - k)
        # each row's m values copied as one record: a copy loop restarted
        # every m values costs more than the memory reads
        record = np.dtype((np.void, m * dW.itemsize))
        rows[:, :m].view(record)[...] = dW[:, k : k + m].view(record)
        cols[:m] = rows[:, :m].T
        yield from cols[:m]


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
    dt: float,
    noise,
    observers=(),
    boundary: str = "clamp",
    workers: int = 1,
    block_size: int = BLOCK_SIZE,
) -> dict:
    """The one Euler-Maruyama loop, r <- r + drift(r) dt + diffusion(r) dW,
    run a thread block of paths at a time.

    noise is a NoiseMatrix, blocked by map_noise_blocks, or increment
    rows, run as one block; workers and block_size must be integers >= 1
    either way.  ckls_drift is formed in a block buffer, and
    ckls_diffusion (or its signed form) as (s r) dW in the one array a
    step allocates, s = sign sigma r^(gamma-1); other callables are
    evaluated as given.  One r.min() a step is the floor test, and the
    boundary rule, a name in BOUNDARY_RULES, says what a failed test does.
    "clamp" sets the rates below the floor to it and counts them per path;
    "raise-nan" also raises DomainError at a NaN rate before the next step;
    "run-off" sets every rate that is not >= the floor (below it, -inf or
    NaN) to +inf, as a path that ran off, so it reads +inf from then on;
    "none" makes no floor test, for a state that may take any sign.

    An observer factory is called with a block's path count; its object
    gets step(k, r_k, s, dW_k) before step k (s is None with another
    diffusion) and end(r_n), which returns a dict of per-path arrays.
    Returns "rate" (r_n), "trunc" (clamped steps) and the observers'
    arrays, blocks joined along the last axis.
    """
    if boundary not in BOUNDARY_RULES:
        raise ValueError(f"unknown boundary rule {boundary!r}; one of {BOUNDARY_RULES}")
    _require_integer("block_size", block_size)
    _require_integer("workers", workers)
    run_off, raise_nan = boundary == "run-off", boundary == "raise-nan"
    floor = boundary != "none"
    base_drift = isinstance(drift, _CklsDrift)
    power = isinstance(diffusion, _CklsDiffusion)
    quiet = {"over": "ignore", "invalid": "ignore"} if run_off else {}

    def run_block(lo: int, hi: int, dW: np.ndarray) -> dict:
        n = hi - lo
        r = np.full(n, float(r0))
        d = np.empty(n)
        trunc = np.zeros(n, dtype=np.int64)
        watch = [make(n) for make in observers]
        low = r0
        with np.errstate(**quiet):
            for k, col in enumerate(step_columns(dW)):
                if raise_nan and low != low:
                    raise DomainError(f"NaN rate before step {k}")
                s = diffusion.power(r) if power else None
                for obs in watch:
                    obs.step(k, r, s, col)
                if base_drift:
                    drift.into(r, d)
                    d *= dt
                else:
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

    if isinstance(noise, NoiseMatrix):
        blocks = map_noise_blocks(noise, run_block, block_size=block_size, workers=workers)
    else:
        dW = _as_increments(noise)
        blocks = [run_block(0, dW.shape[0], dW)]
    if len(blocks) == 1:
        return blocks[0]
    return {key: np.concatenate([b[key] for b in blocks], axis=-1) for key in blocks[0]}


def euler_exits(run: dict) -> np.ndarray:
    """Per-path exits of an euler_blocks run: the steps that landed below
    the floor, where they are clamped, and one more for a path whose
    terminal rate is not finite.  A path that overflows stays non-finite
    (NaN is never below the floor); under "run-off" the kernel sets a
    path that leaves the floor or the finite range to +inf, so it counts
    one exit."""
    return run["trunc"] + ~np.isfinite(run["rate"])


def euler_values(
    drift: Callable,
    diffusion: Callable,
    r0: float,
    dt: float,
    noise,
    boundary: str = "clamp",
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The paths of euler_blocks as a value matrix.

    Returns (values, euler_exits) with values of shape
    (n_paths, n_steps + 1); under "run-off" a path's values are +inf from
    the step that left on.
    """
    n_steps = noise.grid.n_steps if isinstance(noise, NoiseMatrix) else np.shape(noise)[-1]
    run = euler_blocks(
        drift, diffusion, r0, dt, noise,
        [lambda n: Snapshots(range(n_steps + 1), n_steps, n)], boundary=boundary,
        workers=workers,
    )
    return np.ascontiguousarray(run["snapshots"].T), euler_exits(run)


def euler_ckls(p: CklsParams, grid: TimeGrid, noise) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for the base model: euler_values' (values, exits).

    r_(k+1) = r_k + (a - b r_k) dt + sigma r_k^gamma dW_k, clamped at the
    positivity floor with the clamp events counted per path.
    """
    require_grid_noise(grid, noise)
    return euler_values(ckls_drift(p), ckls_diffusion(p), p.r0, grid.dt, noise)


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
    require_grid_noise(grid, noise)
    return euler_values(
        auxiliary_drift(p, variant), ckls_diffusion(p), p.r0, grid.dt, noise,
        boundary="run-off" if p.gamma > 1.0 else "clamp", workers=workers,
    )


def euler_under_q(p: CklsParams, grid: TimeGrid, noise) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for the transformed-measure dynamics consistent with
    the closed-form solution, sharing the given noise rows: the drift of
    explicit_solution_drift and the diffusion sign(1-gamma) sigma x^gamma.
    Returns euler_values' (values, exits), clamped at the floor."""
    require_grid_noise(grid, noise)
    diffusion = _CklsDiffusion(p, sign=1.0 if p.gamma < 1.0 else -1.0)
    return euler_values(explicit_solution_drift(p), diffusion, p.r0, grid.dt, noise)


def exact_sqrt_level(cir: CirParams, p: CklsParams, t: float, z):
    """Exact draw of the Gaussian sqrt(Y_t) (a signed real).

    sqrt(Y_t) = sqrt(Y_0) e^(rate t) + (vol/2) sqrt(phi(2 rate, t)) Z with
    rate = drift_lin / 2 and phi the stable exponential integral; the
    rate -> 0 limit is sqrt(Y_0) + (vol/2) sqrt(t) Z.
    """
    require_transformable(p)
    require_horizon(t)
    mean = math.sqrt(cir.y0) * math.exp(0.5 * cir.drift_lin * t)
    std = 0.5 * cir.vol * math.sqrt(stable_phi(cir.drift_lin, t))
    return like_argument(mean + std * np.asarray(z, dtype=float), z)


def explicit_rate(p: CklsParams, t: float, z):
    """Closed-form rate draw at time t under the transformed measure.

    r_t = | r0^(1-gamma) e^(-(gamma-1) b t)
           + sigma |gamma-1| sqrt(phi(2 b (1-gamma), t)) Z |^(1/(1-gamma))

    The result does not depend on the free transform constant.  A base of
    exactly zero (a probability-zero event hit numerically) raises
    SingularSample; callers report and resample.
    """
    require_transformable(p)
    require_horizon(t)
    g = p.gamma
    c = p.b * (1.0 - g)
    base = p.r0 ** (1.0 - g) * math.exp(c * t) + p.sigma * abs(g - 1.0) * math.sqrt(
        stable_phi(2.0 * c, t)
    ) * np.asarray(z, dtype=float)
    if np.any(base == 0.0):
        raise SingularSample("explicit solution hit a zero base; resample")
    return like_argument(np.abs(base) ** (1.0 / (1.0 - g)), z)


def explicit_rate_on_grid(p: CklsParams, grid: TimeGrid, noise) -> np.ndarray:
    """Pathwise closed-form solution realized on the grid from increments.

    The base X = r^(1-gamma) of explicit_rate is the Ornstein-Uhlenbeck
    process X_0 = r0^(1-gamma), dX = c X dt + sigma |gamma-1| dW with
    c = b (1-gamma), run by euler_values with no floor test as its exact
    skeleton: X <- e^(c dt) X + sigma |gamma-1| sqrt(phi(2c, dt)/dt) dW_k,
    the drift written expm1(c dt)/dt X.  Each step has the Gaussian
    transition law of X, so the value at every grid time has the law of
    explicit_rate there, and a one-step grid gives explicit_rate on the
    same normals.  Returns |X|^(1/(1-gamma)) on the grid.
    """
    require_transformable(p)
    require_grid_noise(grid, noise)
    g, dt = p.gamma, grid.dt
    c = p.b * (1.0 - g)
    growth = math.expm1(c * dt) / dt
    vol = p.sigma * abs(g - 1.0) * math.sqrt(stable_phi(2.0 * c, dt) / dt)
    x, _ = euler_values(
        lambda x: growth * x, lambda x: vol, p.r0 ** (1.0 - g), dt, noise, boundary="none"
    )
    return np.abs(x) ** (1.0 / (1.0 - g))


def sample_cir_exact(
    cir: CirParams,
    p: CklsParams,
    t: float,
    rng: np.random.Generator,
    size=None,
):
    """Exact draw of the transformed level Y_t = scale * X with X from the
    noncentral chi-square transition law; independent oracle against
    exact_sqrt_level squared."""
    spec = transition_spec(p, cir, t, delta_rule="derived")
    d = NoncentralChiSq(df=spec.df, nonc=spec.nonc)
    return spec.scale * noncentral_sample(d, rng, size)


def map_noise_blocks(
    noise: NoiseMatrix,
    fn: Callable[[int, int, np.ndarray], dict],
    block_size: int = BLOCK_SIZE,
    workers: int = 1,
):
    """Apply fn(lo, hi, increments) over row blocks, stitched in block order.

    increments is the (hi - lo, n_steps) row-major block of noise rows lo
    to hi; euler_blocks reads it a step at a time through step_columns,
    and keeps its working arrays per call.  fn runs on the calling
    thread, one block at a time in block order, so the returned list and
    any ordered reduction of it are the same for every worker count.

    With workers >= 2, a pool of workers - 1 threads draws the next
    block's rows while fn runs, one stream block at a time through
    noise.increments, each piece copied into a buffer this thread
    allocated and then dropped.  A block that is not ready when fn needs
    it is finished here: its still-queued pieces are cancelled and drawn
    on this thread, last first, while the pool takes the first.  So at
    most two blocks are resident, whatever workers is.  A block size that
    cuts a stream block gives the same rows, but the cut stream block is
    drawn for both thread blocks.  block_size and workers must be
    integers >= 1.
    """
    _require_integer("block_size", block_size)
    _require_integer("workers", workers)
    n_paths = int(noise.n_paths)
    ranges = [(lo, min(lo + block_size, n_paths)) for lo in range(0, n_paths, block_size)]
    if workers == 1:
        return [fn(lo, hi, noise.increments(lo, hi)) for lo, hi in ranges]

    def fill(dW: np.ndarray, lo: int, a: int, b: int) -> None:
        dW[a - lo : b - lo] = noise.increments(a, b)

    def queue(lo: int, hi: int):
        dW = np.empty((hi - lo, noise.grid.n_steps))
        edges = [lo, *range((lo // NOISE_BLOCK + 1) * NOISE_BLOCK, hi, NOISE_BLOCK), hi]
        return dW, lo, [(a, b, pool.submit(fill, dW, lo, a, b)) for a, b in zip(edges, edges[1:])]

    def finish(dW: np.ndarray, lo: int, pieces) -> np.ndarray:
        running = []
        for a, b, piece in reversed(pieces):
            if piece.cancel():
                fill(dW, lo, a, b)
            else:
                running.append(piece)
        for piece in running:
            piece.result()
        return dW

    pool = ThreadPoolExecutor(max_workers=workers - 1)
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
        pool.shutdown(cancel_futures=True)
