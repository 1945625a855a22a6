"""Path simulation: discretized schemes under the base measure and exact
draws under the transformed measure.

Everything is reproducible: the Gaussian increments of path i depend on
(seed, i) and the noise-stream rule alone, so changing the path count
never reshuffles earlier paths, and results are bit-identical across runs
and across worker counts (reductions are stitched in path order).

Two noise-stream rules exist (NOISE_RULES).  Rule v2, the default, cuts
the rows into stream blocks of NOISE_BLOCK rows; block k is one
standard_normal draw, filled row-major, of the generator keyed by
SeedSequence(seed, spawn_key=(k,)), so one generator serves a thousand
rows and its draw runs without the GIL.  Rule v1 (stream=1) makes row i
exactly the normals of numpy's default_rng([seed, i]); its generator
states are computed in bulk with numpy's own SeedSequence hash and PCG64
seeding step, but each row is still a state load and a draw of its own.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, RegimeError, SingularSample
from .numerics import stable_phi
from .params import CklsParams, classify_regime
from .transform import CirParams

__all__ = [
    "NOISE_BLOCK",
    "NOISE_RULES",
    "NOISE_STREAM",
    "POSITIVITY_FLOOR",
    "TimeGrid",
    "NoiseMatrix",
    "Path",
    "AuxiliaryResult",
    "ckls_drift",
    "ckls_diffusion",
    "auxiliary_drift",
    "explicit_solution_drift",
    "euler_values",
    "euler_ckls",
    "euler_auxiliary",
    "euler_under_q",
    "exact_sqrt_level",
    "explicit_rate",
    "explicit_rate_on_grid",
    "sample_cir_exact",
    "map_noise_blocks",
    "step_columns",
]

# Euler paths are clamped here rather than reflected: truncation stays
# visible in the reported counts instead of being hidden by the scheme.
POSITIVITY_FLOOR = 1e-12

# Steps step_columns copies at a time: one 64-byte cache line of a
# float64 noise row.
STEP_CHUNK = 8

# Rows per v2 stream block.  Part of the rule: changing it changes every
# row past the first block, so it is not a setting.
NOISE_BLOCK = 1024

# The rules that turn (seed, path index) into a noise row, by version;
# NoiseMatrix.rule echoes the one in use into every output.
NOISE_RULES = {
    1: "v1: per-path numpy default_rng([seed, i]): PCG64, ziggurat standard_normal",
    2: (
        f"v2: per-block numpy Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))) "
        f"for rows [{NOISE_BLOCK}k, {NOISE_BLOCK}(k+1)): ziggurat standard_normal, row-major"
    ),
}
# the rule NoiseMatrix uses unless told otherwise
NOISE_STREAM = 2

# numpy.random.SeedSequence (numpy/random/bit_generator.pyx): pool size and
# hash constants, and the PCG64 128-bit LCG multiplier.  _bulk_pcg64_states
# reproduces default_rng([seed, i]) seeding with them for rule v1, whose
# every call is checked against numpy, so a change on numpy's side raises.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# rows whose states are turned into Python ints at once; a whole block's
# worth of ints costs resident memory for no speed
_SEED_CHUNK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_end with dt = t_end / n_steps."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not self.n_steps >= 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


def _hash_constants(init: int, mult: int, n: int) -> list:
    """(xor, multiplier) pairs of n successive SeedSequence hash calls: the
    hash constant starts at init and is multiplied by mult on every call."""
    pairs, h = [], init
    for _ in range(n):
        pairs.append((np.uint32(h), np.uint32(h * mult & _MASK32)))
        h = h * mult & _MASK32
    return pairs


# mix_entropy hashes each pool word once, then once per ordered pair of
# distinct words; generate_state hashes 8 output words (4 uint64)
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_OUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _uint32_words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, [0] for 0, as
    SeedSequence splits its entropy."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash(value: np.ndarray, constants: tuple) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT


def _bulk_pcg64_states(seed: int, lo: int, hi: int):
    """Yield the PCG64 (state, inc) of default_rng([seed, i]) for lo <= i < hi.

    Runs SeedSequence([seed, i]).generate_state(4, uint64) for all i at
    once in uint32 arithmetic (i < 2**32, so i is one entropy word), then
    PCG64's seeding step in Python ints, chunk by chunk.
    """
    for c_lo in range(lo, hi, _SEED_CHUNK):
        idx = np.arange(c_lo, min(c_lo + _SEED_CHUNK, hi), dtype=np.uint32)
        # full arrays, not scalars: numpy warns on scalar uint32 wraparound
        entropy = [np.full_like(idx, w) for w in _uint32_words(seed)] + [idx]
        entropy += [np.zeros_like(idx)] * (_POOL_SIZE - len(entropy))
        mix = iter(_MIX_CONSTANTS)
        pool = [_hash(e, next(mix)) for e in entropy]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], next(mix))
                    pool[dst] = mixed ^ mixed >> _SHIFT
        words = [
            _hash(pool[k % _POOL_SIZE], c).astype(np.uint64)
            for k, c in enumerate(_OUT_CONSTANTS)
        ]
        # generate_state(4, uint64) pairs the words little-endian; PCG64
        # reads the four as (initstate high, low, initseq high, low)
        s_hi, s_lo, q_hi, q_lo = (
            (words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
        )
        for sh, sl, qh, ql in zip(s_hi, s_lo, q_hi, q_lo):
            inc = ((qh << 64 | ql) << 1 | 1) & _MASK128
            yield ((inc + (sh << 64 | sl)) * _PCG64_MULT + inc) & _MASK128, inc


def _require_integer(name: str, value) -> None:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NoiseMatrix:
    """Per-path Gaussian increments with variance dt per step.

    Row i is standard normals scaled by sqrt(dt), drawn under the
    noise-stream rule NOISE_RULES[stream]; rows are realized lazily in
    blocks so large runs never materialize the full matrix.

    v2 (default): block k holds rows [NOISE_BLOCK k, NOISE_BLOCK (k+1))
    and is one standard_normal((rows, n_steps)) draw of
    Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))).  The first j rows
    of a block equal a j-row draw, so a range that starts inside a block
    draws from the block start and drops the prefix, and the rows do not
    depend on how the range is cut into calls.

    v1: row i is the normals of np.random.default_rng([seed, i]), bit for
    bit; the generator states of a call's rows are computed in bulk and
    loaded one by one into a generator of the call's own.
    """

    seed: int
    n_paths: int
    grid: TimeGrid
    stream: int = NOISE_STREAM

    def __post_init__(self) -> None:
        _require_integer("seed", self.seed)
        _require_integer("n_paths", self.n_paths)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.n_paths >= 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        _require_integer("stream", self.stream)
        if self.stream not in NOISE_RULES:
            raise ValueError(f"stream must be one of {sorted(NOISE_RULES)}, got {self.stream!r}")

    @property
    def rule(self) -> str:
        return NOISE_RULES[self.stream]

    def increments(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Realize rows lo..hi (exclusive) as an array of shape (hi-lo, n_steps).

        Under v1, raises RuntimeError if the first row differs from numpy's
        own default_rng([seed, lo]), i.e. if numpy changed its seeding.
        """
        # Python ints: block arithmetic on numpy unsigned counts wraps
        n_paths = int(self.n_paths)
        lo = operator.index(lo)
        hi = n_paths if hi is None else operator.index(hi)
        if not 0 <= lo <= hi <= n_paths:
            raise ValueError(f"bad row range [{lo}, {hi}) for n_paths={n_paths}")
        out = np.empty((hi - lo, self.grid.n_steps))
        if hi == lo:
            return out
        if self.stream == 1:
            self._fill_v1(lo, hi, out)
        else:
            self._fill_v2(lo, hi, out)
        out *= math.sqrt(self.grid.dt)
        return out

    def _fill_v2(self, lo: int, hi: int, out: np.ndarray) -> None:
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

    def _fill_v1(self, lo: int, hi: int, out: np.ndarray) -> None:
        seed = int(self.seed)
        gen = np.random.default_rng([seed, lo])
        expected = gen.standard_normal(self.grid.n_steps)
        bitgen = gen.bit_generator
        words = {}
        state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
        # the bulk hash takes the path index as one 32-bit word
        split = min(max(lo, 2**32), hi)
        for row, (s, inc) in zip(out, _bulk_pcg64_states(seed, lo, split)):
            words["state"], words["inc"] = s, inc
            bitgen.state = state
            gen.standard_normal(out=row)
        for i in range(split, hi):
            np.random.default_rng([seed, i]).standard_normal(out=out[i - lo])
        if not np.array_equal(out[0], expected):
            raise RuntimeError(
                f"bulk-seeded noise row {lo} differs from default_rng([{seed}, {lo}]) "
                f"under numpy {np.__version__}; its SeedSequence or PCG64 seeding changed"
            )

    def row(self, i: int) -> np.ndarray:
        return self.increments(i, i + 1)[0]


@dataclass(frozen=True)
class Path:
    """One discretized trajectory; truncations counts floor-clamped steps."""

    grid: TimeGrid
    values: np.ndarray
    truncations: int = 0

    @property
    def truncated(self) -> bool:
        return self.truncations > 0


@dataclass(frozen=True)
class AuxiliaryResult:
    """Auxiliary-SDE run with the positivity diagnostic statistics.

    floor_hits and blowups count paths, each path at most once in one of
    them; see euler_auxiliary for the rule that tells them apart.
    """

    paths: list
    variant: str
    min_values: np.ndarray = field(repr=False)
    floor_hits: int = 0
    blowups: int = 0

    @property
    def floor_fraction(self) -> float:
        return self.floor_hits / len(self.paths)

    @property
    def blowup_fraction(self) -> float:
        return self.blowups / len(self.paths)


def ckls_drift(p: CklsParams) -> Callable[[np.ndarray], np.ndarray]:
    """Base-measure drift a - b x."""
    return lambda x: p.a - p.b * x


def ckls_diffusion(p: CklsParams) -> Callable[[np.ndarray], np.ndarray]:
    """Diffusion sigma x^gamma."""
    return lambda x: p.sigma * x**p.gamma


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


def euler_values(
    drift: Callable,
    diffusion: Callable,
    r0: float,
    dt: float,
    dW: np.ndarray,
    floor: float = POSITIVITY_FLOOR,
    exit_to_inf: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Euler-Maruyama over a block of increment rows.

    Returns (values, exits) with values of shape (n_paths, n_steps + 1)
    and per-path counts of steps that landed below the floor, where they
    are clamped.  A path that overflows stays non-finite (NaN is never
    below the floor), so each path with a non-finite terminal value counts
    one exit more.  With exit_to_inf a step below the floor, or one that
    overflows to a non-finite value, is instead read as a path that ran off
    to +inf: its values are +inf from that step on, and it counts one exit.
    """
    n_paths, n_steps = dW.shape
    values = np.empty((n_paths, n_steps + 1))
    values[:, 0] = r0
    trunc = np.zeros(n_paths, dtype=np.int64)
    first_exit = np.full(n_paths, n_steps + 1)
    r = np.full(n_paths, float(r0))
    quiet = {"over": "ignore", "invalid": "ignore"} if exit_to_inf else {}
    with np.errstate(**quiet):
        for k, col in enumerate(step_columns(dW)):
            r = r + drift(r) * dt + diffusion(r) * col
            hit = r < floor
            if hit.any():
                trunc += hit
                first_exit = np.where(hit, np.minimum(first_exit, k + 1), first_exit)
                r = np.where(hit, floor, r)
            values[:, k + 1] = r
    if exit_to_inf:
        bad = ~np.isfinite(values)
        overflowed = np.where(bad.any(axis=1), bad.argmax(axis=1), n_steps + 1)
        first_exit = np.minimum(first_exit, overflowed)
        values[np.arange(n_steps + 1) >= first_exit[:, None]] = np.inf
        trunc = (first_exit <= n_steps).astype(np.int64)
    else:
        trunc += ~np.isfinite(r)
    return values, trunc


def _wrap_paths(grid: TimeGrid, values: np.ndarray, trunc: np.ndarray) -> list:
    return [Path(grid, values[i], int(trunc[i])) for i in range(values.shape[0])]


def euler_ckls(p: CklsParams, grid: TimeGrid, noise) -> list:
    """Euler-Maruyama for the base model, one Path per noise row.

    r_(k+1) = r_k + (a - b r_k) dt + sigma r_k^gamma dW_k, clamped at the
    positivity floor with the clamp events counted per path.
    """
    dW = _as_increments(noise)
    values, trunc = euler_values(ckls_drift(p), ckls_diffusion(p), p.r0, grid.dt, dW)
    return _wrap_paths(grid, values, trunc)


def euler_auxiliary(
    p: CklsParams, grid: TimeGrid, noise, variant: str = "derived"
) -> AuxiliaryResult:
    """Euler-Maruyama for the auxiliary equation plus positivity statistics.

    Steps that leave the positive reals are classified by gamma alone.
    For gamma < 1 a step that lands below the positivity floor is a floor
    hit: it is clamped at the floor and the path counts in floor_hits
    (drift and diffusion grow at most linearly, so no step overflows).
    For gamma > 1 the rate cannot reach 0 (near 0 sigma x^gamma vanishes
    faster than x and neither drift pulls down faster than linearly),
    while the derived dynamics reach +inf when the level f(r) hits 0.  A
    step that lands below the floor is then an overshoot through +inf
    and, like a step that overflows, a blowup: the path counts in
    blowups, never in floor_hits, and its values are +inf from that step
    on.
    """
    dW = _as_increments(noise)
    blow_up = p.gamma > 1.0
    values, exits = euler_values(
        auxiliary_drift(p, variant), ckls_diffusion(p), p.r0, grid.dt, dW,
        exit_to_inf=blow_up,
    )
    n_exited = int(np.count_nonzero(exits))
    return AuxiliaryResult(
        paths=_wrap_paths(grid, values, np.zeros_like(exits) if blow_up else exits),
        variant=variant,
        min_values=values.min(axis=1),
        floor_hits=0 if blow_up else n_exited,
        blowups=n_exited if blow_up else 0,
    )


def euler_under_q(p: CklsParams, grid: TimeGrid, noise) -> np.ndarray:
    """Euler-Maruyama for the transformed-measure dynamics consistent with
    the closed-form solution, sharing the given noise rows.  Returns the
    raw value matrix (n_paths, n_steps + 1)."""
    dW = _as_increments(noise)
    sign = 1.0 if p.gamma < 1.0 else -1.0
    diffusion = lambda x: sign * p.sigma * x**p.gamma  # noqa: E731
    values, _ = euler_values(explicit_solution_drift(p), diffusion, p.r0, grid.dt, dW)
    return values


def _require_transformable(p: CklsParams) -> None:
    if not classify_regime(p).girsanov_valid:
        raise RegimeError("operation requires a change-of-measure-valid regime")


def exact_sqrt_level(cir: CirParams, p: CklsParams, t: float, z):
    """Exact draw of the Gaussian sqrt(Y_t) (a signed real).

    sqrt(Y_t) = sqrt(Y_0) e^(rate t) + (vol/2) sqrt(phi(2 rate, t)) Z with
    rate = drift_lin / 2 and phi the stable exponential integral; the
    rate -> 0 limit is sqrt(Y_0) + (vol/2) sqrt(t) Z.
    """
    _require_transformable(p)
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    mean = math.sqrt(cir.y0) * math.exp(0.5 * cir.drift_lin * t)
    std = 0.5 * cir.vol * math.sqrt(stable_phi(cir.drift_lin, t))
    return mean + std * np.asarray(z, dtype=float)


def explicit_rate(p: CklsParams, t: float, z):
    """Closed-form rate draw at time t under the transformed measure.

    r_t = | r0^(1-gamma) e^(-(gamma-1) b t)
           + sigma |gamma-1| sqrt(phi(2 b (1-gamma), t)) Z |^(1/(1-gamma))

    The result does not depend on the free transform constant.  A base of
    exactly zero (a probability-zero event hit numerically) raises
    SingularSample; callers report and resample.
    """
    _require_transformable(p)
    if p.gamma == 1.0:
        raise DomainError("explicit solution requires gamma != 1")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    g = p.gamma
    c = p.b * (1.0 - g)
    base = p.r0 ** (1.0 - g) * math.exp(c * t) + p.sigma * abs(g - 1.0) * math.sqrt(
        stable_phi(2.0 * c, t)
    ) * np.asarray(z, dtype=float)
    if np.any(base == 0.0):
        raise SingularSample("explicit solution hit a zero base; resample")
    out = np.abs(base) ** (1.0 / (1.0 - g))
    return float(out) if np.ndim(z) == 0 else out


def explicit_rate_on_grid(p: CklsParams, grid: TimeGrid, noise) -> np.ndarray:
    """Pathwise closed-form solution realized on the grid from increments.

    The Gaussian integral is accumulated by the exponential recursion
    G_(k+1) = e^(c dt) G_k + (phi(c, dt)/dt) dW_k, whose strong coupling
    error is O(dt) -- below the Euler scheme's O(sqrt(dt)), which is what
    the convergence ladder measures.
    """
    _require_transformable(p)
    dW = _as_increments(noise)
    n_paths, n_steps = dW.shape
    g = p.gamma
    c = p.b * (1.0 - g)
    dt = grid.dt
    decay = math.exp(c * dt)
    kappa = stable_phi(c, dt) / dt
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = p.r0
    G = np.zeros(n_paths)
    r0_pow = p.r0 ** (1.0 - g)
    for k in range(n_steps):
        G = decay * G + kappa * dW[:, k]
        base = r0_pow * math.exp(c * dt * (k + 1)) + p.sigma * abs(g - 1.0) * G
        out[:, k + 1] = np.abs(base) ** (1.0 / (1.0 - g))
    return out


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
    from .distribution import NoncentralChiSq, noncentral_sample, transition_spec

    _require_transformable(p)
    spec = transition_spec(p, cir, t, delta_rule="derived")
    d = NoncentralChiSq(df=spec.df, nonc=spec.nonc)
    return spec.scale * noncentral_sample(d, rng, size)


def map_noise_blocks(
    noise: NoiseMatrix,
    fn: Callable[[int, int, np.ndarray], dict],
    block_size: int = 8192,
    workers: int = 1,
):
    """Apply fn(lo, hi, increments) over row blocks, stitched in block order.

    increments is the (hi - lo, n_steps) row-major block of noise rows lo
    to hi; the Euler loops read it a step at a time through step_columns,
    and keep their working arrays per call, so each thread block has its
    own.  Blocks may run on a thread pool; the returned list is always in
    block order, so downstream ordered reductions are identical for any
    worker count.  The default 8192 rows are 8 whole v2 stream blocks: a
    block size that cuts a stream block gives the same rows, but the cut
    stream block is drawn by both thread blocks.
    """
    ranges = [
        (lo, min(lo + block_size, noise.n_paths))
        for lo in range(0, noise.n_paths, block_size)
    ]
    if workers <= 1:
        return [fn(lo, hi, noise.increments(lo, hi)) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(lambda r: fn(r[0], r[1], noise.increments(*r)), r) for r in ranges]
        return [f.result() for f in futures]
