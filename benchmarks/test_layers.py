"""Per-layer timings with pytest-benchmark; opt-in, outside tier-1.

    python -m pytest benchmarks --benchmark-json BENCH.json

Each layer is timed on its own, at the sizes of the benchmark workloads:
noise generation, one thread block of noise drawn and copied to column
order (the pool's share of a run with workers >= 2), the Euler-weight kernel on noise drawn beforehand (on
the HIGH set, whose power r^(gamma-1) is a square root, and on the LOW
set, whose power is a general one), the whole weighted run with its
noise draw (which workers >= 2 overlaps with the kernel), the unweighted
Euler kernel and its value matrix at the export size, the gamma > 1
auxiliary run at the same size (the kernel's "run-off" boundary rule,
beside "raise-nan" in the weighted kernel and "clamp" in euler_ckls), the
noncentral chi-square pdf and CDF, the closed-form rate draws of the law
workload, the KS statistic against the rate law under each df rule,
and the two path writers at three shapes.  Three cold-start timings
launch a fresh interpreter per round: `import ckls, ckls.cli`, and the
whole user-visible jobs `ckls simulate --mode euler-p` at 200 paths x 16
steps and `ckls verify --suite default` at the README config (HIGH, seed
42), the slowest of them, timed in one round.  Rounds are fixed so a full run
takes about a minute.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckls import (
    CklsParams,
    NoiseMatrix,
    TimeGrid,
    derive_cir,
    euler_auxiliary,
    euler_ckls,
    explicit_rate,
    ks_statistic,
    make_transform,
    simulate_weighted,
)
from ckls.engine import BLOCK_SIZE, map_noise_blocks
from ckls.distribution import NoncentralChiSq, noncentral_cdf, noncentral_pdf, rate_cdf, transition_spec
from ckls.pathio import write_paths_binary, write_paths_csv

SRC = Path(__file__).resolve().parent.parent / "src"
HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)
LONG = TimeGrid(0.5, 512)
SHORT = TimeGrid(0.5, 16)


class PreDrawn(NoiseMatrix):
    """Rows drawn once, in the warm-up round, so a timed kernel round
    draws no noise."""

    @functools.cached_property
    def rows(self):
        return NoiseMatrix(self.seed, self.n_paths, self.grid).increments()

    def increments(self, lo=0, hi=None):
        return self.rows[lo:hi]


@pytest.mark.parametrize("grid,n_paths", [(SHORT, 50_000), (LONG, 8192)], ids=["16-steps", "512-steps"])
def test_noise_increments(benchmark, grid, n_paths):
    noise = NoiseMatrix(5, n_paths, grid)
    rows = benchmark.pedantic(noise.increments, rounds=5, warmup_rounds=1)
    assert rows.shape == (n_paths, grid.n_steps)


@pytest.mark.parametrize("grid", [SHORT, LONG], ids=["16-steps", "512-steps"])
def test_noise_block(benchmark, grid):
    """One BLOCK_SIZE-row block through map_noise_blocks on the calling
    thread: its stream blocks drawn, each copied into the block in column
    order."""
    noise = NoiseMatrix(5, BLOCK_SIZE, grid)
    blocks = benchmark.pedantic(
        map_noise_blocks, args=(noise, lambda lo, hi, dW: dW), rounds=5, warmup_rounds=1
    )
    assert blocks[0].flags.f_contiguous and blocks[0].shape == (BLOCK_SIZE, grid.n_steps)


@pytest.mark.parametrize("p,grid,n_paths,workers", [
    *(
        pytest.param(p, grid, n_paths, workers, id=f"{name}-{steps}-{workers}")
        for name, p in [("high", HIGH), ("low", LOW)]
        for steps, grid, n_paths in [("16-steps", SHORT, 50_000), ("512-steps", LONG, 16_384)]
        for workers in [1, 2]
    ),
    pytest.param(HIGH, TimeGrid(0.5, 4), 200_000, 1, id="high-4-steps-1"),
])
def test_weighted_kernel(benchmark, p, grid, n_paths, workers):
    """The pre-drawn rows are still copied into column order a block at a
    time: with workers=2 by the pool, while the kernel runs on the
    calling thread, and with workers=1 by the calling thread between
    blocks.  The 4-step case runs blocks of 4 BLOCK_SIZE rows, the most
    engine.block_rows gives, with a quarter of the noise that allows."""
    noise = PreDrawn(5, n_paths, grid)
    sample = benchmark.pedantic(
        simulate_weighted, args=(p, grid, noise), kwargs={"workers": workers},
        rounds=5, warmup_rounds=1,
    )
    assert np.isfinite(sample.log_weight).all()


@pytest.mark.parametrize("workers", [1, 2])
def test_weighted_job(benchmark, workers):
    """simulate_weighted on a fresh NoiseMatrix at the mc-long size: the
    noise draw and the kernel timed together, overlapped with workers=2."""
    noise = NoiseMatrix(5, 16_384, LONG)
    sample = benchmark.pedantic(
        simulate_weighted, args=(HIGH, LONG, noise), kwargs={"workers": workers},
        rounds=5, warmup_rounds=1,
    )
    assert np.isfinite(sample.log_weight).all()


def test_euler_ckls(benchmark):
    """The Euler kernel and the (values, exits) arrays of euler_ckls at the
    export size."""
    grid = TimeGrid(0.5, 32)
    dW = NoiseMatrix(5, 5000, grid).increments()
    values, exits = benchmark.pedantic(euler_ckls, args=(HIGH, grid, dW), rounds=5, warmup_rounds=1)
    assert values.shape == (5000, 33) and exits.shape == (5000,)


def test_euler_auxiliary(benchmark):
    """The gamma > 1 auxiliary run, under the "run-off" boundary rule, and
    its (values, exits) arrays at the export size."""
    grid = TimeGrid(0.5, 32)
    dW = NoiseMatrix(5, 5000, grid).increments()
    values, exits = benchmark.pedantic(euler_auxiliary, args=(HIGH, grid, dW), rounds=5, warmup_rounds=1)
    assert values.shape == (5000, 33) and exits.shape == (5000,)


@pytest.mark.parametrize("fn", [noncentral_pdf, noncentral_cdf], ids=["pdf", "cdf"])
@pytest.mark.parametrize("df", [1.0, 4.0])
def test_ncx2(benchmark, fn, df):
    d = NoncentralChiSq(df, 14.4533)
    xs = np.linspace(0.01, 60.0, 10_000)
    out = benchmark.pedantic(fn, args=(d, xs), rounds=20, warmup_rounds=1)
    assert out.shape == xs.shape


@pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
def test_explicit_rate(benchmark, p):
    """25 000 closed-form rate draws at t = 1, as in the law workload."""
    z = np.random.default_rng([5, 0]).standard_normal(25_000)
    out = benchmark.pedantic(explicit_rate, args=(p, 1.0, z), rounds=20, warmup_rounds=1)
    assert out.shape == z.shape


@pytest.mark.parametrize("rule", ["derived", "paper"])
def test_ks_statistic(benchmark, rule):
    """The KS statistic of 25 000 sorted closed-form draws against the rate
    law, as in the law workload: HIGH at C = 2, t = 1."""
    tr = make_transform(HIGH, 2.0)
    spec = transition_spec(HIGH, derive_cir(HIGH, tr), 1.0, delta_rule=rule)
    draws = np.sort(explicit_rate(HIGH, 1.0, np.random.default_rng([5, 0]).standard_normal(25_000)))
    res = benchmark.pedantic(
        ks_statistic, args=(draws, lambda x: rate_cdf(HIGH, tr, spec, x)), rounds=20, warmup_rounds=1,
    )
    assert 0 < res.cdf_points <= draws.size


@pytest.mark.parametrize("writer", [write_paths_csv, write_paths_binary], ids=["csv", "binary"])
@pytest.mark.parametrize("n_paths,n_points", [(5000, 33), (2000, 513), (20_000, 1)], ids=lambda n: str(n))
def test_path_writer(benchmark, writer, n_paths, n_points, tmp_path):
    """Euler-like paths at the export shape, on a long grid and at one time
    (the last of a one-step grid): a CSV block sets its path ids once per
    grid time, so the three shapes sit on either side of that cost."""
    grid = TimeGrid(0.5, max(n_points - 1, 1))
    values = np.abs(NoiseMatrix(5, n_paths, grid).increments()).cumsum(axis=1)
    values = np.hstack([np.ones((n_paths, 1)), values])[:, -n_points:]
    args = (tmp_path / "paths", grid.times[-n_points:], values)
    benchmark.pedantic(writer, args=args, rounds=5, warmup_rounds=1)
    assert (tmp_path / "paths").stat().st_size > 0


def _fresh_python(*args):
    """Run python with ckls on its path in a new process; fail on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)


def test_cold_import(benchmark):
    benchmark.pedantic(_fresh_python, args=("-c", "import ckls, ckls.cli"), rounds=5, warmup_rounds=1)


def _high_config(tmp_path, n_steps: int, n_paths: int, seed: int) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0},
        "grid": {"t_end": 0.5, "n_steps": n_steps},
        "n_paths": n_paths,
        "seed": seed,
    }))
    return str(cfg)


def test_cold_simulate(benchmark, tmp_path):
    argv = ("-m", "ckls.cli", "--config", _high_config(tmp_path, 16, 200, 5),
            "--out", str(tmp_path / "paths.csv"), "simulate", "--mode", "euler-p")
    benchmark.pedantic(_fresh_python, args=argv, rounds=5, warmup_rounds=1)
    assert (tmp_path / "paths.csv").stat().st_size > 0


def test_cold_verify(benchmark, tmp_path):
    """The default suite's checks size their own runs (100k paths), so the
    config's grid and path count do not enter; C is left at its default,
    1 on HIGH."""
    argv = ("-m", "ckls.cli", "--config", _high_config(tmp_path, 512, 100_000, 42),
            "--out", str(tmp_path / "report.json"), "verify", "--suite", "default")
    benchmark.pedantic(_fresh_python, args=argv, rounds=1, warmup_rounds=0)
    assert json.loads((tmp_path / "report.json").read_text())["checks"]
