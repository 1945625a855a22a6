"""Per-layer timings with pytest-benchmark; opt-in, outside tier-1.

    python -m pytest benchmarks --benchmark-json BENCH.json

Each layer is timed on its own, at the sizes of the benchmark workloads:
noise generation, the Euler-weight kernel on noise drawn beforehand, the
noncentral chi-square pdf and CDF, and the two path writers.  Rounds are
fixed so a full run takes well under a minute.
"""

import functools

import numpy as np
import pytest

from ckls import CklsParams, NoiseMatrix, TimeGrid, simulate_weighted
from ckls.distribution import NoncentralChiSq, noncentral_cdf, noncentral_pdf
from ckls.pathio import write_paths_binary, write_paths_csv

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("grid,n_paths", [(SHORT, 50_000), (LONG, 16_384)], ids=["16-steps", "512-steps"])
def test_weighted_kernel(benchmark, grid, n_paths, workers):
    noise = PreDrawn(5, n_paths, grid)
    sample = benchmark.pedantic(
        simulate_weighted, args=(HIGH, grid, noise), kwargs={"workers": workers},
        rounds=5, warmup_rounds=1,
    )
    assert np.isfinite(sample.log_weight).all()


@pytest.mark.parametrize("fn", [noncentral_pdf, noncentral_cdf], ids=["pdf", "cdf"])
@pytest.mark.parametrize("df", [1.0, 4.0])
def test_ncx2(benchmark, fn, df):
    d = NoncentralChiSq(df, 14.4533)
    xs = np.linspace(0.01, 60.0, 10_000)
    out = benchmark.pedantic(fn, args=(d, xs), rounds=20, warmup_rounds=1)
    assert out.shape == xs.shape


@pytest.mark.parametrize("writer", [write_paths_csv, write_paths_binary], ids=["csv", "binary"])
def test_path_writer(benchmark, writer, tmp_path):
    grid = TimeGrid(0.5, 32)
    values = np.abs(NoiseMatrix(5, 5000, grid).increments()).cumsum(axis=1)
    values = np.hstack([np.ones((5000, 1)), values])
    benchmark.pedantic(writer, args=(tmp_path / "paths", grid.times, values), rounds=5, warmup_rounds=1)
    assert (tmp_path / "paths").stat().st_size > 0
