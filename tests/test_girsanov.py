"""Drift adjustment, weight accumulation and measure-consistency estimators."""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ckls import (
    CklsParams,
    DegenerateTransform,
    DegenerateWeights,
    DomainError,
    InputError,
    NoiseMatrix,
    TimeGrid,
    derive_cir,
    drift_adjustment,
    engine,
    euler_ckls,
    make_transform,
    simulate_weighted,
    transition_spec,
)
from ckls.analysis import ks_statistic
from ckls.engine import auxiliary_drift, ckls_diffusion, ckls_drift
from ckls.girsanov import WeightedEstimate, _Weight, _times_exp, weighted_expectation_arrays
from ckls.numerics import stable_phi
from noise_v1 import NoiseV1

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)


class TestDriftAdjustment:
    def test_high_gamma_substitution(self):
        # q(1) = 2b/sigma + gamma sigma/2 - a/sigma = 0.4 + 0.75 - 1
        p = CklsParams(a=1.0, b=0.2, sigma=1.0, gamma=1.5, r0=1.0)
        assert drift_adjustment(p, 1.0) == pytest.approx(0.15, rel=1e-15)

    def test_low_gamma_sign_flip(self):
        # q(1) = 0.4 + 0.375 - 1: the same formula on the low branch
        p = CklsParams(a=1.0, b=0.2, sigma=1.0, gamma=0.75, r0=1.0)
        assert drift_adjustment(p, 1.0) == pytest.approx(-0.225, rel=1e-15)

    def test_errors(self):
        with pytest.raises(DomainError):
            drift_adjustment(HIGH, 0.0)
        p1 = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.0, r0=1.0)
        with pytest.raises(DegenerateTransform):
            drift_adjustment(p1, 1.0)

    @pytest.mark.parametrize("gamma", [sp.Rational(3, 2), sp.Rational(3, 4)])
    def test_adjusted_drift_symbolic_expansion(self, gamma):
        """Symbolic oracle: a - b x + q(x) sigma x^gamma collapses to the
        drift the closed-form solution solves, b x + gamma sigma^2/2
        x^(2 gamma - 1), on both branches (the constant-a term cancels)."""
        x, a, b, sig = sp.symbols("x a b sigma", positive=True)
        q = (
            2 * b / sig * x ** (1 - gamma)
            + gamma * sig / 2 * x ** (gamma - 1)
            - a / sig * x ** (-gamma)
        )
        adjusted = a - b * x + q * sig * x**gamma
        expected = b * x + gamma * sig**2 / 2 * x ** (2 * gamma - 1)
        assert sp.simplify(adjusted - expected) == 0

    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_adjusted_drift_matches_auxiliary_on_grid(self, p):
        xs = np.geomspace(0.05, 20.0, 50)
        adjusted = p.a - p.b * xs + drift_adjustment(p, xs) * p.sigma * xs**p.gamma
        np.testing.assert_allclose(adjusted, auxiliary_drift(p, "derived")(xs), rtol=1e-12)


EPS = 2.0**-52


class TestOnePowerAccuracy:
    """ckls_diffusion as (sigma x^(gamma-1)) x and q from s = sigma
    x^(gamma-1), against 40-digit mpmath.  Measured on 40 000 random draws
    of this domain (sigma in [0.05, 3], a in [0.01, 5], b in [-2, 5]), in
    units of EPS = 2^-52: the diffusion's worst relative error was 1.29
    (0.92 for the sigma x^gamma it replaced), and q's worst error relative
    to |2b/s| + |a/(x s)| + |gamma s/2| was 2.06 (2.06 for q from its own
    power).  Rounding analysis bounds them by 1.5 and 3 (pow within one
    half ulp plus a little, each other operation a half ulp); the bounds
    below are 2 and 4, about 1.5 and 1.9 times the measured worst."""

    @staticmethod
    def params(gamma, sigma, a, b):
        return CklsParams(a=a, b=b, sigma=sigma, gamma=gamma, r0=1.0)

    domain = dict(
        gamma=st.floats(0.55, 0.99) | st.floats(1.01, 3.0) | st.sampled_from([0.75, 1.5, 2.5]),
        x=st.floats(1e-12, 1e6),
        sigma=st.floats(0.05, 3.0),
        a=st.floats(0.01, 5.0),
        b=st.floats(-2.0, 5.0),
    )

    @settings(max_examples=300, deadline=None)
    @given(**domain)
    def test_diffusion(self, gamma, x, sigma, a, b):
        got = ckls_diffusion(self.params(gamma, sigma, a, b))(np.array([x]))[0]
        with mpmath.workdps(40):
            exact = mpmath.mpf(sigma) * mpmath.mpf(x) ** mpmath.mpf(gamma)
            assert abs((got - exact) / exact) <= 2 * EPS

    @settings(max_examples=300, deadline=None)
    @given(**domain)
    def test_drift_adjustment(self, gamma, x, sigma, a, b):
        got = drift_adjustment(self.params(gamma, sigma, a, b), np.array([x]))[0]
        with mpmath.workdps(40):
            x_, g_, s_, a_, b_ = (mpmath.mpf(v) for v in (x, gamma, sigma, a, b))
            s = s_ * x_ ** (g_ - 1)
            exact = (2 * b_ - a_ / x_) / s + g_ / 2 * s
            scale = abs(2 * b_ / s) + abs(a_ / (x_ * s)) + abs(g_ * s / 2)
            assert abs(got - exact) <= 4 * EPS * scale


class ConstantNoise(NoiseMatrix):
    """Every increment 0.0."""

    def increments(self, lo=0, hi=None):
        hi = self.n_paths if hi is None else hi
        return np.zeros((hi - lo, self.grid.n_steps))


def left_point_weight(p, values, dW, dt):
    """The log weight and dt sum q^2 of one path, summed along its
    stored values: q(r_k) at the state before each step."""
    q = drift_adjustment(p, values[:-1])
    q_int = float(np.sum(q * q) * dt)
    return float(np.sum(q * dW) - 0.5 * q_int), q_int


class TestAccumulateWeight:
    """The per-path weight simulate_weighted accumulates, on edge inputs
    and along the paths of euler_ckls."""

    def test_empty_integral_gives_unit_weight(self):
        """No step: a grid has one at least, so the weight observer ends
        unstepped."""
        run = _Weight(HIGH, 1.0, 1).end(np.full(1, HIGH.r0))
        assert run["log_weight"][0] == 0.0 and run["q_integral_sq"][0] == 0.0

    def test_zero_noise_gives_negative_log_weight(self):
        grid = TimeGrid(0.5, 32)
        s = simulate_weighted(HIGH, grid, ConstantNoise(1, 1, grid))
        assert s.log_weight[0] == pytest.approx(-0.5 * s.q_integral_sq[0], rel=1e-15)
        assert s.log_weight[0] < 0.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            weighted_expectation_arrays(np.zeros(8), np.zeros(7))

    def test_matches_fused_streaming_run(self):
        """Dual route: accumulation along euler_ckls' stored paths against
        the fused block runner on the same noise."""
        grid = TimeGrid(0.5, 64)
        noise = NoiseMatrix(61, 50, grid)
        fused = simulate_weighted(LOW, grid, noise)
        dW = noise.increments()
        values, _ = euler_ckls(LOW, grid, dW)
        for i in (0, 17, 49):
            log_weight, q_int = left_point_weight(LOW, values[i], dW[i], grid.dt)
            assert log_weight == pytest.approx(fused.log_weight[i], rel=1e-12)
            assert q_int == pytest.approx(fused.q_integral_sq[i], rel=1e-12)
            assert values[i, -1] == pytest.approx(fused.terminal_rate[i], rel=1e-14)


class TestWeightedExpectation:
    def test_to_dict_lists_every_field_in_order(self):
        est = WeightedEstimate(
            estimate=1.5, std_error=0.1, raw_estimate=1.4, raw_std_error=0.2, ess=90.0,
            n_paths=100,
        )
        d = est.to_dict()
        assert list(d) == [
            "estimate", "std_error", "raw_estimate", "raw_std_error", "ess", "n_paths",
        ]
        assert WeightedEstimate(**d) == est

    @pytest.mark.parametrize("m", [0.0, 800.0, math.inf, -math.inf])
    def test_times_exp_of_zero_is_zero(self, m):
        """0 e^m is 0 even where e^m overflows: never 0 * inf = NaN."""
        assert _times_exp(0.0, m) == 0.0

    def test_unit_weights_reduce_to_plain_mean(self):
        phi = np.array([0.3, 1.7, 2.1, -0.4, 0.9])
        est = weighted_expectation_arrays(np.zeros(5), phi)
        assert est.estimate == pytest.approx(phi.mean(), rel=1e-14)
        assert est.raw_estimate == pytest.approx(phi.mean(), rel=1e-14)
        assert est.ess == pytest.approx(5.0, rel=1e-14)

    def test_constant_functional_reproduces_martingale_check(self):
        logw = np.random.default_rng(2).normal(-0.02, 0.2, 500)
        est = weighted_expectation_arrays(logw, np.ones(500))
        assert est.raw_estimate == pytest.approx(np.exp(logw).mean(), rel=1e-14)
        assert est.estimate == pytest.approx(1.0, rel=1e-14)  # self-normalized

    def test_path_functional_interface(self):
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(HIGH, grid, NoiseMatrix(3, 20, grid))
        est = weighted_expectation_arrays(s.log_weight, s.terminal_rate)
        assert est.n_paths == 20 and math.isfinite(est.estimate)

    @given(
        logw=arrays(np.float64, st.integers(2, 50), elements=st.floats(-30.0, 30.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shift_invariance(self, logw, seed):
        """Moving every log weight by 800 leaves the self-normalised
        estimate, its SE and the ESS alone, and the raw estimate finite
        or infinite but never NaN."""
        phi = np.random.default_rng(seed).normal(1.0, 0.5, logw.size)
        base = weighted_expectation_arrays(logw, phi)
        moved = weighted_expectation_arrays(logw + 800.0, phi)
        # absolute slack for estimates that cancel to near 0
        tol = 1e-12 * np.max(np.abs(phi))
        assert moved.estimate == pytest.approx(base.estimate, rel=1e-12, abs=tol)
        assert moved.std_error == pytest.approx(base.std_error, rel=1e-12, abs=tol)
        assert moved.ess == pytest.approx(base.ess, rel=1e-12)
        for est in (moved.raw_estimate, moved.raw_std_error):
            assert not math.isnan(est)
        raw = np.exp(logw) * phi
        assert base.raw_estimate == pytest.approx(
            raw.mean(), rel=1e-12, abs=1e-12 * np.abs(raw).max()
        )

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            weighted_expectation_arrays(np.full(4, -np.inf), np.ones(4))

    def test_empty_input(self):
        with pytest.raises(InputError):
            weighted_expectation_arrays([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_infinite_log_weight_rejected(self, bad):
        with pytest.raises(InputError, match="log weights"):
            weighted_expectation_arrays(np.array([0.0, bad, 0.5]), np.ones(3))

    def test_nan_phi_rejected(self):
        with pytest.raises(InputError, match="phi"):
            weighted_expectation_arrays(np.zeros(3), np.array([1.0, math.nan, 2.0]))

    def test_minus_infinite_log_weight_is_a_zero_weight(self):
        phi = np.array([1.0, 5.0, 3.0])
        got = weighted_expectation_arrays(np.array([0.0, -math.inf, 0.0]), phi)
        assert got.estimate == 2.0 and got.ess == 2.0 and got.n_paths == 3

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="do not match"):
            weighted_expectation_arrays(np.zeros(5), np.ones((5, 1)))


class TestNovikovDiagnostic:
    """The Novikov integral dt sum q^2 of simulate_weighted, which
    check_martingale reports by its mean and standard error."""

    def test_zero_horizon_estimate_is_zero(self):
        """No step, as in TestAccumulateWeight: the observer ends unstepped."""
        run = _Weight(HIGH, 1.0, 2).end(np.full(2, HIGH.r0))
        np.testing.assert_array_equal(run["q_integral_sq"], [0.0, 0.0])

    def test_stable_across_dt_refinement_case_ii(self):
        """E int q^2 ds agrees between dt = 2^-9 and 2^-10 within combined
        3 SE for a second-case parameter set."""
        t = 0.5
        ests = []
        for n_steps in (256, 512):  # dt = 2^-9, 2^-10 over t = 0.5
            grid = TimeGrid(t, n_steps)
            s = simulate_weighted(HIGH, grid, NoiseMatrix(71, 20_000, grid))
            n = s.q_integral_sq.size
            ests.append(
                (s.q_integral_sq.mean(), s.q_integral_sq.std(ddof=1) / math.sqrt(n))
            )
        gap = abs(ests[0][0] - ests[1][0])
        assert gap <= 3.0 * math.hypot(ests[0][1], ests[1][1])

    def test_hypothesis_violating_set_still_reports(self):
        """gamma = 2.5 sits outside every bound hypothesis; the diagnostic
        stays computable and is reported, never asserted."""
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.5, r0=1.0)
        grid = TimeGrid(0.25, 64)
        s = simulate_weighted(p, grid, NoiseMatrix(73, 2000, grid))
        est = s.q_integral_sq[:50].mean()
        assert math.isfinite(est) and est >= 0.0
        assert math.isfinite(s.q_integral_sq.mean())


class TestMartingaleProperty:
    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_unit_expectation_quick(self, p):
        # desk-scale version; the full-size run lives in the acceptance suite
        grid = TimeGrid(0.5, 256)
        s = simulate_weighted(p, grid, NoiseMatrix(79, 20_000, grid))
        w = s.weights()
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 3.0 * se


def weighted_sample_digest(s) -> str:
    h = hashlib.sha256()
    for a in (s.terminal_rate, s.log_weight, s.q_integral_sq):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(str(s.truncations).encode())
    return h.hexdigest()


def test_simulate_weighted_rejects_gamma_one():
    grid = TimeGrid(0.5, 4)
    p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.0, r0=1.0)
    with pytest.raises(DegenerateTransform, match="gamma != 1"):
        simulate_weighted(p, grid, NoiseMatrix(1, 3, grid))


class TestGoldenWeightedSample:
    """SHA-256 of fixed-seed simulate_weighted arrays on noise rule v1,
    first recorded before the noise rows were seeded in bulk, re-recorded
    when the step came to take one power (see tests/test_golden.py,
    TestOneEulerPowerAgainstOldStep): any change to the noise bits, the
    kernel or the block stitching changes the digest.  The v1 rows are
    built in the tests (NoiseV1), as the README's recipe builds them."""

    GOLDEN = {
        "high": "54c48b2d7019e993ba4ebd47b16b89fdbac04da9a4d09b43dc814a6ec5127eff",
        "low": "c185b5bdad87f06ecce8468f54783152fa530b60f28e4560154c2480ccf6babe",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_digest(self, name, p, workers, monkeypatch):
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: 1024)
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(p, grid, NoiseV1(2024, 3000, grid), workers=workers)
        assert weighted_sample_digest(s) == self.GOLDEN[name]

    def test_readme_recipe(self, monkeypatch):
        """The README's v1 recipe, run as printed, gives the HIGH digest."""
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: 1024)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = [b.split("```")[0] for b in readme.split("```python\n")[1:]]
        (recipe,) = [b for b in blocks if "class NoiseV1(" in b]
        scope: dict = {}
        exec(recipe, scope)
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(HIGH, grid, scope["NoiseV1"](2024, 3000, grid))
        assert weighted_sample_digest(s) == self.GOLDEN["high"]


class TestGoldenWeightedSampleV2:
    """The same digest on the default noise rule v2, recorded when v2 was
    introduced and re-recorded with the one-power step.  A thread block of 333 rows cuts the 1024-row stream
    blocks, and must give the same bits as whole stream blocks."""

    GOLDEN = {
        "high": "95b5ed6ae36dc700e30f33191674890a3ed0a6f2f46b9ab769c461a8caab8785",
        "low": "94af8b4dccfdd82f4f7c9887a4d74f1af6146489d53623ef788d5d14988d226f",
    }

    @pytest.mark.parametrize("block_size", [1024, 333])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_digest(self, name, p, workers, block_size, monkeypatch):
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: block_size)
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(p, grid, NoiseMatrix(2024, 3000, grid), workers=workers)
        assert weighted_sample_digest(s) == self.GOLDEN[name]


class CraftedNoise(NoiseMatrix):
    """Every increment 0.01, except one huge increment on path 0 at step 3."""

    def increments(self, lo=0, hi=None):
        hi = self.n_paths if hi is None else hi
        out = np.full((hi - lo, self.grid.n_steps), 0.01)
        if lo == 0:
            out[0, 3] = 1e300
        return out


@dataclass(frozen=True)
class EdgeNoise(NoiseMatrix):
    """Every increment 0.01, except at step edge_step: NaN on path 0 and
    -10 on path 1, which takes a rate near 1 to about -4."""

    edge_step: int = 0

    def increments(self, lo=0, hi=None):
        hi = self.n_paths if hi is None else hi
        out = np.full((hi - lo, self.grid.n_steps), 0.01)
        if lo == 0:
            out[0, self.edge_step] = np.nan
            out[1, self.edge_step] = -10.0
        return out


def reference_weighted_run(p, dt, dW):
    """The weighted Euler step composed from drift_adjustment, ckls_drift
    and ckls_diffusion with whole-array expressions, one column of dW per
    step: running sums of q dW and q^2, the weight formed at the end."""
    drift, diffusion = ckls_drift(p), ckls_diffusion(p)
    r = np.full(dW.shape[0], p.r0)
    q_dw, q_sq, trunc = np.zeros_like(r), np.zeros_like(r), 0
    for k in range(dW.shape[1]):
        q = drift_adjustment(p, r)
        q_dw += q * dW[:, k]
        q_sq += q * q
        r = r + drift(r) * dt + diffusion(r) * dW[:, k]
        trunc += int(np.sum(r < 1e-12))
        r = np.where(r < 1e-12, 1e-12, r)
    q_int = dt * q_sq
    return r, q_dw - 0.5 * q_int, q_int, trunc


class TestKernelAgainstReference:
    @pytest.mark.parametrize("n_steps", [1, 7, 8, 13, 24])
    @pytest.mark.parametrize("p", [
        HIGH, LOW, CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01),
        CklsParams(a=0.3, b=-0.4, sigma=1.2, gamma=1.25, r0=0.2),
    ])
    def test_bit_identical(self, p, n_steps, monkeypatch):
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: 1000)
        grid = TimeGrid(0.5, n_steps)
        noise = NoiseMatrix(17, 2500, grid)
        s = simulate_weighted(p, grid, noise, workers=2)
        r, lw, q_int, trunc = reference_weighted_run(p, grid.dt, noise.increments())
        np.testing.assert_array_equal(s.terminal_rate, r)
        np.testing.assert_array_equal(s.log_weight, lw)
        np.testing.assert_array_equal(s.q_integral_sq, q_int)
        assert s.truncations == trunc


class TestNonFiniteWeightedPaths:
    """The increment 1e300 takes path 0 to about 7e299 at step 3, to +inf
    at step 4 (sigma r^1.5 overflows) and to NaN at step 5 (inf - inf);
    path 1 is not touched by it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_then_nan_is_returned(self):
        for n_steps, expect in ((5, np.inf), (6, np.nan)):
            grid = TimeGrid(0.5, n_steps)
            s = simulate_weighted(HIGH, grid, CraftedNoise(1, 2, grid))
            np.testing.assert_array_equal(s.terminal_rate[:1], [expect])
            assert np.isfinite(s.terminal_rate[1]) and np.isfinite(s.log_weight[1])
            assert s.truncations == 0
        assert np.isnan(s.log_weight[0]) and s.q_integral_sq[0] == np.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rate_raises_at_the_next_step(self):
        grid = TimeGrid(0.5, 7)
        with pytest.raises(DomainError):
            simulate_weighted(HIGH, grid, CraftedNoise(1, 2, grid))

    @pytest.mark.parametrize("n_steps", [6, 9])
    def test_nan_and_floor_in_the_last_step(self, n_steps):
        """Path 0 turns NaN and path 1 lands below the floor in the same,
        last step: the NaN is returned, and path 1 is still clamped and
        counted."""
        grid = TimeGrid(0.5, n_steps)
        s = simulate_weighted(HIGH, grid, EdgeNoise(1, 3, grid, edge_step=n_steps - 1))
        assert np.isnan(s.terminal_rate[0]) and np.isnan(s.log_weight[0])
        assert np.isfinite(s.q_integral_sq[0])
        assert s.terminal_rate[1] == 1e-12 and np.isfinite(s.log_weight[1])
        assert np.isfinite(s.terminal_rate[2])
        assert s.truncations == 1

    @pytest.mark.parametrize("n_steps,edge_step", [(6, 2), (9, 0), (9, 7)])
    def test_nan_and_floor_in_an_inner_step(self, n_steps, edge_step):
        """The same edge before the last step raises at the next step."""
        grid = TimeGrid(0.5, n_steps)
        noise = EdgeNoise(1, 3, grid, edge_step=edge_step)
        with pytest.raises(DomainError, match=f"before step {edge_step + 1}$"):
            simulate_weighted(HIGH, grid, noise)

    def test_clamp_count_matches_euler(self, monkeypatch):
        """On a set that clamps, the kernel clamps the same steps as
        euler_ckls on the same rows, and ends in the same states."""
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: 1000)
        p = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)
        grid = TimeGrid(0.5, 16)
        noise = NoiseMatrix(3, 3000, grid)
        s = simulate_weighted(p, grid, noise, workers=2)
        values, exits = euler_ckls(p, grid, noise)
        assert s.truncations == exits.sum() == 69
        np.testing.assert_array_equal(s.terminal_rate, values[:, -1])


class TestPushforwardLaw:
    def _weighted_pushforward(self, p, c, t, n_steps, n_paths, seed):
        grid = TimeGrid(t, n_steps)
        sample = simulate_weighted(p, grid, NoiseMatrix(seed, n_paths, grid))
        tr = make_transform(p, c)
        levels = tr.f(sample.terminal_rate)
        order = np.argsort(levels)
        return tr, levels[order], np.exp(sample.log_weight[order])

    def test_low_gamma_pushforward_matches_sign_corrected_law(self):
        """The law with the sign of the mean-reversion speed flipped in the
        exponents -- the law the printed kernel leads to -- is rejected by
        the KS test on the weighted empirical law of the transformed
        terminal level, so the test tells the two candidate laws apart."""
        from ckls.distribution import NoncentralChiSq, noncentral_cdf

        t = 0.5
        tr, levels, w = self._weighted_pushforward(LOW, 0.5, t, 256, 30_000, 83)
        cir = derive_cir(LOW, tr)
        scale = cir.vol**2 / 4.0 * stable_phi(-cir.drift_lin, t)
        nonc = cir.y0 * math.exp(-cir.drift_lin * t) / scale
        d = NoncentralChiSq(df=1.0, nonc=nonc)
        res = ks_statistic(levels, lambda x: noncentral_cdf(d, np.asarray(x) / scale), w)
        assert res.statistic > res.critical_1pct

    def test_low_gamma_pushforward_matches_printed_law(self):
        """The weighted empirical law of the transformed terminal level
        agrees with the closed-form noncentral chi-square transition law."""
        from ckls.distribution import NoncentralChiSq, noncentral_cdf

        t = 0.5
        tr, levels, w = self._weighted_pushforward(LOW, 0.5, t, 256, 30_000, 83)
        cir = derive_cir(LOW, tr)
        spec = transition_spec(LOW, cir, t, "derived")
        d = NoncentralChiSq(df=spec.df, nonc=spec.nonc)
        res = ks_statistic(
            levels, lambda x: noncentral_cdf(d, np.asarray(x) / spec.scale), w
        )
        assert res.statistic < res.critical_1pct

    def test_high_gamma_pushforward_matches_auxiliary_simulation(self):
        """Independent cross-check of the change-of-measure identity: the
        weighted base-measure estimate of the transformed level equals a
        direct simulation of the drift-adjusted dynamics."""
        from ckls.engine import euler_values, ckls_diffusion

        t, n_steps, n = 0.5, 256, 30_000
        tr, levels, w = self._weighted_pushforward(HIGH, 1.0, t, n_steps, n, 89)
        est = weighted_expectation_arrays(np.log(w), levels)
        grid = TimeGrid(t, n_steps)
        dW = NoiseMatrix(97, n, grid).increments()
        vals, _ = euler_values(
            auxiliary_drift(HIGH, "derived"), ckls_diffusion(HIGH), HIGH.r0, grid, dW,
            boundary="run-off",
        )
        aux = tr.f(vals[:, -1])
        gap = abs(est.estimate - aux.mean())
        se = math.hypot(est.std_error, aux.std(ddof=1) / math.sqrt(n))
        assert gap <= 3.0 * se
