"""Drift adjustment, weight accumulation and measure-consistency estimators."""

import hashlib
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ckls import (
    CklsParams,
    DegenerateTransform,
    DegenerateWeights,
    DomainError,
    InputError,
    NoiseMatrix,
    Path,
    TimeGrid,
    accumulate_weight,
    derive_cir,
    drift_adjustment,
    euler_ckls,
    make_transform,
    novikov_diagnostic,
    simulate_weighted,
    transition_spec,
    weighted_expectation,
)
from ckls.analysis import ks_statistic
from ckls.engine import auxiliary_drift
from ckls.girsanov import weighted_expectation_arrays
from ckls.numerics import stable_phi

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


class TestAccumulateWeight:
    def test_empty_integral_gives_unit_weight(self):
        path = Path(TimeGrid(1.0, 1), np.array([HIGH.r0]))
        wp = accumulate_weight(HIGH, path, np.array([]))
        assert wp.log_weight == 0.0 and wp.q_integral_sq == 0.0

    def test_zero_noise_gives_negative_log_weight(self):
        grid = TimeGrid(0.5, 32)
        path = euler_ckls(HIGH, grid, np.zeros((1, 32)))[0]
        wp = accumulate_weight(HIGH, path, np.zeros(32))
        assert wp.log_weight == pytest.approx(-0.5 * wp.q_integral_sq, rel=1e-15)
        assert wp.log_weight < 0.0

    def test_length_mismatch(self):
        grid = TimeGrid(0.5, 8)
        path = euler_ckls(HIGH, grid, np.zeros((1, 8)))[0]
        with pytest.raises(InputError):
            accumulate_weight(HIGH, path, np.zeros(7))

    def test_matches_fused_streaming_run(self):
        """Dual route: per-path accumulation against the fused block
        runner, bit-for-bit on the same noise."""
        grid = TimeGrid(0.5, 64)
        noise = NoiseMatrix(61, 50, grid)
        fused = simulate_weighted(LOW, grid, noise)
        dW = noise.increments()
        paths = euler_ckls(LOW, grid, dW)
        for i in (0, 17, 49):
            wp = accumulate_weight(LOW, paths[i], dW[i])
            assert wp.log_weight == pytest.approx(fused.log_weight[i], rel=1e-12)
            assert wp.q_integral_sq == pytest.approx(fused.q_integral_sq[i], rel=1e-12)
            assert paths[i].values[-1] == pytest.approx(fused.terminal_rate[i], rel=1e-14)


class TestWeightedExpectation:
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
        noise = NoiseMatrix(3, 20, grid)
        dW = noise.increments()
        paths = euler_ckls(HIGH, grid, dW)
        wpaths = [accumulate_weight(HIGH, paths[i], dW[i]) for i in range(20)]
        est = weighted_expectation(wpaths, lambda path: path.values[-1])
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
            weighted_expectation([], lambda path: 1.0)


class TestNovikovDiagnostic:
    def test_zero_horizon_estimate_is_zero(self):
        path = Path(TimeGrid(1.0, 1), np.array([HIGH.r0]))
        wp = accumulate_weight(HIGH, path, np.array([]))
        est = novikov_diagnostic(HIGH, [wp, wp])
        assert est.estimate == 0.0

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
        dW = NoiseMatrix(73, 2000, grid).increments()
        paths = euler_ckls(p, grid, dW[:50])
        wpaths = [accumulate_weight(p, paths[i], dW[i]) for i in range(50)]
        est = novikov_diagnostic(p, wpaths)
        assert math.isfinite(est.estimate) and est.estimate >= 0.0
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


class TestGoldenWeightedSample:
    """SHA-256 of fixed-seed simulate_weighted arrays on noise rule v1,
    recorded before the noise rows were seeded in bulk: any change to the
    noise bits, the kernel or the block stitching changes the digest."""

    GOLDEN = {
        "high": "e8f5abd432c6a1157e222c67fd6b5dd3bfba9dfe7b6739c137484d2cbc1ee6fc",
        "low": "0a12e0e7c0db2109ed5dcb2e23e8ec96f0d2cc13d7010ee8f2c8730a76f4abbd",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_digest(self, name, p, workers):
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(
            p, grid, NoiseMatrix(2024, 3000, grid, stream=1), workers=workers,
            block_size=1024,
        )
        assert weighted_sample_digest(s) == self.GOLDEN[name]


class TestGoldenWeightedSampleV2:
    """The same digest on the default noise rule v2, recorded when v2 was
    introduced.  A thread block of 333 rows cuts the 1024-row stream
    blocks, and must give the same bits as whole stream blocks."""

    GOLDEN = {
        "high": "a06937bbfd95d852d851fbf7ac7ce9e2726bf10e04065e5362f70a832916c686",
        "low": "732f6b8116c53a18d3bb8576890d8621116ffc7bde2a24d1abeea9ce05831cc9",
    }

    @pytest.mark.parametrize("block_size", [1024, 333])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_digest(self, name, p, workers, block_size):
        grid = TimeGrid(0.5, 16)
        s = simulate_weighted(
            p, grid, NoiseMatrix(2024, 3000, grid), workers=workers, block_size=block_size
        )
        assert weighted_sample_digest(s) == self.GOLDEN[name]


class CraftedNoise(NoiseMatrix):
    """Every increment 0.01, except one huge increment on path 0 at step 3."""

    def increments(self, lo=0, hi=None):
        hi = self.n_paths if hi is None else hi
        out = np.full((hi - lo, self.grid.n_steps), 0.01)
        if lo == 0:
            out[0, 3] = 1e300
        return out


def reference_weighted_run(p, dt, dW):
    """The weighted Euler step written out with whole-array expressions,
    one column of dW per step."""
    r = np.full(dW.shape[0], p.r0)
    lw, q_int, trunc = np.zeros_like(r), np.zeros_like(r), 0
    for k in range(dW.shape[1]):
        q = drift_adjustment(p, r)
        q_sq_dt = q * q * dt
        lw += q * dW[:, k] - 0.5 * q_sq_dt
        q_int += q_sq_dt
        r = r + (p.a - p.b * r) * dt + p.sigma * r**p.gamma * dW[:, k]
        trunc += int(np.sum(r < 1e-12))
        r = np.where(r < 1e-12, 1e-12, r)
    return r, lw, q_int, trunc


class TestKernelAgainstReference:
    @pytest.mark.parametrize("n_steps", [1, 7, 8, 13, 24])
    @pytest.mark.parametrize("p", [
        HIGH, LOW, CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01),
        CklsParams(a=0.3, b=-0.4, sigma=1.2, gamma=1.25, r0=0.2),
    ])
    def test_bit_identical(self, p, n_steps):
        grid = TimeGrid(0.5, n_steps)
        noise = NoiseMatrix(17, 2500, grid)
        s = simulate_weighted(p, grid, noise, workers=2, block_size=1000)
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

    def test_clamp_count_matches_euler(self):
        """On a set that clamps, the kernel clamps the same steps as
        euler_ckls on the same rows, and ends in the same states."""
        p = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)
        grid = TimeGrid(0.5, 16)
        noise = NoiseMatrix(3, 3000, grid)
        s = simulate_weighted(p, grid, noise, workers=2, block_size=1000)
        paths = euler_ckls(p, grid, noise)
        assert s.truncations == sum(path.truncations for path in paths) == 69
        np.testing.assert_array_equal(s.terminal_rate, [path.values[-1] for path in paths])


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
            auxiliary_drift(HIGH, "derived"), ckls_diffusion(HIGH), HIGH.r0, grid.dt, dW,
            exit_to_inf=True,
        )
        aux = tr.f(vals[:, -1])
        gap = abs(est.estimate - aux.mean())
        se = math.hypot(est.std_error, aux.std(ddof=1) / math.sqrt(n))
        assert gap <= 3.0 * se
