"""Closed-form moments, integral-inequality bounds, scale function, KS."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from ckls import (
    CklsParams,
    DomainError,
    InputError,
    MomentCase,
    RegimeError,
    gronwall_bound,
    ks_statistic,
    mean_rate,
    scale_function,
    scale_function_log_magnitude,
)
from ckls.verify import _snapshot_rates
from ks_oracle import full_ks

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)


class TestMeanRate:
    def test_stationary_start(self):
        p = CklsParams(a=0.1, b=0.1, sigma=0.5, gamma=1.5, r0=1.0)
        for t in (0.0, 0.3, 2.0, 50.0):
            assert mean_rate(p, t) == pytest.approx(1.0, rel=1e-12)

    def test_zero_reversion_limit(self):
        p = CklsParams(a=0.3, b=0.0, sigma=0.5, gamma=1.5, r0=1.0)
        assert mean_rate(p, 2.0) == pytest.approx(1.0 + 0.3 * 2.0, rel=1e-12)

    def test_long_run_level(self):
        p = CklsParams(a=0.2, b=0.1, sigma=0.5, gamma=1.5, r0=1.0)
        assert mean_rate(p, 400.0) == pytest.approx(2.0, rel=1e-12)

    def test_ode_identity(self):
        """d/dt E r_t = a - b E r_t to 1e-8 by central differences."""
        h = 1e-6
        for p in (HIGH, LOW, CklsParams(a=0.5, b=-0.3, sigma=0.5, gamma=1.5, r0=2.0)):
            for t in (0.1, 0.7, 1.9):
                lhs = (mean_rate(p, t + h) - mean_rate(p, t - h)) / (2 * h)
                rhs = p.a - p.b * mean_rate(p, t)
                assert lhs == pytest.approx(rhs, abs=1e-8)


class TestGronwallBound:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown moment kind 'mean'"):
            gronwall_bound(LOW, 1.0, "mean")

    def test_time_zero_is_initial_power(self):
        assert gronwall_bound(LOW, 0.0, "neg_moment").bound == pytest.approx(
            LOW.r0 ** (-2 * LOW.gamma), rel=1e-14
        )
        assert gronwall_bound(LOW, 0.0, "frac_moment").bound == pytest.approx(
            LOW.r0 ** (2 * (LOW.gamma - 1)), rel=1e-14
        )

    def test_case_i_against_quadrature(self):
        """Closed-form convolution against adaptive quadrature, 1e-10."""
        g, s = LOW.gamma, LOW.sigma
        alpha = LOW.r0 ** (-2 * g)
        beta = g * (2 * g + 1) * s**2
        assert beta == pytest.approx(0.46875, rel=1e-15)
        c = 2 * LOW.b * g
        for t in (0.25, 1.0, 3.0):
            quad_val, _ = integrate.quad(
                lambda u: (alpha + beta * u) * math.exp(c * (t - u)), 0.0, t,
                epsabs=1e-13, epsrel=1e-13,
            )
            expected = alpha + beta * t + c * quad_val
            got = gronwall_bound(LOW, t, "neg_moment")
            assert got.bound == pytest.approx(expected, rel=1e-10)
            assert got.case is MomentCase.CASE_I

    def test_case_ii_neg_moment_against_quadrature(self):
        g, s = HIGH.gamma, HIGH.sigma
        alpha = HIGH.r0 ** (-2 * g)
        beta = g * (2 * g + 1) * s**2
        c = g * (2 * HIGH.b + (2 * g + 1) * s**2)
        t = 1.0
        quad_val, _ = integrate.quad(
            lambda u: (alpha + beta * u) * math.exp(c * (t - u)), 0.0, t,
            epsabs=1e-13, epsrel=1e-13,
        )
        got = gronwall_bound(HIGH, t, "neg_moment")
        assert got.bound == pytest.approx(alpha + beta * t + c * quad_val, rel=1e-10)
        assert got.case is MomentCase.CASE_II

    def test_case_ii_frac_moment_is_one_plus_mean(self):
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.25, r0=1.0)
        got = gronwall_bound(p, 1.0, "frac_moment")
        assert got.bound == pytest.approx(1.0 + mean_rate(p, 1.0), rel=1e-14)
        assert got.case is MomentCase.CASE_II

    def test_case_i_frac_moment_positive_slope(self):
        # Psi~ slope (gamma-1)(2 gamma-3) sigma^2 = 0.09375 for the low set
        b0 = gronwall_bound(LOW, 0.0, "frac_moment").bound
        b1 = gronwall_bound(LOW, 1.0, "frac_moment").bound
        assert b1 > b0

    def test_regime_mismatch_rejected(self):
        outside = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.5, r0=1.0)
        with pytest.raises(RegimeError):
            gronwall_bound(outside, 1.0, "neg_moment")
        # gamma < 1 but (2g+1) sigma^2 > 2a also fails the hypotheses
        loud = CklsParams(a=0.1, b=0.2, sigma=1.0, gamma=0.75, r0=1.0)
        with pytest.raises(RegimeError):
            gronwall_bound(loud, 1.0, "neg_moment")


def terminal_moment(p, exponent, seed):
    """Euler Monte Carlo E r_t^exponent at t = 0.5 (20 000 paths, 256
    steps) from the snapshot run of the mean and moment checks, with its
    standard error."""
    snaps, _ = _snapshot_rates(p, 0.5, 256, 20_000, seed, [256])
    g = snaps[0] ** exponent
    return g.mean(), g.std(ddof=1) / math.sqrt(g.size)


class TestSnapshotMoments:
    def test_unit_exponent_matches_closed_form_mean(self):
        est, se = terminal_moment(HIGH, 1.0, seed=5)
        assert abs(est - mean_rate(HIGH, 0.5)) <= 3.0 * se

    def test_neg_moment_below_bound_case_i(self):
        est, se = terminal_moment(LOW, -2.0 * LOW.gamma, seed=7)
        assert est <= gronwall_bound(LOW, 0.5, "neg_moment").bound + 3.0 * se


class TestScaleFunction:
    def test_zero_at_one_both_variants(self):
        assert scale_function(LOW, 1.0, "paper") == 0.0
        assert scale_function(LOW, 1.0, "derived") == 0.0

    def test_strictly_monotone(self):
        xs = np.geomspace(0.05, 20.0, 15)
        for variant in ("paper", "derived"):
            vals = [scale_function(LOW, float(x), variant) for x in xs]
            assert np.all(np.diff(vals) > 0)

    def test_paper_variant_diverges_toward_zero(self):
        """|p| grows without apparent bound along x = 1e-2, 1e-4, 1e-6."""
        p2 = scale_function(LOW, 1e-2, "paper")
        p4 = scale_function(LOW, 1e-4, "paper")
        p6 = scale_function(LOW, 1e-6, "paper")
        assert p6 < p4 < p2 < 0.0
        assert abs(p4) > 2 * abs(p2) and abs(p6) > 2 * abs(p4)

    def test_derived_variant_saturates_toward_zero(self):
        """With the auxiliary drift the density x^(-gamma) is integrable at
        0, so the boundary value stays finite (the divergence test would be
        inconclusive): exhibited, not asserted.  Near 0 the increments over
        two decades shrink by 10^(-2 (1-gamma)) each, a geometric series."""
        p6, p8, p10 = (scale_function(LOW, x, "derived") for x in (1e-6, 1e-8, 1e-10))
        assert p10 < p8 < p6 < 0
        ratio = (p10 - p8) / (p8 - p6)
        assert ratio == pytest.approx(10.0 ** (-2.0 * (1.0 - LOW.gamma)), rel=1e-2)

    @pytest.mark.parametrize("x", [0.05, 0.3, 2.0, 10.0])
    def test_derived_density_solves_auxiliary_drift(self, x):
        """Oracle: the scale density of mu(x) = b x + (gamma sigma^2 / 2)
        x^(2 gamma - 1) with diffusion sigma x^gamma is
        p'(x)/p'(1) = exp(-integral_1^x 2 mu / sigma^2), the inner integral
        by quadrature here and p' by central differences."""

        def mu_over_var(z):
            mu = LOW.b * z + 0.5 * LOW.gamma * LOW.sigma**2 * z ** (2.0 * LOW.gamma - 1.0)
            return 2.0 * mu / (LOW.sigma**2 * z ** (2.0 * LOW.gamma))

        def slope(y):
            h = 1e-4 * y
            up, down = (scale_function(LOW, y + d, "derived") for d in (h, -h))
            return (up - down) / (2.0 * h)

        inner, _ = integrate.quad(mu_over_var, 1.0, x, epsabs=0.0, epsrel=1e-13)
        assert slope(x) / slope(1.0) == pytest.approx(math.exp(-inner), rel=1e-6)
        sign, logmag = scale_function_log_magnitude(LOW, x, "derived")
        raw = scale_function(LOW, x, "derived")
        assert sign == math.copysign(1.0, raw)
        assert math.exp(logmag) == pytest.approx(abs(raw), rel=1e-6)

    def test_log_magnitude_matches_raw_midrange(self):
        for x in (0.02, 0.3, 3.0, 40.0):
            raw = scale_function(LOW, x, "paper")
            sign, logmag = scale_function_log_magnitude(LOW, x, "paper")
            assert sign == math.copysign(1.0, raw)
            assert math.exp(logmag) == pytest.approx(abs(raw), rel=1e-6)

    def test_log_magnitude_handles_overflow_range(self):
        # raw evaluation overflows around x ~ 1e4 for the printed variant
        sign, logmag = scale_function_log_magnitude(LOW, 1e8, "paper")
        assert sign == 1.0 and logmag > 700.0  # beyond float64 exp range

    def test_errors(self):
        with pytest.raises(DomainError):
            scale_function(LOW, 0.0)
        with pytest.raises(RegimeError):
            scale_function(HIGH, 2.0)
        with pytest.raises(ValueError):
            scale_function(LOW, 2.0, "bogus")


def _oracle_scale(p, x, variant):
    """p(x) = e^(-kappa) integral_1^x y^(-e) exp(kappa y^(2 (1-gamma))) dy,
    kappa and e per variant as in scale_function, in 30-digit mpmath with
    breakpoints two to a decade."""
    with mpmath.workdps(30):
        g, s, b = (mpmath.mpf(v) for v in (p.gamma, p.sigma, p.b))
        kappa = b / (s**2 * (1 - g))
        if variant == "paper":
            e = g / s
        else:
            kappa, e = -kappa, g
        lo, hi = sorted((mpmath.mpf(x), mpmath.mpf(1)))
        n = max(1, math.ceil(2 * math.log10(float(hi / lo))))
        edges = [lo * (hi / lo) ** (mpmath.mpf(k) / n) for k in range(n + 1)]
        total = mpmath.quad(lambda y: y ** (-e) * mpmath.exp(kappa * y ** (2 * (1 - g))), edges)
        return float(mpmath.exp(-kappa) * (total if x > 1 else -total))


class TestScaleFunctionOracle:
    """Both evaluations of the scale function against 30-digit quadrature,
    from 1e-10 to 100 and on both sides of x = 1."""

    XS = (1e-10, 1e-6, 1e-2, 0.3, 0.9999, 1.0001, 2.0, 40.0, 100.0)

    @pytest.mark.parametrize("variant", ["paper", "derived"])
    @pytest.mark.parametrize(
        "p", [LOW, CklsParams(a=1.0, b=0.2, sigma=0.9, gamma=0.95, r0=1.0)], ids=["low", "g095"]
    )
    def test_within_1e13_of_mpmath(self, p, variant):
        for x in self.XS:
            ref = _oracle_scale(p, x, variant)
            sign, logmag = scale_function_log_magnitude(p, x, variant)
            assert scale_function(p, x, variant) == pytest.approx(ref, rel=1e-13, abs=0.0), x
            assert sign * math.exp(logmag) == pytest.approx(ref, rel=1e-13, abs=0.0), x


class TestKsStatistic:
    @pytest.mark.parametrize("weights,match", [
        ([1.0, 1.0], "match samples in shape"),
        ([[1.0, 1.0, 1.0]], "match samples in shape"),
        ([1.0, 0.0, 1.0], "positive"),
        ([1.0, -2.0, 1.0], "positive"),
        ([1.0, math.nan, 1.0], "positive"),
        ([1.0, math.inf, 1.0], "finite and positive"),
        ([1.0, -math.inf, 1.0], "positive"),
    ], ids=["short", "2d", "zero", "negative", "nan", "inf", "-inf"])
    def test_bad_weights_rejected(self, weights, match):
        with pytest.raises(InputError, match=match):
            ks_statistic(np.array([0.1, 0.5, 0.9]), lambda x: np.asarray(x), weights=weights)

    def test_huge_equal_weights_match_unweighted(self):
        """1000 weights of 1e306 overflowed the running sum (0.1189 against
        0.0382 unweighted) and their squares."""
        samples = np.sort(np.random.default_rng(5).random(1000))
        plain = ks_statistic(samples, lambda x: np.asarray(x))
        weighted = ks_statistic(samples, lambda x: np.asarray(x), np.full(1000, 1e306))
        assert weighted.statistic == pytest.approx(plain.statistic, rel=1e-12)
        assert weighted.ess == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, -600, -1, 1, 600, 1000])
    def test_power_of_two_weights_give_the_same_result(self, k):
        """w 2^k weighs every sample as w does: the same KsResult, bit for
        bit, also where the sum or the squares of w 2^k leave the float
        range."""
        rng = np.random.default_rng(11)
        samples = np.sort(rng.random(2000))
        w = rng.uniform(0.5, 50.0, samples.size)
        want = ks_statistic(samples, lambda x: np.asarray(x), w)
        assert ks_statistic(samples, lambda x: np.asarray(x), np.ldexp(w, k)) == want

    def test_single_point_against_identity(self):
        res = ks_statistic(np.array([0.5]), lambda x: np.asarray(x))
        assert res.statistic == 0.5

    def test_constant_zero_cdf_maximal(self):
        res = ks_statistic(np.linspace(0.1, 0.9, 11), lambda x: np.zeros_like(x))
        assert res.statistic == 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            ks_statistic(np.array([0.3, 0.1]), lambda x: np.asarray(x))

    @pytest.mark.parametrize("samples", [[0.1, math.nan], [math.nan], [math.nan, 0.1]])
    def test_nan_sample_rejected(self, samples):
        """np.diff is never < 0 next to a NaN, so the sort check alone
        would pass it and return a NaN statistic."""
        with pytest.raises(InputError, match="NaN"):
            ks_statistic(np.array(samples), lambda x: np.asarray(x))

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty input"):
            ks_statistic(np.array([]), lambda x: np.asarray(x))

    @pytest.mark.parametrize("samples", [np.linspace(0.1, 0.4, 4)[:, None], np.float64(0.5)])
    def test_not_one_dimensional_rejected(self, samples):
        """A (4, 1) column used to broadcast against the (4,) steps and
        return 0.9."""
        with pytest.raises(InputError, match="1-D"):
            ks_statistic(samples, lambda x: np.asarray(x))

    @pytest.mark.parametrize("cdf", [
        lambda x: 0.5,
        lambda x: np.asarray(x)[:, None],
        lambda x: np.asarray(x)[:1],
    ], ids=["scalar", "column", "short"])
    def test_cdf_of_another_shape_rejected(self, cdf):
        """A scalar cdf used to broadcast silently."""
        with pytest.raises(InputError, match="one value per point"):
            ks_statistic(np.linspace(0.1, 0.9, 5), cdf)

    @pytest.mark.parametrize("n", [5, 1000])
    def test_nan_cdf_rejected(self, n):
        """NaN at the last sample, which is always evaluated: a NaN bound
        would otherwise drop its run unseen."""
        with pytest.raises(InputError, match="NaN"):
            ks_statistic(np.linspace(0.1, 0.9, n), lambda x: np.where(x > 0.85, np.nan, x))

    @pytest.mark.parametrize("n", [5, 1000])
    def test_decreasing_cdf_rejected(self, n):
        with pytest.raises(InputError, match="nondecreasing"):
            ks_statistic(np.linspace(0.1, 0.9, n), lambda x: 1.0 - np.asarray(x))

    def test_ulp_level_decrease_tolerated(self):
        """A step CDF that wiggles by 1e-15, as a rounded closed form can,
        decreases between some samples; it is accepted, with the statistic
        of full evaluation."""
        samples = np.sort(np.random.default_rng(8).random(5000))

        def cdf(x):
            return np.round(x, 2) + 1e-15 * np.sin(x * 1e4)

        assert np.any(np.diff(cdf(samples)) < 0)

        assert ks_statistic(samples, cdf).statistic == full_ks(samples, cdf)

    def test_cdf_points_counts_each_evaluated_sample_once(self):
        samples = np.sort(np.random.default_rng(9).standard_normal(25_000))
        seen = []

        def cdf(x):
            seen.append(np.array(x))
            return special.ndtr(x)

        res = ks_statistic(samples, cdf)
        points = np.concatenate(seen)
        assert res.cdf_points == points.size == np.unique(points).size
        assert 0 < res.cdf_points < samples.size // 10
        assert points.max() == samples[-1]

    def test_distributional_self_test_over_seed_battery(self):
        """Samples drawn from the hypothesized law itself: D below the 1%
        critical value across the frozen 20-seed battery."""
        n = 100_000
        passes = 0
        for seed in range(20):
            u = np.sort(np.random.default_rng([1234, seed]).random(n))
            res = ks_statistic(u, lambda x: np.asarray(x))
            passes += res.statistic < res.critical_1pct
        assert passes == 20

    def test_unit_weights_match_unweighted(self):
        samples = np.sort(np.random.default_rng(5).random(500))
        plain = ks_statistic(samples, lambda x: np.asarray(x))
        weighted = ks_statistic(samples, lambda x: np.asarray(x), np.ones(500))
        assert weighted.statistic == pytest.approx(plain.statistic, rel=1e-14)
        assert weighted.ess == pytest.approx(500.0, rel=1e-14)

    def test_ess_drops_with_uneven_weights(self):
        samples = np.sort(np.random.default_rng(6).random(400))
        w = np.ones(400)
        w[:10] = 50.0
        res = ks_statistic(samples, lambda x: np.asarray(x), w)
        assert res.ess < 400.0
        assert res.critical_1pct > 1.6276 / math.sqrt(400.0)


def _step_cdf(x):
    return np.floor(np.clip(x, 0.0, 1.0) * 4.0) / 4.0


# (samples drawn by rng at size n, cdf): each nondecreasing and elementwise
KS_CASES = {
    "identity": (lambda rng, n: rng.random(n), lambda x: np.asarray(x)),
    "ndtr": (lambda rng, n: rng.standard_normal(n), special.ndtr),
    "step": (lambda rng, n: rng.random(n), _step_cdf),
    "constant": (lambda rng, n: rng.random(n), lambda x: np.full_like(x, 0.5)),
    "chndtr": (
        lambda rng, n: rng.noncentral_chisquare(4.0, 14.4533, n),
        lambda x: special.chndtr(np.maximum(x, 0.0), 4.0, 14.4533),
    ),
}


class TestKsAgainstFullEvaluation:
    """ks_statistic equals the statistic of the CDF at every sample
    (ks_oracle.full_ks) bit for bit, with and without weights."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from(sorted(KS_CASES)),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-0.5, 0.5),
        decimals=st.sampled_from([None, 0, 1, 2, 3]),
        weighted=st.booleans(),
    )
    def test_bit_for_bit(self, case, n, seed, shift, decimals, weighted):
        """Ties come from rounding the samples; the shift moves them off
        the law so that the supremum lands anywhere."""
        draw, cdf = KS_CASES[case]
        rng = np.random.default_rng(seed)
        samples = draw(rng, n) + shift
        if decimals is not None:
            samples = np.round(samples, decimals)
        samples = np.sort(samples)
        weights = rng.lognormal(0.0, 1.0, n) if weighted else None
        res = ks_statistic(samples, cdf, weights)
        assert res.statistic == full_ks(samples, cdf, weights)
