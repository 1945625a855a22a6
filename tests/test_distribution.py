"""Noncentral chi-square machinery and the time-t transition laws."""

import functools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from ckls import (
    CklsParams,
    DomainError,
    NoncentralChiSq,
    derive_cir,
    exact_sqrt_level,
    make_transform,
    noncentral_cdf,
    noncentral_pdf,
    noncentral_sample,
    rate_cdf,
    rate_density,
    transition_spec,
)

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)

SPECS = [(1.0, 14.4533), (1.0, 0.5), (3.0, 2.0), (0.25, 3.0)]

# (df, nonc) of the checks and the benchmark: both rules at C = 1 and 2 on
# the reference sets, the ncx2 battery, and large-nonc tails.
ORACLE_SPECS = [
    (1.0, 14.4533), (4.0, 14.4533), (1.0, 67.25), (4.0, 67.25), (1.0, 0.5), (3.0, 2.0),
    (1.0, 1e3), (4.0, 1e3), (1.0, 1800.0), (4.0, 1800.0),
]


def _oracle_pdf(x, df, nonc):
    """The Bessel closed form, 1/2 e^(-(x+nonc)/2) (x/nonc)^(df/4-1/2)
    I_(df/2-1)(sqrt(nonc x)), in mpmath arithmetic."""
    df, nonc = mpmath.mpf(df), mpmath.mpf(nonc)
    return (
        mpmath.exp(-(x + nonc) / 2) * (x / nonc) ** (df / 4 - mpmath.mpf(1) / 2)
        * mpmath.besseli(df / 2 - 1, mpmath.sqrt(nonc * x)) / 2
    )


@functools.cache
def _oracle(df, nonc):
    """Points at mean +- {1, 2, 3} SD (those above 0) and at 8 and 15 SD,
    with 40-digit pdf and CDF values there and the total mass.  The CDF is
    the quadrature of the pdf in u = sqrt(t), which removes the t^(-1/2)
    singularity at df = 1, summed over the segments between the points."""
    mean, sd = df + nonc, math.sqrt(2.0 * (df + 2.0 * nonc))
    xs = [mean + j * sd for j in (-3, -2, -1, 1, 2, 3, 8, 15) if mean + j * sd > 0]
    with mpmath.workdps(40):
        edges = [mpmath.mpf(0)] + [mpmath.sqrt(x) for x in xs] + [mpmath.inf]
        segs = [
            mpmath.quad(lambda u: 2 * u * _oracle_pdf(u * u, df, nonc), [lo, hi])
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        cdf = [float(mpmath.fsum(segs[: i + 1])) for i in range(len(xs))]
        pdf = [float(_oracle_pdf(mpmath.mpf(x), df, nonc)) for x in xs]
        mass = float(mpmath.fsum(segs) - 1)
    return np.array(xs), np.array(pdf), np.array(cdf), mass


class TestLogGammaBackend:
    def test_lgamma_accuracy_on_working_range(self):
        """The log-gamma backing the central chi-square density must be
        1e-13 relative on [0.5, 200] (checked against 50-digit arithmetic)."""
        mpmath.mp.dps = 50
        xs = np.geomspace(0.5, 200.0, 80)
        for x in xs:
            exact = float(mpmath.loggamma(mpmath.mpf(x)))
            got = math.lgamma(x)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


class TestNoncentralPdf:
    def test_central_chi2_one_closed_form(self):
        # oracle: chi^2_1 density at 1 is e^(-1/2)/sqrt(2 pi)
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert expected == pytest.approx(0.241971, abs=5e-7)
        d = NoncentralChiSq(df=1.0, nonc=0.0)
        assert noncentral_pdf(d, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_df2_limit_at_zero(self):
        assert noncentral_pdf(NoncentralChiSq(2.0, 0.0), 0.0) == 0.5
        assert noncentral_pdf(NoncentralChiSq(2.0, 3.0), 0.0) == pytest.approx(
            0.5 * math.exp(-1.5), rel=1e-14
        )

    def test_zero_and_negative_arguments(self):
        assert noncentral_pdf(NoncentralChiSq(3.0, 1.0), 0.0) == 0.0
        assert noncentral_pdf(NoncentralChiSq(3.0, 1.0), -2.0) == 0.0
        with pytest.raises(DomainError):
            noncentral_pdf(NoncentralChiSq(1.0, 1.0), 0.0)

    @pytest.mark.parametrize("df,nonc", SPECS)
    def test_normalization_by_quadrature(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        upper = df + nonc + 60.0 * math.sqrt(2.0 * (df + 2.0 * nonc)) + 60.0
        val, err = integrate.quad(
            lambda x: noncentral_pdf(d, x), 0.0, upper, points=[df + nonc], limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("df,nonc", SPECS)
    def test_against_scipy(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        xs = np.geomspace(0.05, df + nonc + 30.0, 60)
        mine = noncentral_pdf(d, xs)
        ref = stats.ncx2.pdf(xs, df, nonc)
        np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-300)

    def test_large_noncentrality_head_underflow(self):
        # the density must survive nonc where e^(-nonc/2) underflows to 0
        # in float
        d = NoncentralChiSq(df=1.0, nonc=1800.0)
        x = 1800.0
        ref = stats.ncx2.pdf(x, 1.0, 1800.0)
        assert noncentral_pdf(d, x) == pytest.approx(ref, rel=1e-9)

    def test_nonnegative_everywhere(self):
        d = NoncentralChiSq(df=1.0, nonc=14.4533)
        xs = np.geomspace(1e-8, 400.0, 200)
        assert np.all(noncentral_pdf(d, xs) >= 0.0)


class TestNoncentralCdf:
    def test_at_zero(self):
        assert noncentral_cdf(NoncentralChiSq(1.0, 2.0), 0.0) == 0.0

    def test_exponential_special_case(self):
        # df = 2, nonc = 0: F(x) = 1 - e^(-x/2); at x = 2 ln 2, F = 1/2
        d = NoncentralChiSq(2.0, 0.0)
        assert noncentral_cdf(d, 2.0 * math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
        xs = np.linspace(0.1, 20.0, 25)
        np.testing.assert_allclose(
            noncentral_cdf(d, xs), 1.0 - np.exp(-xs / 2.0), rtol=1e-12
        )

    @pytest.mark.parametrize("df,nonc", SPECS)
    def test_monotone_from_zero_to_one(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        xs = np.linspace(0.0, df + nonc + 50.0 * math.sqrt(2 * (df + 2 * nonc)), 400)
        vals = noncentral_cdf(d, xs)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("df,nonc", SPECS)
    def test_derivative_matches_pdf(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        xs = np.linspace(0.5, df + nonc + 8.0, 30)
        h = 1e-5
        fd = (noncentral_cdf(d, xs + h) - noncentral_cdf(d, xs - h)) / (2 * h)
        np.testing.assert_allclose(fd, noncentral_pdf(d, xs), atol=1e-6)

    @pytest.mark.parametrize("df,nonc", SPECS)
    def test_against_scipy(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        xs = np.geomspace(0.05, df + nonc + 30.0, 60)
        np.testing.assert_allclose(
            noncentral_cdf(d, xs), stats.ncx2.cdf(xs, df, nonc), rtol=1e-9, atol=1e-12
        )

    def test_chndtr_nan_raises(self):
        """The paper rule on the HIGH set at C = 2, t = 1e-10 (nonc about
        1.6e11), where scipy.special.chndtr returns NaN at x = 1."""
        tr = make_transform(HIGH, 2.0)
        spec = transition_spec(HIGH, derive_cir(HIGH, tr), 1e-10, delta_rule="paper")
        assert spec.df != 1.0 and spec.nonc > 1e11
        with pytest.raises(DomainError, match=r"df=.*nonc="):
            rate_cdf(HIGH, tr, spec, 1.0)
        level = tr.f(1.0) / spec.scale
        with pytest.raises(DomainError):
            noncentral_cdf(NoncentralChiSq(spec.df, spec.nonc), np.array([level, np.nan]))

    @pytest.mark.parametrize("df", [1.0, 3.0])
    def test_nan_argument_gives_nan(self, df):
        got = noncentral_cdf(NoncentralChiSq(df, 2.0), np.array([np.nan, 1.0]))
        assert np.isnan(got[0]) and 0.0 < got[1] < 1.0
        assert math.isnan(noncentral_cdf(NoncentralChiSq(df, 2.0), math.nan))


class TestMpmathOracle:
    """Both functions against an oracle that shares no code with them: the
    Bessel closed form in 40-digit mpmath for the pdf, its quadrature for
    the CDF.  Before the closed forms, the Poisson series scored 2e-13 to
    2e-12 absolute on the CDF and up to 3e-12 relative on the pdf at these
    points."""

    @pytest.mark.parametrize("df,nonc", ORACLE_SPECS)
    def test_oracle_is_normalised(self, df, nonc):
        assert abs(_oracle(df, nonc)[3]) < 1e-20

    @pytest.mark.parametrize("nonc", [14.4533, 1800.0])
    def test_oracle_matches_the_gaussian_form_at_df_one(self, nonc):
        # at df = 1 the law is that of (Z + sqrt(nonc))^2, Z standard normal
        xs, pdf, cdf, _ = _oracle(1.0, nonc)
        with mpmath.workdps(40):
            for x, p, c in zip(xs, pdf, cdf):
                s, r = mpmath.sqrt(x), mpmath.sqrt(nonc)
                gauss_pdf = (mpmath.npdf(s - r) + mpmath.npdf(s + r)) / (2 * s)
                gauss_cdf = mpmath.ncdf(s - r) - mpmath.ncdf(-s - r)
                assert p == pytest.approx(float(gauss_pdf), rel=1e-15)
                assert abs(c - float(gauss_cdf)) < 1e-17

    @pytest.mark.parametrize("df,nonc", ORACLE_SPECS)
    def test_cdf_against_oracle(self, df, nonc):
        xs, _, cdf, _ = _oracle(df, nonc)
        got = noncentral_cdf(NoncentralChiSq(df, nonc), xs)
        assert np.max(np.abs(got - cdf)) <= 1e-14

    @pytest.mark.parametrize("df,nonc", ORACLE_SPECS)
    def test_pdf_against_oracle(self, df, nonc):
        xs, pdf, _, _ = _oracle(df, nonc)
        got = noncentral_pdf(NoncentralChiSq(df, nonc), xs)
        assert np.max(np.abs(got / pdf - 1.0)) <= 1e-12

    @pytest.mark.parametrize("df", [1.0, 3.0, 4.0])
    def test_pdf_at_noncentrality_beyond_the_bessel_range(self, df):
        # sqrt(nonc x) > 2e9, where scipy.special.ive returns NaN; the
        # paper rule on the HIGH set at C = 2, t = 1e-9 has nonc = 1.6e10
        nonc = 1.6e10
        sd = math.sqrt(2.0 * (df + 2.0 * nonc))
        xs = nonc + df + sd * np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 8.0])
        with mpmath.workdps(40):
            ref = np.array([float(_oracle_pdf(mpmath.mpf(x), df, nonc)) for x in xs])
        got = noncentral_pdf(NoncentralChiSq(df, nonc), xs)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("df", [4.0, 16.0])
    def test_pdf_vanishes_far_out(self, df):
        # at df = 16, (x / nonc)^(df/4 - 1/2) overflows here while the
        # Gaussian factor underflows; the density is 0, not inf * 0
        got = noncentral_pdf(NoncentralChiSq(df, 3.0), np.array([1e200, 1e300]))
        assert np.array_equal(got, [0.0, 0.0])


class TestImportCost:
    def test_import_does_not_load_scipy_stats(self):
        # scipy.stats costs about half a second per process to import
        import ckls

        src = os.path.dirname(os.path.dirname(ckls.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, ckls; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestNoncentralSample:
    def test_zero_noncentrality_is_central(self):
        d = NoncentralChiSq(df=1.0, nonc=0.0)
        draws = noncentral_sample(d, np.random.default_rng(7), 50_000)
        ks = stats.kstest(draws, lambda x: stats.chi2.cdf(x, 1.0))
        assert ks.statistic < 1.6276 / math.sqrt(50_000)

    @pytest.mark.parametrize("df,nonc", [(1.0, 14.4533), (3.0, 2.0), (0.25, 3.0)])
    def test_moment_identities(self, df, nonc):
        """mean -> df + nonc, variance -> 2 (df + 2 nonc), 3 SE at 1e6."""
        d = NoncentralChiSq(df=df, nonc=nonc)
        n = 1_000_000
        draws = noncentral_sample(d, np.random.default_rng(11), n)
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - (df + nonc)) <= 3.0 * se_mean
        centered_sq = (draws - draws.mean()) ** 2
        se_var = centered_sq.std(ddof=1) / math.sqrt(n)
        assert abs(draws.var(ddof=1) - 2.0 * (df + 2.0 * nonc)) <= 3.0 * se_var

    @pytest.mark.parametrize("df,nonc", [(1.0, 14.4533), (0.25, 3.0)])
    def test_ks_against_own_cdf(self, df, nonc):
        d = NoncentralChiSq(df=df, nonc=nonc)
        n = 100_000
        draws = np.sort(noncentral_sample(d, np.random.default_rng(23), n))
        ks = stats.kstest(draws, lambda x: noncentral_cdf(d, x))
        assert ks.statistic < 1.6276 / math.sqrt(n)

    @pytest.mark.parametrize("df,nonc", [(1.0, 5.0), (0.25, 3.0)])
    def test_two_sample_against_numpy(self, df, nonc):
        # independent oracle: numpy's own noncentral generator
        d = NoncentralChiSq(df=df, nonc=nonc)
        rng = np.random.default_rng(5)
        mine = noncentral_sample(d, rng, 40_000)
        theirs = rng.noncentral_chisquare(df, nonc, 40_000)
        assert stats.ks_2samp(mine, theirs).pvalue > 0.01


class TestTransitionSpec:
    def test_high_gamma_frozen_values(self):
        """Oracle: scale equals the accumulated variance of the Gaussian
        sqrt-level, (sigma C/2)^2 * integral_0^t e^(2 b (1-gamma) s) ds,
        evaluated by quadrature; nonc = (Gaussian mean)^2 / scale."""
        tr = make_transform(HIGH, 1.0)
        cir = derive_cir(HIGH, tr)
        rate = cir.drift_lin / 2.0
        quad_var, _ = integrate.quad(lambda s: math.exp(2.0 * rate * s), 0.0, 1.0)
        scale_oracle = (cir.vol / 2.0) ** 2 * quad_var
        assert scale_oracle == pytest.approx(0.05664664, abs=5e-9)
        spec = transition_spec(HIGH, cir, 1.0)
        assert spec.scale == pytest.approx(scale_oracle, rel=1e-12)
        assert spec.nonc == pytest.approx(math.exp(-0.2) / scale_oracle, rel=1e-12)
        assert spec.nonc == pytest.approx(14.453298, abs=5e-6)
        assert spec.df == 1.0

    def test_moment_matching_against_exact_draws(self):
        tr = make_transform(HIGH, 1.0)
        cir = derive_cir(HIGH, tr)
        spec = transition_spec(HIGH, cir, 1.0)
        z = np.random.default_rng(3).standard_normal(1_000_000)
        u = exact_sqrt_level(cir, HIGH, 1.0, z)
        m2 = u.mean() ** 2
        v = u.var(ddof=1)
        assert v == pytest.approx(spec.scale, rel=5e-3)
        assert m2 / v == pytest.approx(spec.nonc, rel=5e-3)

    def test_delta_rules_coincide_at_c_one(self):
        tr = make_transform(HIGH, 1.0)
        cir = derive_cir(HIGH, tr)
        derived = transition_spec(HIGH, cir, 1.0, "derived")
        paper = transition_spec(HIGH, cir, 1.0, "paper")
        assert derived.df == paper.df == 1.0

    def test_delta_rules_differ_at_c_two(self):
        tr = make_transform(HIGH, 2.0)
        cir = derive_cir(HIGH, tr)
        assert transition_spec(HIGH, cir, 1.0, "derived").df == 1.0
        assert transition_spec(HIGH, cir, 1.0, "paper").df == pytest.approx(4.0)

    def test_mean_identity_with_sqrt_level_moments(self):
        """scale*(df+nonc) = m^2 + v with m, v the exact Gaussian moments
        of the sqrt level -- exact algebra, 1e-12 relative."""
        for p, c, t in ((HIGH, 1.0, 0.5), (HIGH, 2.0, 1.0), (LOW, 0.5, 0.7), (LOW, 3.0, 1.3)):
            tr = make_transform(p, c)
            cir = derive_cir(p, tr)
            spec = transition_spec(p, cir, t)
            m = exact_sqrt_level(cir, p, t, 0.0)
            s = exact_sqrt_level(cir, p, t, 1.0) - m
            assert spec.mean() == pytest.approx(m * m + s * s, rel=1e-12)

    def test_zero_linear_drift_limit(self):
        p = CklsParams(a=1.0, b=0.0, sigma=0.5, gamma=1.5, r0=1.0)
        tr = make_transform(p, 1.0)
        cir = derive_cir(p, tr)
        spec = transition_spec(p, cir, 2.0)
        assert spec.scale == pytest.approx(cir.vol**2 * 2.0 / 4.0, rel=1e-12)
        assert spec.nonc == pytest.approx(4.0 * cir.y0 / (cir.vol**2 * 2.0), rel=1e-12)

    def test_nonpositive_time_rejected(self):
        tr = make_transform(HIGH, 1.0)
        cir = derive_cir(HIGH, tr)
        with pytest.raises(DomainError):
            transition_spec(HIGH, cir, 0.0)


class TestRateDensity:
    @pytest.mark.parametrize("p,c", [(HIGH, 1.0), (LOW, 0.5)])
    def test_normalization(self, p, c):
        tr = make_transform(p, c)
        cir = derive_cir(p, tr)
        spec = transition_spec(p, cir, 1.0)
        mode_guess = float(tr.inverse(spec.scale * max(spec.df + spec.nonc - 2.0, 0.5)))
        lower, _ = integrate.quad(
            lambda x: rate_density(p, tr, spec, x), 0.0, mode_guess, limit=500
        )
        upper, _ = integrate.quad(
            lambda x: rate_density(p, tr, spec, x), mode_guess, np.inf, limit=500
        )
        assert lower + upper == pytest.approx(1.0, abs=1e-6)

    def test_c_invariance_under_derived_rule(self):
        xs = np.geomspace(0.3, 8.0, 50)
        vals = []
        for c in (1.0, 7.0):
            tr = make_transform(HIGH, c)
            cir = derive_cir(HIGH, tr)
            spec = transition_spec(HIGH, cir, 1.0, "derived")
            vals.append(rate_density(HIGH, tr, spec, xs))
        np.testing.assert_allclose(vals[0], vals[1], rtol=1e-10)

    def test_c_dependence_under_paper_rule_is_the_regression(self):
        # under df = C^2 the C-invariance breaks; keep that on record
        xs = np.geomspace(0.3, 8.0, 50)
        vals = []
        for c in (1.0, 2.0):
            tr = make_transform(HIGH, c)
            cir = derive_cir(HIGH, tr)
            spec = transition_spec(HIGH, cir, 1.0, "paper")
            vals.append(rate_density(HIGH, tr, spec, xs))
        assert np.max(np.abs(vals[0] - vals[1])) > 1e-2

    def test_domain_error(self):
        tr = make_transform(HIGH, 1.0)
        cir = derive_cir(HIGH, tr)
        spec = transition_spec(HIGH, cir, 1.0)
        with pytest.raises(DomainError):
            rate_density(HIGH, tr, spec, 0.0)

    @pytest.mark.parametrize("p,c", [(HIGH, 1.0), (LOW, 0.5)])
    def test_rate_cdf_monotone_and_consistent_with_density(self, p, c):
        tr = make_transform(p, c)
        cir = derive_cir(p, tr)
        spec = transition_spec(p, cir, 1.0)
        xs = np.geomspace(0.2, 12.0, 80)
        cdf = rate_cdf(p, tr, spec, xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0) & (cdf <= 1))
        h = 1e-6
        fd = (rate_cdf(p, tr, spec, xs + h) - rate_cdf(p, tr, spec, xs - h)) / (2 * h)
        np.testing.assert_allclose(fd, rate_density(p, tr, spec, xs), rtol=2e-4, atol=1e-8)
