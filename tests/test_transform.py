"""The power transform, its derivatives/inverse, and the image diffusion
coefficients."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from ckls import (
    CirParams,
    CklsParams,
    DegenerateTransform,
    DomainError,
    RegimeError,
    Transform,
    classify_regime,
    default_c,
    derive_cir,
    make_transform,
    transition_spec,
)

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)


def finite_difference(f, x, h=1e-6):
    """Central finite differences for f' and f''."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    return d1, d2


class TestMakeTransform:
    def test_gamma_15_c1_is_reciprocal(self):
        tr = make_transform(HIGH, 1.0)
        assert tr.f(2.0) == pytest.approx(0.5, abs=0)  # f(x) = 1/x

    def test_default_c_gives_pure_power(self):
        # C = 2|1-gamma| = 0.5 makes f(x) = sqrt(x) for gamma = 0.75
        tr = make_transform(LOW)
        assert tr.c == default_c(0.75) == 0.5
        assert tr.f(4.0) == pytest.approx(2.0, rel=1e-15)

    def test_gamma_one_rejected(self):
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.0, r0=1.0)
        with pytest.raises(DegenerateTransform):
            make_transform(p, 1.0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            make_transform(HIGH, 0.0)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_nonfinite_c_rejected(self, c):
        with pytest.raises(ValueError, match=f"^C must be finite, got {c}$"):
            make_transform(HIGH, c)

    def test_bool_c_rejected(self):
        """C = True is not C = 1."""
        with pytest.raises(ValueError, match="^C must be a real number, got True$"):
            make_transform(HIGH, True)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_inverse_identity(self, x):
        tr = make_transform(HIGH, 1.0)
        assert tr.inverse(tr.f(x)) == pytest.approx(x, rel=1e-12)


class TestTransformValidation:
    """Transform checks its own fields, so no Transform gives a
    sign-folded C, a NaN or a ZeroDivisionError on first use."""

    @pytest.mark.parametrize("c,text", [
        (-1.0, "C must be positive, got -1.0"),
        (0.0, "C must be positive, got 0.0"),
        (math.nan, "C must be finite, got nan"),
        (math.inf, "C must be finite, got inf"),
        (10**400, "C must be finite, got an int of 1329 bits"),
        (True, "C must be a real number, got True"),
        (np.True_, f"C must be a real number, got {np.True_!r}"),
    ], ids=["negative", "zero", "nan", "inf", "int-past-float", "bool", "numpy-bool"])
    def test_bad_c_rejected(self, c, text):
        with pytest.raises(ValueError) as info:
            Transform(c=c, gamma=1.5)
        assert str(info.value) == text

    @pytest.mark.parametrize("gamma,text", [
        (math.nan, "gamma must be finite, got nan"),
        (math.inf, "gamma must be finite, got inf"),
        (10**400, "gamma must be finite, got an int of 1329 bits"),
        (True, "gamma must be a real number, got True"),
        (np.True_, f"gamma must be a real number, got {np.True_!r}"),
    ], ids=["nan", "inf", "int-past-float", "bool", "numpy-bool"])
    def test_bad_gamma_rejected(self, gamma, text):
        with pytest.raises(ValueError) as info:
            Transform(c=1.0, gamma=gamma)
        assert str(info.value) == text

    @pytest.mark.parametrize("field,value,text", [
        ("c", 10**400, "C must be finite, got an int of 1329 bits"),
        ("c", -(10**5000), "C must be finite, got a negative int of 16610 bits"),
        ("gamma", 10**5000, "gamma must be finite, got an int of 16610 bits"),
    ], ids=["c-401-digits", "c-negative-5001-digits", "gamma-5001-digits"])
    def test_int_past_float_range_echoed_by_its_size(self, field, value, text):
        """Its digits would fill hundreds of characters, and past 4300
        digits str() would raise in place of the message."""
        with pytest.raises(ValueError) as info:
            Transform(**{"c": 1.0, "gamma": 1.5, field: value})
        assert str(info.value) == text

    def test_gamma_one_is_degenerate(self):
        with pytest.raises(DegenerateTransform, match="power transform is undefined"):
            Transform(c=1.0, gamma=1.0)


class TestTransformEval:
    def test_reciprocal_derivatives(self):
        # f(x) = 1/x at x = 1: f = 1, f' = -1, f'' = 2
        tr = make_transform(HIGH, 1.0)
        assert (tr.f(1.0), tr.fprime(1.0), tr.fsecond(1.0)) == (1.0, -1.0, 2.0)

    def test_sqrt_derivatives(self):
        # f(x) = sqrt(x) at x = 4: f = 2, f' = 1/4, f'' = -1/32
        tr = make_transform(LOW, 0.5)
        assert tr.f(4.0) == pytest.approx(2.0, rel=1e-15)
        assert tr.fprime(4.0) == pytest.approx(0.25, rel=1e-15)
        assert tr.fsecond(4.0) == pytest.approx(-1.0 / 32.0, rel=1e-15)

    def test_gamma_125_against_finite_differences(self):
        # Oracle first: the closed forms must match central differences.
        # For gamma = 1.25, C = 1: f(x) = 4 x^(-1/2), so at x = 1 the
        # oracle gives (4, -2, 3).
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.25, r0=1.0)
        tr = make_transform(p, 1.0)
        d1, d2 = finite_difference(tr.f, 1.0)
        assert d1 == pytest.approx(-2.0, rel=1e-8)
        assert d2 == pytest.approx(3.0, rel=1e-3)  # fd2 roundoff ~ f eps/h^2
        assert tr.f(1.0) == pytest.approx(4.0, rel=1e-15)
        assert tr.fprime(1.0) == pytest.approx(d1, rel=1e-8)
        assert tr.fsecond(1.0) == pytest.approx(d2, rel=1e-3)

    def test_domain_error(self):
        tr = make_transform(HIGH, 1.0)
        for method in (tr.f, tr.fprime, tr.fsecond):
            with pytest.raises(DomainError):
                method(0.0)
        with pytest.raises(DomainError):
            tr.inverse(-1.0)

    def test_second_derivative_matches_fd_of_fprime_on_grid(self):
        # analytic f'' vs central differences of f' within 1e-6 relative
        for p, c in ((HIGH, 1.0), (LOW, 0.5), (HIGH, 3.0)):
            tr = make_transform(p, c)
            xs = np.geomspace(0.01, 100.0, 25)
            h = 1e-6 * xs
            fd = (tr.fprime(xs + h) - tr.fprime(xs - h)) / (2 * h)
            np.testing.assert_allclose(tr.fsecond(xs), fd, rtol=1e-6)


def _ulps_from_one(k: int) -> float:
    """gamma k ulps from 1: above it for k > 0, below it for k < 0."""
    g = 1.0
    for _ in range(abs(k)):
        g = float(np.nextafter(g, 2.0 if k > 0 else 0.0))
    return g


class TestNearGammaOne:
    """f, f' and f'' at gamma = 1 +- 1 to 4 ulps, where the constants are
    of order (1-gamma)^-2, against a 40-digit reference over x from
    1e-300 to 1e300.  x^(-2 gamma) in f'' overflows below x = 1e-154
    and is subnormal above 1e154 while f'' is not, at the default C
    (2|1-gamma|) too; there and wherever a constant or a power is not a
    normal float, the value is formed in logs, within 1e-12 of the
    reference, and 0 or infinite only where the reference is."""

    GAMMAS = [_ulps_from_one(k) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]
    XS = 10.0 ** np.arange(-300, 301, 5)

    @staticmethod
    def reference(name, c, g, x):
        c, g, x = mpmath.mpf(c), mpmath.mpf(g), mpmath.mpf(x)
        if name == "f":
            return float(c**2 / (4 * (1 - g) ** 2) * x ** (2 * (1 - g)))
        if name == "fprime":
            return float(c**2 / (2 * (1 - g)) * x ** (1 - 2 * g))
        return float(c**2 * (1 - 2 * g) / (2 * (1 - g)) * x ** (-2 * g))

    @pytest.mark.parametrize("name", ["f", "fprime", "fsecond"])
    @pytest.mark.parametrize("c", [None, 0.5, 2.0, 1e-160], ids=["default", "0.5", "2", "1e-160"])
    def test_against_mpmath(self, name, c):
        for g in self.GAMMAS:
            tr = Transform(default_c(g) if c is None else c, g)
            with mpmath.workdps(40):
                want = np.array([self.reference(name, tr.c, g, x) for x in self.XS])
            with np.errstate(over="ignore"):  # where the reference overflows too
                got = getattr(tr, name)(self.XS)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-322, err_msg=f"gamma={g!r}")

    @pytest.mark.parametrize("g", [_ulps_from_one(-1), _ulps_from_one(1), 1.5, 0.75])
    def test_normal_products_keep_their_bits(self, g):
        """Where the constant and the power are normal floats, each is the
        product of the two, as before the log form was added."""
        tr = Transform(2.0, g)
        xs = np.geomspace(1e-100, 1e100, 97)
        np.testing.assert_array_equal(tr.f(xs), 4.0 / (4.0 * (1.0 - g) ** 2) * xs ** (2.0 * (1.0 - g)))
        np.testing.assert_array_equal(tr.fprime(xs), 4.0 / (2.0 * (1.0 - g)) * xs ** (1.0 - 2.0 * g))
        np.testing.assert_array_equal(
            tr.fsecond(xs), 4.0 * (1.0 - 2.0 * g) / (2.0 * (1.0 - g)) * xs ** (-2.0 * g)
        )


class TestLargeC:
    """C past about 1.3e154, where C^2 overflows: f, f' and f'' are formed
    in logs where their values are representable, against the 40-digit
    reference of TestNearGammaOne."""

    XS = 10.0 ** np.arange(-300, 301, 5)

    @pytest.mark.parametrize("name", ["f", "fprime", "fsecond"])
    @pytest.mark.parametrize("c", [1e160, 1e300, 10**200], ids=["1e160", "1e300", "int-1e200"])
    @pytest.mark.parametrize("g", [1.5, 0.75])
    def test_against_mpmath(self, name, c, g):
        tr = Transform(c, g)
        with mpmath.workdps(40):
            want = np.array([TestNearGammaOne.reference(name, c, g, x) for x in self.XS])
        with np.errstate(over="ignore"):  # where the reference overflows too
            got = getattr(tr, name)(self.XS)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-322)

    def test_reciprocal_finite_from_1e12(self):
        """gamma = 1.5, C = 1e160: f(x) = 1e320 / x, past the float range
        below x of about 5.6e11."""
        tr = Transform(1e160, 1.5)
        assert tr.f(1e12) == pytest.approx(1e308, rel=1e-12)
        assert tr.f(1e20) == pytest.approx(1e300, rel=1e-12)
        assert tr.f(1e11) == math.inf


class TestTransformProperties:
    @given(
        gamma=st.floats(0.5, 2.5),
        c=st.floats(0.1, 10.0),
        x=st.floats(1e-3, 1e3),
    )
    def test_diffusion_identity(self, gamma, c, x):
        """x^gamma f'(x) = C sqrt(f(x)) sign(1-gamma) pointwise."""
        assume(abs(gamma - 1.0) > 1e-3)
        p = CklsParams(a=1.0, b=0.0, sigma=1.0, gamma=gamma, r0=1.0)
        tr = make_transform(p, c)
        lhs = x**gamma * tr.fprime(x)
        rhs = c * np.sqrt(tr.f(x)) * np.sign(1.0 - gamma)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(gamma=st.floats(0.5, 2.5), c=st.floats(0.1, 10.0))
    def test_roundtrip_on_log_grid(self, gamma, c):
        assume(abs(gamma - 1.0) > 1e-3)
        p = CklsParams(a=1.0, b=0.0, sigma=1.0, gamma=gamma, r0=1.0)
        tr = make_transform(p, c)
        xs = np.geomspace(1e-3, 1e3, 40)
        np.testing.assert_allclose(tr.inverse(tr.f(xs)), xs, rtol=1e-10)

    def test_monotonicity_direction(self):
        xs = np.geomspace(0.1, 10, 20)
        incr = make_transform(LOW, 0.5).f(xs)
        decr = make_transform(HIGH, 1.0).f(xs)
        assert np.all(np.diff(incr) > 0)
        assert np.all(np.diff(decr) < 0)


class TestDeriveCir:
    @pytest.mark.parametrize("name,value,text", [
        ("vol", -1.0, "must be positive, got -1.0"),
        ("vol", math.nan, "must be finite, got nan"),
        ("y0", 0.0, "must be positive, got 0.0"),
        ("y0", math.nan, "must be finite, got nan"),
        # each real field takes the real rule: no NaN, inf or bool passes
        ("drift_lin", math.nan, "must be finite, got nan"),
        ("drift_lin", -math.inf, "must be finite, got -inf"),
        ("drift_lin", True, "must be a real number, got True"),
        ("vol", math.inf, "must be finite, got inf"),
        ("y0", True, "must be a real number, got True"),
    ], ids=["vol--1.0", "vol-nan", "y0-0.0", "y0-nan",
            "drift_lin-nan", "drift_lin--inf", "drift_lin-True", "vol-inf", "y0-True"])
    def test_bad_cir_params_rejected(self, name, value, text):
        good = {"drift_lin": -0.1, "vol": 1.0, "y0": 1.0}
        with pytest.raises(ValueError) as info:
            CirParams(**dict(good, **{name: value}))
        assert str(info.value) == f"{name} {text}"

    def test_high_gamma_example(self):
        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        assert cir.drift_const == pytest.approx(0.0625, abs=0)
        assert cir.drift_lin == pytest.approx(-0.2, rel=1e-15)
        assert cir.vol == pytest.approx(0.5, abs=0)
        assert cir.y0 == pytest.approx(1.0, abs=0)

    def test_low_gamma_example_positive_linear_drift(self):
        cir = derive_cir(LOW, make_transform(LOW, 0.5))
        assert cir.drift_const == pytest.approx(0.015625, rel=1e-15)
        assert cir.drift_lin == pytest.approx(+0.1, rel=1e-12)
        assert cir.vol == pytest.approx(0.25, rel=1e-15)

    @given(
        b=st.floats(-2, 2),
        sigma=st.floats(0.05, 2),
        gamma=st.floats(1.01, 2.5),
        c=st.floats(0.1, 5),
    )
    # subnormal b: (gamma-1) * b rounds to 0 at gamma = 1.5, and
    # 2 b (1-gamma) itself rounds to -0.0 at gamma = 1.01
    @example(b=5e-324, sigma=1.0, gamma=1.5, c=1.0)
    @example(b=5e-324, sigma=1.0, gamma=1.01, c=1.0)
    def test_drift_const_is_quarter_vol_squared(self, b, sigma, gamma, c):
        p = CklsParams(a=1.0, b=b, sigma=sigma, gamma=gamma, r0=1.0)
        cir = derive_cir(p, make_transform(p, c))
        assert cir.drift_const == cir.vol**2 / 4.0
        # drift_lin has sign opposite to (gamma-1) * b.  The expected sign is
        # the product of the factors' signs, since the product itself can
        # underflow; drift_lin is read by its sign bit, which IEEE keeps when
        # a product of nonzero factors underflows to a signed zero.
        if b != 0:
            expected = -np.sign(gamma - 1.0) * np.sign(b)
            assert math.copysign(1.0, cir.drift_lin) == expected

    def test_has_three_fields(self):
        """drift_const is read off vol, so no CirParams can carry another
        (drift_const=1.0 with vol=1.0 would make a derived law of df 4)."""
        assert [f.name for f in dataclasses.fields(CirParams)] == ["drift_lin", "vol", "y0"]
        with pytest.raises(TypeError, match="drift_const"):
            CirParams(drift_const=1.0, drift_lin=-0.1, vol=1.0, y0=1.0)

    @given(
        b=st.floats(-2, 2),
        sigma=st.floats(0.05, 2),
        gamma=st.one_of(st.floats(0.51, 0.99), st.floats(1.01, 2.5)),
        c=st.floats(0.1, 5),
    )
    # 4 drift_const / vol^2 rounds to 1 + 1 ulp at the first example and
    # to 1 - 1 ulp at the second
    @example(b=0.2, sigma=0.3, gamma=1.5, c=3.0)
    @example(b=0.2, sigma=0.3, gamma=1.1, c=default_c(1.1))
    def test_derived_law_has_one_degree_of_freedom(self, b, sigma, gamma, c):
        """The derived law is the squared Gaussian on both branches, so
        its df is exactly 1.0 and it takes the df = 1 closed forms."""
        p = CklsParams(a=1.0, b=b, sigma=sigma, gamma=gamma, r0=1.0)
        assume(classify_regime(p).girsanov_valid)
        cir = derive_cir(p, make_transform(p, c))
        assert transition_spec(p, cir, 1.0, "derived").df == 1.0

    def test_regime_error_names_violation(self):
        p = CklsParams(a=1.0, b=-0.1, sigma=0.5, gamma=0.75, r0=1.0)
        with pytest.raises(RegimeError, match="b = -0.1"):
            derive_cir(p, make_transform(p))
