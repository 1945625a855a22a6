"""Parameter validation and regime classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckls import (
    CirParams,
    CklsParams,
    GirsanovBranch,
    MomentCase,
    RegimeError,
    TimeGrid,
    Transform,
    classify_regime,
    derive_cir,
    euler_under_q,
    exact_sqrt_level,
    explicit_rate,
    explicit_rate_on_grid,
    sample_cir_exact,
    transition_spec,
)
from ckls.params import require_transformable


HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)


class TestValidation:
    def test_accepts_reference_sets(self):
        assert HIGH.gamma == 1.5
        assert LOW.gamma == 0.75

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.0},
            {"a": -1.0},
            {"sigma": 0.0},
            {"sigma": -0.1},
            {"gamma": 0.49},
            {"r0": 0.0},
            {"r0": -2.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CklsParams(**base)

    @given(
        name=st.sampled_from(["a", "b", "sigma", "gamma", "r0"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
    )
    def test_rejects_non_finite(self, name, value):
        # b has no sign constraint, so b = nan used to pass as a HIGH set
        kwargs = dict(HIGH.to_dict(), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CklsParams(**kwargs)

    @pytest.mark.parametrize("value,size", [
        (10**400, "an int of 1329 bits"), (-(10**5000), "a negative int of 16610 bits"),
    ], ids=["401-digits", "negative-5001-digits"])
    def test_int_past_float_range_echoed_by_its_size(self, value, size):
        """Its digits would fill hundreds of characters, and past 4300
        digits str() would raise in place of the message."""
        with pytest.raises(ValueError) as info:
            CklsParams(**dict(HIGH.to_dict(), a=value))
        assert str(info.value) == f"a must be finite, got {size}"

    @pytest.mark.parametrize("name,rule", [
        ("a", "must be positive"), ("sigma", "must be positive"),
        ("gamma", "must be >= 1/2"), ("r0", "must be positive"),
    ], ids=["a", "sigma", "gamma", "r0"])
    def test_int_in_float_range_echoed_by_its_size(self, name, rule):
        """A wide int inside the float range fails the sign or range check,
        not the finite one, and is named by its size there too."""
        with pytest.raises(ValueError) as info:
            CklsParams(**dict(HIGH.to_dict(), **{name: -(10**300)}))
        assert str(info.value) == f"{name} {rule}, got a negative int of 997 bits"
        assert len(str(info.value)) < 100

    def test_negative_b_allowed(self):
        CklsParams(a=1.0, b=-0.3, sigma=0.5, gamma=1.5, r0=1.0)

    def test_dict_roundtrip(self):
        assert CklsParams.from_dict(HIGH.to_dict()) == HIGH

    @pytest.mark.parametrize("name", ["a", "b", "sigma", "gamma", "r0"])
    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_rejects_bools(self, name, value):
        """A bool is not a real parameter, and to_dict would give it back
        as a bool."""
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            CklsParams(**dict(HIGH.to_dict(), **{name: value}))

    @pytest.mark.parametrize("value", ["1", True], ids=["string", "bool"])
    def test_from_dict_does_not_convert(self, value):
        """from_dict hands the values to the checking constructor as they
        are, without float(), which would take "1" and True."""
        with pytest.raises(ValueError, match="^a must be a real number"):
            CklsParams.from_dict(dict(HIGH.to_dict(), a=value))


class TestClassifyRegime:
    def test_high_gamma_reference(self):
        r = classify_regime(HIGH)
        assert r.girsanov_valid and r.girsanov_branch is GirsanovBranch.HIGH_GAMMA
        assert r.moment_valid and r.moment_case is MomentCase.CASE_II

    def test_low_gamma_reference(self):
        # gamma/sigma = 0.75/0.5 = 1.5 >= 1, b > 0; (2g+1) sigma^2 = 0.625 <= 2a
        r = classify_regime(LOW)
        assert r.girsanov_valid and r.girsanov_branch is GirsanovBranch.LOW_GAMMA
        assert r.moment_valid and r.moment_case is MomentCase.CASE_I

    def test_low_gamma_needs_positive_b(self):
        r = classify_regime(CklsParams(a=1.0, b=-0.1, sigma=0.5, gamma=0.75, r0=1.0))
        assert not r.girsanov_valid and r.girsanov_branch is None
        assert r.moment_case is MomentCase.CASE_I

    def test_gamma_one_yields_no_branch(self):
        r = classify_regime(CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.0, r0=1.0))
        assert not r.girsanov_valid
        assert not r.moment_valid

    def test_gamma_half_boundary(self):
        # gamma = 1/2 is outside the open interval for the measure change
        # but inside case I of the moment bounds
        r = classify_regime(CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.5, r0=1.0))
        assert not r.girsanov_valid
        assert r.moment_case is MomentCase.CASE_I

    def test_gamma_over_sigma_boundary_accepted(self):
        # the low-gamma branch flips exactly at gamma/sigma = 1 (>= accepted)
        at = classify_regime(CklsParams(a=1.0, b=0.2, sigma=0.75, gamma=0.75, r0=1.0))
        below = classify_regime(CklsParams(a=1.0, b=0.2, sigma=0.7501, gamma=0.75, r0=1.0))
        assert at.girsanov_branch is GirsanovBranch.LOW_GAMMA
        assert below.girsanov_branch is None

    def test_moment_case_ii_upper_boundary(self):
        assert classify_regime(
            CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
        ).moment_case is MomentCase.CASE_II
        assert classify_regime(
            CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5001, r0=1.0)
        ).moment_case is None

    @given(
        a=st.floats(0.01, 10),
        b=st.floats(-2, 2),
        sigma=st.floats(0.01, 5),
        gamma=st.floats(0.5, 3),
    )
    def test_branches_mutually_exclusive_and_pure(self, a, b, sigma, gamma):
        p = CklsParams(a=a, b=b, sigma=sigma, gamma=gamma, r0=1.0)
        r1 = classify_regime(p)
        r2 = classify_regime(p)
        assert r1 == r2
        if r1.girsanov_branch is GirsanovBranch.HIGH_GAMMA:
            assert gamma > 1
        if r1.girsanov_branch is GirsanovBranch.LOW_GAMMA:
            assert 0.5 < gamma < 1 and gamma / sigma >= 1 and b > 0
        if gamma == 1.0:
            assert r1.girsanov_branch is None

    def test_json_report_uses_branch_names(self):
        d = classify_regime(HIGH).to_dict()
        assert d["girsanov_branch"] == "HighGamma"
        assert d["moment_case"] == "CaseII"


class TestRequireTransformable:
    """Every operation that needs the change of measure rejects a set
    outside both branches with a RegimeError naming the inequality."""

    CIR = CirParams(drift_lin=-0.1, vol=1.0, y0=1.0)
    ENTRY_POINTS = {
        # any valid Transform: the check is derive_cir's on p, and
        # Transform itself refuses gamma = 1
        "derive_cir": lambda p, cir: derive_cir(p, Transform(c=1.0, gamma=1.5)),
        "transition_spec": lambda p, cir: transition_spec(p, cir, 1.0),
        "exact_sqrt_level": lambda p, cir: exact_sqrt_level(cir, p, 1.0, 0.5),
        "euler_under_q": lambda p, cir: euler_under_q(p, TimeGrid(1.0, 4), np.zeros((2, 4))),
        "explicit_rate": lambda p, cir: explicit_rate(p, 1.0, 0.5),
        "explicit_rate_on_grid": lambda p, cir: explicit_rate_on_grid(
            p, TimeGrid(1.0, 4), np.zeros((2, 4))
        ),
        "sample_cir_exact": lambda p, cir: sample_cir_exact(cir, p, 1.0, [0.1, -0.2, 0.3]),
    }

    def test_gamma_one_half_is_in_no_branch(self):
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.5, r0=1.0)
        with pytest.raises(RegimeError, match=r"^gamma = 0.5 <= 1/2"):
            require_transformable(p)

    def test_euler_under_q_at_gamma_one_half(self):
        """No transformed measure exists at gamma = 1/2, so there are no
        transformed-measure dynamics to run."""
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.5, r0=1.0)
        with pytest.raises(RegimeError, match=r"^gamma = 0.5 <= 1/2"):
            euler_under_q(p, TimeGrid(1.0, 4), np.zeros((2, 4)))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "kwargs,inequality",
        [
            ({"gamma": 1.0}, "gamma = 1 is excluded"),
            ({"gamma": 0.75, "b": -0.2}, "b = -0.2 <= 0"),
            ({"gamma": 0.75, "sigma": 1.0}, "gamma/sigma = 0.75 < 1"),
        ],
        ids=["gamma-one", "b-negative", "sigma-above-gamma"],
    )
    def test_message_names_inequality(self, entry, kwargs, inequality):
        p = CklsParams(**{"a": 1.0, "b": 0.2, "sigma": 0.5, "r0": 1.0, **kwargs})
        with pytest.raises(RegimeError) as info:
            self.ENTRY_POINTS[entry](p, self.CIR)
        assert inequality in str(info.value)
