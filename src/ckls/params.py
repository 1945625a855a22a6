"""Model parameters and regime classification.

The short-rate model is

    dr_t = (a - b r_t) dt + sigma r_t^gamma dB_t,   r_0 > 0,

with a > 0, b real, sigma > 0 and elasticity exponent gamma >= 1/2.
Which closed-form machinery applies depends on where (gamma, sigma, b, a)
sit relative to two sets of hypotheses, captured by `classify_regime`.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import asdict, dataclass

from .errors import RegimeError
from .numerics import _echo, finite_float

__all__ = [
    "CklsParams",
    "GirsanovBranch",
    "MomentCase",
    "Regime",
    "classify_regime",
    "require_transformable",
]


@dataclass(frozen=True)
class CklsParams:
    """The model quadruple (a, b, sigma, gamma) plus the initial rate r0.

    All five must be real numbers, not bools, that convert to finite floats.

    a       drift level (rate/time), must be positive
    b       mean-reversion speed (1/time), any sign
    sigma   volatility scale, must be positive
    gamma   elasticity exponent, dimensionless, must be >= 1/2
    r0      initial rate, must be positive
    """

    a: float
    b: float
    sigma: float
    gamma: float
    r0: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "sigma", "gamma", "r0"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not finite_float(value):
                raise ValueError(f"{name} must be finite, got {_echo(value)}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.gamma >= 0.5:
            raise ValueError(f"gamma must be >= 1/2, got {self.gamma}")
        if not self.r0 > 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")

    @classmethod
    def from_dict(cls, obj: dict) -> "CklsParams":
        """The five values as given, checked by the constructor, not converted."""
        return cls(a=obj["a"], b=obj["b"], sigma=obj["sigma"], gamma=obj["gamma"], r0=obj["r0"])

    def to_dict(self) -> dict:
        return asdict(self)


class GirsanovBranch(enum.Enum):
    """Which hypothesis admits the change of measure."""

    HIGH_GAMMA = "HighGamma"  # gamma > 1
    LOW_GAMMA = "LowGamma"    # gamma in (1/2, 1), gamma/sigma >= 1, b > 0


class MomentCase(enum.Enum):
    """Which moment-bound case applies."""

    CASE_I = "CaseI"    # 1/2 <= gamma < 1 and (2 gamma + 1) sigma^2 <= 2 a
    CASE_II = "CaseII"  # 1 < gamma <= 3/2


@dataclass(frozen=True)
class Regime:
    """Outcome of the hypothesis checks for a parameter set.

    girsanov_valid is True iff one of the two change-of-measure branches
    matches; gamma = 1 always yields no branch.  moment_valid mirrors the
    moment-bound hypotheses.
    """

    girsanov_valid: bool
    girsanov_branch: GirsanovBranch | None
    moment_valid: bool
    moment_case: MomentCase | None

    def to_dict(self) -> dict:
        return {
            "girsanov_valid": self.girsanov_valid,
            "girsanov_branch": self.girsanov_branch.value if self.girsanov_branch else None,
            "moment_valid": self.moment_valid,
            "moment_case": self.moment_case.value if self.moment_case else None,
        }


def classify_regime(p: CklsParams) -> Regime:
    """Classify a valid parameter set against the two hypothesis sets.

    All inequalities are checked exactly as stated: strict where strict,
    non-strict where non-strict (so gamma/sigma = 1 is accepted in the
    low-gamma branch).  Pure and total on valid parameters.
    """
    girsanov_branch: GirsanovBranch | None = None
    if p.gamma > 1.0:
        girsanov_branch = GirsanovBranch.HIGH_GAMMA
    elif 0.5 < p.gamma < 1.0 and p.gamma / p.sigma >= 1.0 and p.b > 0.0:
        girsanov_branch = GirsanovBranch.LOW_GAMMA

    moment_case: MomentCase | None = None
    if 1.0 < p.gamma <= 1.5:
        moment_case = MomentCase.CASE_II
    elif 0.5 <= p.gamma < 1.0 and (2.0 * p.gamma + 1.0) * p.sigma**2 <= 2.0 * p.a:
        moment_case = MomentCase.CASE_I

    return Regime(
        girsanov_valid=girsanov_branch is not None,
        girsanov_branch=girsanov_branch,
        moment_valid=moment_case is not None,
        moment_case=moment_case,
    )


def require_transformable(p: CklsParams) -> None:
    """Raise RegimeError naming the violated inequality unless one of the
    two change-of-measure branches matches."""
    if classify_regime(p).girsanov_valid:
        return
    if p.gamma == 1.0:
        raise RegimeError("gamma = 1 is excluded (need gamma > 1 or gamma in (1/2, 1))")
    if p.gamma <= 0.5:
        raise RegimeError(f"gamma = {p.gamma} <= 1/2 (need gamma > 1 or gamma in (1/2, 1))")
    parts = []
    if p.gamma / p.sigma < 1.0:
        parts.append(f"gamma/sigma = {p.gamma / p.sigma:g} < 1")
    if p.b <= 0.0:
        parts.append(f"b = {p.b:g} <= 0")
    raise RegimeError("low-gamma branch needs gamma/sigma >= 1 and b > 0: " + ", ".join(parts))
