"""Exception types shared across the package."""


class CklsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CklsError, ValueError):
    """Argument outside the mathematical domain of an operation (e.g. x <= 0)."""


class DegenerateTransform(CklsError, ValueError):
    """gamma = 1: the power transform and everything built on it is undefined."""


class RegimeError(CklsError, ValueError):
    """Parameters violate the hypothesis required by the requested operation.

    The message names the violated inequality.
    """


class InputError(CklsError, ValueError):
    """Invalid input: a count or real failing its rule, a length mismatch, ..."""


class DegenerateWeights(CklsError, ValueError):
    """All importance weights are zero; no estimate can be formed."""


class SingularSample(CklsError, ArithmeticError):
    """A probability-zero singular value was hit numerically; resample."""


class ConfigError(CklsError, ValueError):
    """Malformed run configuration (bad JSON, unknown keys, bad values)."""


class UnknownSuite(CklsError, KeyError):
    """A verify suite name that is neither "default" nor a check name."""

    def __str__(self) -> str:
        # KeyError's own str is the repr of its argument, quotes and all
        return str(self.args[0])
