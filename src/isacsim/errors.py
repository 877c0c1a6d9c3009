"""Exception types shared by the library and the command line front end.

Each maps to a distinct process exit code so scripted callers can tell a
bad input apart from a numerical breakdown or a feature gap.
"""


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration input (exit code 2)."""


class NumericError(ArithmeticError):
    """A numerical routine failed to converge or produced non-finite output (exit code 3)."""


class UnsupportedFeatureError(NotImplementedError):
    """A recognized but intentionally unsupported mode: a mono-static background (exit code 4)."""
