"""Exception hierarchy shared across the package.

Every error carries the process exit code the CLI maps it to:
2 = bad configuration or bad programmatic input, 3 = malformed or
unreadable data file, 4 = numeric failure or empty result.
"""


class LexipivotError(Exception):
    exit_code = 1


class ConfigError(LexipivotError):
    exit_code = 2


class InputError(ConfigError):
    """Invalid arguments to a library operation."""


class ShapeError(InputError):
    """Tensor dimensions do not match what an operation requires."""


class FormatError(LexipivotError):
    """A data file does not conform to its documented layout."""

    exit_code = 3


class NumericError(LexipivotError):
    """NaN/Inf encountered, or a numeric procedure cannot proceed."""

    exit_code = 4


class EmptyResultError(LexipivotError):
    exit_code = 4

