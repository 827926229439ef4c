"""Exception hierarchy shared across the toolkit, and the type check of
config values read from a file.

The command-line layer maps these onto process exit codes:
ConfigError -> 2, DataError -> 3, NumericError -> 4.
"""

import math
import typing


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ToolkitError):
    """Invalid configuration value or malformed config file."""


class DataError(ToolkitError):
    """Input data violates the expected schema or an invariant."""


class NumericError(ToolkitError):
    """Numerical failure: non-finite loss, Cholesky breakdown, bad shapes."""


def check_field_types(cls, values: dict) -> None:
    """Raise TypeError unless every key names a field of dataclass ``cls`` and
    every value has that field's declared type.

    Types match exactly, so an int field takes no float or bool and a bool
    field takes only a bool; a float field also takes an int. A float must
    be finite: JSON readers accept NaN and Infinity, and no field has a use
    for them.
    """
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise TypeError("unknown keys %s" % unknown)
    for name, value in values.items():
        declared = hints[name]
        int_for_float = type(value) is int and declared is float
        if type(value) is not declared and not int_for_float:
            raise TypeError("%s must be %s, got %r" % (name, declared.__name__, value))
        if type(value) is float and not math.isfinite(value):
            raise TypeError("%s must be finite, got %r" % (name, value))
