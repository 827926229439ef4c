"""Exception hierarchy shared across the toolkit, and the one reader that
turns a JSON object into a dataclass.

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


def config_from_dict(cls, raw):
    """Build dataclass ``cls`` from ``raw``, a JSON object read from a config
    file or a checkpoint. Every config section, and every checkpoint's model
    config and normalization stats, is built here and nowhere else.

    Raises TypeError unless ``raw`` is a dict whose every key names a field of
    ``cls`` and whose every value has that field's declared type; then the
    dataclass's own checks run. Types match exactly, so an int field takes no
    float or bool and a bool field takes only a bool; a float field also
    takes an int. A float must be finite: JSON readers accept NaN and
    Infinity, and no field has a use for them.
    """
    if not isinstance(raw, dict):
        raise TypeError("must be a JSON object, got %r" % (raw,))
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise TypeError("unknown keys %s" % unknown)
    for name, value in raw.items():
        declared = hints[name]
        int_for_float = type(value) is int and declared is float
        if type(value) is not declared and not int_for_float:
            raise TypeError("%s must be %s, got %r" % (name, declared.__name__, value))
        if type(value) is float and not math.isfinite(value):
            raise TypeError("%s must be finite, got %r" % (name, value))
    return cls(**raw)
