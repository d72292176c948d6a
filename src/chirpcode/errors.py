"""Exception hierarchy for chirpcode, and the type rule its numbers share.

Every failure raised by the library derives from ChirpcodeError so callers
(and the CLI) can distinguish library failures from programming errors.
"""

import numbers


class ChirpcodeError(Exception):
    """Base class for all chirpcode failures."""


class ParameterError(ChirpcodeError):
    """A filter parameter violates its domain (e.g. negative frequency)."""


class SynthesisError(ChirpcodeError):
    """Atom synthesis produced a degenerate (zero-norm or non-finite) filter."""


class ConfigError(ChirpcodeError):
    """Invalid dictionary geometry, solver, or adaptation configuration."""


class SignalError(ChirpcodeError):
    """An input signal is unusable (too short, wrong shape, non-finite)."""


class CodeError(ChirpcodeError):
    """A sparse code is inconsistent (out-of-range indices, duplicates)."""


class SolverError(ChirpcodeError):
    """The LCA iteration diverged or produced non-finite values."""


class GradientError(ChirpcodeError):
    """Gradient computation failed (non-finite values or a trace mismatch)."""


class OptimizerError(ChirpcodeError):
    """An optimizer update produced non-finite parameters."""


class AudioIngestError(ChirpcodeError):
    """A WAV file or corpus manifest could not be ingested."""


def is_integer(value) -> bool:
    """An integer, or a float with no fractional part; numpy scalars count,
    bool and str do not."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and (isinstance(value, numbers.Integral) or float(value).is_integer()))


def config_value(name: str, value, kind: type):
    """``value`` as a Python ``kind``, float or int, or a ConfigError naming ``name``.

    A float setting takes any real number and an int setting an integer
    (``is_integer``); numpy scalars count, bool and str do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            kind is int and not is_integer(value)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return kind(value)
