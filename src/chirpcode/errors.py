"""Exception hierarchy for chirpcode, and the type rule its numbers share.

Every failure raised by the library derives from ChirpcodeError so callers
(and the CLI) can distinguish library failures from programming errors.
"""

import numbers

import numpy as np


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


def is_number(value, kind: type = float) -> bool:
    """The one rule for what counts as a number: a real number, and for
    ``kind`` int an integer or a float with no fractional part; numpy scalars
    count, bool and str do not."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real) and (
        kind is float or isinstance(value, numbers.Integral) or float(value).is_integer()))


def is_integer(value) -> bool:
    """``is_number(value, int)``."""
    return is_number(value, int)


_NOUNS = {float: "a number", int: "an integer"}


def config_value(name: str, value, kind: type):
    """``value`` as a Python ``kind``, float or int, or a ConfigError naming ``name``."""
    if not is_number(value, kind):
        raise ConfigError(f"{name} must be {_NOUNS[kind]}, got {value!r}")
    return kind(value)


def number_array(name: str, values, kind: type, error: type) -> np.ndarray:
    """``values`` as an int64 (``kind`` int) or float64 (``kind`` float) array,
    or ``error`` for the first item that is not such a number (``is_number``)
    or lies beyond the dtype's range.

    An ndarray of integer dtype, or for float also of float dtype, passes
    after that one test, as a solver's arrays do. Anything else is checked
    item by item, since ``np.asarray([True, 2])`` is an integer array and
    ``float("1")`` is 1.0. ``name`` is formatted with the item's flat
    position, so ``"channel {}: f"`` names it.
    """
    dtype = np.int64 if kind is int else np.float64
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iu" if kind is int else "iuf"):
        return np.asarray(values, dtype=dtype)
    items = np.asarray(values, dtype=object)
    out = np.empty(items.size, dtype)
    for i, value in enumerate(items.flat):
        if not is_number(value, kind):
            raise error(f"{name.format(i)} must be {_NOUNS[kind]}, got {value!r}")
        try:
            out[i] = value
        except (OverflowError, ValueError) as exc:
            raise error(f"{name.format(i)} out of range, got {value!r}") from exc
    return out.reshape(items.shape)
