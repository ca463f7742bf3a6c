"""Exception types shared across the package, and the one rule for numbers.

Numerical routines raise these instead of bare ValueError so callers (and
the CLI exit-code mapping) can distinguish bad configuration from a failed
computation.

``read_number`` is the rule every entry point applies to a caller-supplied
count, index or scale: a finite number (bools and strings are not numbers),
integral where an int is asked for, within its bounds.  Each caller names
the exception class its failures raise.  ``read_fields`` applies it to one
JSON object of a config or spec.  Both live here, below every other module,
so that every layer can use them.
"""

import math
from typing import Mapping

import numpy as np


class GaugesimError(Exception):
    """Base class for all package errors."""


class InvalidSizeError(GaugesimError):
    """Basis or grid size below the minimum (or otherwise unusable)."""


class DimensionMismatchError(GaugesimError):
    """Operator/state dimensions are incompatible."""


class NotHermitianError(GaugesimError):
    """A matrix required to be Hermitian fails the tolerance check."""


class NotPowerOfTwoError(DimensionMismatchError):
    """Matrix dimension is not 2**n for integer n."""


class IndexOutOfRangeError(GaugesimError):
    """State or grid index outside the valid range."""


class InvalidConfigError(GaugesimError):
    """An experiment configuration, ansatz or HamiltonianSpec is invalid."""


#: Same class as InvalidConfigError: a spec is one section of a config.
InvalidSpecError = InvalidConfigError


class SingularTimeError(GaugesimError):
    """Propagation kernel evaluated at a singular time (sin(BT/2) ~ 0)."""


class StepUnderflowError(GaugesimError):
    """ODE integration grid is degenerate."""


class InvalidTimesError(GaugesimError):
    """Evolution time not finite, or scattering insertion time outside [0, total_T]."""


def read_number(val, where: str, kind, minimum=None, maximum=None, error=InvalidConfigError):
    """``val`` as a finite ``kind`` (float or int) within the bounds, else ``error``.

    Bools (numpy's included) and strings are not numbers here, and an int
    must hold an integral value: 16.0 and np.int64(16) read as 16, 16.5
    is refused, never truncated.
    """
    try:
        finite = not isinstance(val, (bool, np.bool_)) and math.isfinite(val)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise error(f"{where}: expected a finite number, got {val!r}")
    if kind is int and val != int(val):
        raise error(f"{where}: expected an integer, got {val!r}")
    val = kind(val)
    if minimum is not None and val < minimum:
        raise error(f"{where}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise error(f"{where}: must be <= {maximum}, got {val}")
    return val


def read_fields(obj, where: str, fields: Mapping, required=()) -> dict:
    """Strictly read one JSON object of a config or spec.

    ``fields`` maps every known key to its rule: ``float`` or ``int`` for
    a number (see ``read_number``), or ``(kind, minimum[, maximum])`` for
    a bounded one; any other tuple lists the allowed values; ``None``
    passes the value on for the caller to check.  Unknown keys and
    missing ``required`` keys are errors.  Returns the keys present.
    """
    if not isinstance(obj, Mapping):
        raise InvalidConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise InvalidConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InvalidConfigError(f"{where}: missing keys {sorted(missing)}")
    out = dict(obj)
    for key, val in obj.items():
        rule = (fields[key],) if fields[key] in (int, float) else fields[key]
        if rule is None:
            continue
        if rule[0] in (int, float):
            out[key] = read_number(val, f"{where}.{key}", *rule)
        elif not any(type(val) is type(c) and val == c for c in rule):
            raise InvalidConfigError(f"{where}.{key}: expected one of {list(rule)}, got {val!r}")
    return out
