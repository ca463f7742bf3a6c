"""Exception types shared across the package, and the one rule for numbers.

Numerical routines raise these instead of bare ValueError so callers (and
the CLI exit-code mapping) can distinguish bad configuration from a failed
computation.

``read_number`` is the rule every entry point applies to a caller-supplied
number: finite (bools and strings are not numbers), integral where an int
is asked for, within its bounds; each caller names the exception class.
``read_numbers`` applies it to every entry of an array: states, operators,
angles, times and momenta.  ``read_fields`` applies it to one JSON object
of a config or spec, ``read_own_fields`` to a config object's ``FIELDS``,
and ``write_rows`` is the one CSV writer, which writes no NaN or infinity.
They live here, below every other module, so that every layer can use them.
"""

import cmath
import dataclasses
import numbers
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


class SingularTimeError(GaugesimError):
    """Propagation kernel evaluated at a singular time (sin(BT/2) ~ 0)."""


class StepUnderflowError(GaugesimError):
    """ODE integration grid is degenerate."""


class InvalidTimesError(GaugesimError):
    """Evolution time not finite, or scattering insertion time outside [0, total_T]."""


def _is_number(v, kind, finite: bool) -> bool:
    """Whether ``v`` is a ``kind``: a number, no bool, real unless ``kind`` is complex, finite if ``finite``."""
    try:  # an int too large for a float overflows in cmath.isfinite
        return (isinstance(v, numbers.Number if kind is complex else numbers.Real)
                and not isinstance(v, bool) and (cmath.isfinite(v) or not finite))
    except OverflowError:
        return False


def read_number(val, where: str, kind, minimum=None, maximum=None, error=InvalidConfigError):
    """``val`` as a finite ``kind`` (float, int or complex) within the bounds, else ``error``.

    Bools (numpy's included) and strings are not numbers here, and an int
    must hold an integral value: 16.0 and np.int64(16) read as 16, 16.5
    is refused, never truncated.
    """
    if not _is_number(val, kind, True):
        raise error(f"{where}: expected a finite number, got {val!r}")
    if kind is int and val != int(val):
        raise error(f"{where}: expected an integer, got {val!r}")
    out = kind(val)
    if minimum is not None and out < minimum:
        raise error(f"{where}: must be >= {minimum}, got {val}")
    if maximum is not None and out > maximum:
        raise error(f"{where}: must be <= {maximum}, got {val}")
    return out


def read_numbers(values, what: str, error=InvalidConfigError, kind=float, finite=True) -> np.ndarray:
    """``values`` as an array of ``kind`` (float or complex), ``read_number``'s
    rule applied to each entry: a numeric ndarray (complex only for a complex
    ``kind``) by one vectorized finiteness pass and without a copy when it has
    the dtype, anything else entry by entry.  ``finite=False`` lets NaN and
    infinities pass (a matrix, which the Hermiticity check then refuses)."""
    need = "finite number" if finite else "number"
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iuf" if kind is float else "iufc"):
        out = values.astype(kind, copy=False)
        if not finite or np.isfinite(out).all():
            return out
        k = int(np.isfinite(out).argmin())  # the first non-finite entry
        raise error(f"{what}: entry {k} is not a {need}, got {out.flat[k].item()!r}")
    entries = np.asarray(values, dtype=object)
    for k, v in enumerate(entries.flat):
        if not _is_number(v, kind, finite):
            raise error(f"{what}: entry {k} is not a {need}, got {v!r}")
    return entries.astype(kind)


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


def read_own_fields(config, where: str) -> None:
    """One ``read_fields`` pass over a frozen dataclass's ``FIELDS``, in place.

    The table names the fields a config object reads from JSON and their
    rules; a field whose declared default is None may stay None (not given).
    """
    optional = {f.name for f in dataclasses.fields(config) if f.default is None}
    given = {name: getattr(config, name) for name in config.FIELDS}
    given = {name: val for name, val in given.items() if not (val is None and name in optional)}
    for name, val in read_fields(given, where, config.FIELDS).items():
        object.__setattr__(config, name, val)


#: Cells ``write_rows`` formats with one ``%``: an 11 x 769 table is one block.
_BLOCK_CELLS = 1 << 14


def write_rows(path, header: str, table: np.ndarray):
    """``header`` and one line per row of ``table``, every cell formatted
    %.17g, enough digits to read each float back exactly.  A table holding
    NaN or an infinity is refused with GaugesimError before the file opens.
    The cells are read as one flat list and formatted a block of rows at a
    time, so no container is made per row."""
    read_numbers(table, f"nothing written to {path}; table", GaugesimError)
    cols = table.shape[1]
    line = ",".join(["%.17g"] * cols) + "\n"
    per_block = max(1, _BLOCK_CELLS // max(cols, 1))
    cells = table.ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), per_block):
            count = min(per_block, len(table) - start)
            fh.write((line * count) % tuple(cells[start * cols:(start + count) * cols]))
