"""Exception types shared across the package.

Numerical routines raise these instead of bare ValueError so callers (and
the CLI exit-code mapping) can distinguish bad configuration from a failed
computation.
"""


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
