"""Exception taxonomy for qclab.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map exceptions to exit codes without string matching.
"""

import math
import numbers

__all__ = [
    "AccuracyError",
    "BreakSetError",
    "DegenerateExperimentError",
    "DomainError",
    "GaugeOverflowError",
    "InputError",
    "NonFiniteSampleError",
    "QclabError",
    "UnsupportedVariantError",
    "require_real",
]


class QclabError(Exception):
    """Base class for all qclab-specific errors."""


class InputError(QclabError, ValueError):
    """Invalid user-supplied parameter (bad range, malformed token, ...)."""


def require_real(value, message, condition=None, *, integer=False) -> None:
    """Raise ``InputError(message)`` unless ``value`` is a valid scalar parameter.

    Valid means a finite ``numbers.Real`` (``numbers.Integral`` when
    ``integer``) that is not a ``bool`` and satisfies ``condition`` if given.
    The value is only checked, never converted, so stored parameters keep
    their type and repr.
    """
    kind = numbers.Integral if integer else numbers.Real
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or not (isinstance(value, numbers.Integral) or math.isfinite(value))
        or (condition is not None and not condition(value))
    ):
        raise InputError(message)


class DomainError(QclabError, ValueError):
    """A mathematical object was evaluated outside its domain."""


class BreakSetError(QclabError):
    """A derivative or quadrature sample landed on a discontinuity set."""


class AccuracyError(QclabError):
    """A requested evaluation cannot meet its accuracy contract."""


class NonFiniteSampleError(QclabError):
    """A quadrature sample produced NaN or infinity."""

    def __init__(self, message, cell_index=None, center=None):
        super().__init__(message)
        self.cell_index = cell_index
        self.center = center


class UnsupportedVariantError(QclabError):
    """The requested operation is not defined for this variant/combination."""


class DegenerateExperimentError(QclabError):
    """An experiment's preconditions make its outcome vacuous."""


class GaugeOverflowError(NonFiniteSampleError, DegenerateExperimentError):
    """``phi(K)`` overflowed a float: a degenerate experiment that names its first cell."""
