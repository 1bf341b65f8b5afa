"""Exception hierarchy for the squeeze_aba package.

Validation failures double as ValueError so callers using generic
``except ValueError`` still catch them; runtime solver failures do not.
"""

from __future__ import annotations


class SqueezeAbaError(Exception):
    """Base class for all package errors."""


class ValidationError(SqueezeAbaError, ValueError):
    """Inputs violate a documented contract."""


# -- channel / distribution validation ---------------------------------------


class EmptyMatrixError(ValidationError):
    """Channel matrix has no rows or no columns, or a single row: a
    channel needs at least 2 input letters."""


class NegativeEntryError(ValidationError):
    """A probability vector or matrix contains a negative entry."""


class RowSumToleranceError(ValidationError):
    """A channel row sum deviates from 1 beyond the renormalization window."""


class ZeroColumnError(ValidationError):
    """A channel column is identically zero (unreceivable output letter)."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix shapes are inconsistent."""


# -- squeeze-parameter feasibility --------------------------------------------


class InfeasibleFloorError(ValidationError):
    """Total floor mass is 1 or more; no room left on the simplex."""


class FloorConstraintError(ValidationError):
    """Floor vector r is too large: some channel entry falls below the
    floor mixture rW, so the squeezed channel would be invalid."""


class SqueezeConstraintError(ValidationError):
    """Output offset f is too large: the squeezed matrix would have a
    materially negative entry."""


class LambdaRangeError(ValidationError):
    """Exponent gain outside its feasible interval for this channel."""


class DegenerateChannelError(ValidationError):
    """All channel rows are equal; the quantity is undefined or infinite."""


class NotTwoByNError(ValidationError):
    """Operation requires a binary-input (2 x n) channel."""


# -- waterfilling --------------------------------------------------------------


class NonpositiveWeightError(ValidationError):
    """Waterfilling weights must be strictly positive."""


# -- solver runtime ------------------------------------------------------------


class NonInteriorStartError(ValidationError):
    """Iteration started from a point with a zero component."""


class NumericalBreakdownError(SqueezeAbaError):
    """The iteration produced a state the update cannot continue from
    (zero output mass under a supported column, or lost monotonicity)."""


# -- rate analysis --------------------------------------------------------------


class BoundaryFixedPointError(SqueezeAbaError):
    """Fixed point sits on the boundary of the floored simplex; the local
    rate formula does not apply there."""


class NotAFixedPointError(SqueezeAbaError):
    """The supplied point moves under one iteration step; rate analysis
    requires a converged fixed point."""


# -- file I/O -------------------------------------------------------------------


class ChannelFileError(ValidationError):
    """Channel or parameter file is missing, malformed, or inconsistent."""
