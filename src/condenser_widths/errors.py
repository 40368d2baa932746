"""Exception types shared across the package."""


class CondenserWidthsError(Exception):
    """Base class for all package errors."""


class GeometryValidationError(CondenserWidthsError):
    """A condenser failed a geometric validity check; the message names the check."""


class UnsupportedCurve(CondenserWidthsError):
    """Operation requires a circular curve."""


class UnsupportedDomain(CondenserWidthsError):
    """Operation requires a disk plate."""


class CoincidentPole(CondenserWidthsError):
    """Green kernel evaluated at its own pole."""


class MassMismatch(CondenserWidthsError):
    """Measure mass does not match the mass required by the energy functional."""


class EmptyMeasure(CondenserWidthsError):
    """Operation is undefined for the zero measure."""


class GridTooCoarse(CondenserWidthsError):
    """Optimization grid too small for the requested point count."""


class GridTooClose(CondenserWidthsError):
    """Evaluation grid comes too close to a measure support."""


class BudgetExceeded(CondenserWidthsError):
    """Ratio-evaluation budget exhausted before the search stabilized."""


class ConfigError(CondenserWidthsError):
    """Run configuration failed validation."""


class InvalidArgument(CondenserWidthsError, ValueError):
    """A library call's argument failed an explicit check; the message names the rule."""
