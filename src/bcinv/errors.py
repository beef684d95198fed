"""Exception hierarchy shared by all backends and operations."""


class BcinvError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(BcinvError):
    """Operands belong to different ring descriptors."""


class DimensionMismatch(BcinvError):
    """Matrix or subspace shapes are incompatible."""


class NotInvertible(BcinvError):
    """Element has no two-sided inverse."""


class NotRegular(BcinvError):
    """Element has no inner inverse."""


class PreconditionFailed(BcinvError):
    """A documented hypothesis of the operation does not hold."""


class InverseAbsent(BcinvError):
    """The requested generalized inverse does not exist."""


class SingularCorner(BcinvError):
    """Element is not invertible inside the corner ring pRp."""


class CapExceeded(BcinvError):
    """Enumeration space exceeds the configured cap."""


class SpectralPreconditionFailed(BcinvError):
    """Spectral hypothesis of an analytic representation fails."""


class ConvergenceFailure(BcinvError):
    """An integral, series or limit did not reach tolerance, or its mirrored forms disagree."""
