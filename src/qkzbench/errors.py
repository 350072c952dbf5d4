"""Exception hierarchy shared by every module of the package."""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveTolerance(WorkbenchError, ValueError):
    """Tolerances must be finite and strictly positive."""


class BadWeight(WorkbenchError, ValueError):
    """Weight vector does not describe a sector of the tensor space."""


class BadSite(WorkbenchError, ValueError):
    """Site index outside 1..n (or a coinciding pair where two are needed)."""


class NonInvertibleQ(WorkbenchError, ValueError):
    """Deformation parameter of a q-permutation must be invertible."""


class DimensionMismatch(WorkbenchError, ValueError):
    """Operands live on different spaces."""


class NotBlockDiagonal(WorkbenchError, ValueError):
    """Operator couples a weight sector to its complement."""


class PoleHit(WorkbenchError, ZeroDivisionError):
    """A spectral argument landed on a pole of an R-matrix."""


class FlavorMismatch(WorkbenchError, ValueError):
    """Check is only defined for the other R-matrix flavor."""


class DegeneracyUnresolved(WorkbenchError, RuntimeError):
    """Joint diagonalization failed the residual gate after all re-draws."""


class NonConvergence(WorkbenchError, RuntimeError):
    """The underlying eigensolver did not converge."""


class NeedsFloat(WorkbenchError, RuntimeError):
    """Check runs the eigensolver, which only mode = float includes."""


class ParseError(WorkbenchError, ValueError):
    """Malformed configuration file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenericPositionViolation(WorkbenchError, ValueError):
    """Model parameters collide (x_i = x_j, x_i = x_j +- eta, or analogs)."""
