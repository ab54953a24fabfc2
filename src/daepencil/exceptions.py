"""Exception hierarchy shared by all modules."""


class DaePencilError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatchError(DaePencilError, ValueError):
    """Operands have incompatible or non-square dimensions."""


class NonFiniteEntriesError(DaePencilError, ValueError):
    """Matrix or vector input contains NaN or Inf entries."""


class SingularMatrixError(DaePencilError):
    """A linear system was numerically singular (the point lies outside the
    resolvent set, or no invertible shift could be found)."""


class NotRegularError(DaePencilError):
    """The pencil failed the regularity certificate; index and solve
    operations are undefined."""


class IsomorphismError(DaePencilError):
    """E restricted to IV_{k+1} -> E[IV_k] is not numerically bijective, so
    the reduced generator cannot be formed."""


class InconsistentInitialValueError(DaePencilError):
    """No classical solution exists for the given initial value.

    distance is u0's largest column distance to IV_{k+1} (solvers._inconsistent builds it);
    jump is u(0+), its range part along W*, or None where the split is refused.
    """

    def __init__(self, message, distance=None, jump=None):  # copy and pickle pass message only
        super().__init__(message)
        self.distance = distance
        self.jump = jump


class ConditioningWarning(UserWarning):
    """A computation went through but its conditioning looks fragile."""


class MatrixMarketError(DaePencilError, ValueError):
    """Malformed Matrix Market or vector file.  Carries the offending line
    number (1-based) when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
