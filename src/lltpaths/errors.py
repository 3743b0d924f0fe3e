"""Exception types shared across the package."""


class LLTError(Exception):
    """Base class for all package-specific errors."""


class BoundExceeded(LLTError):
    """An enumerative routine was asked to exceed its configured size bound."""


class NotDivisible(LLTError):
    """An exact division has no Laurent-polynomial quotient.

    Raised instead of returning an approximation: a failed division usually
    signals a violated identity upstream.
    """


class NegativeExponentShift(LLTError):
    """A q -> q + c substitution was applied to negative q-exponents."""


class SizeMismatch(LLTError):
    """Two index objects that must have equal size do not."""


class InvalidPath(LLTError):
    """Base class for Schroeder-path validation failures."""


class InvalidStep(InvalidPath):
    """A path word contains a letter outside {n, d, e}."""


class BelowDiagonal(InvalidPath):
    """A path word dips below the main diagonal."""


class DiagonalOnMainDiagonal(InvalidPath):
    """A diagonal step touches the main diagonal."""


class InvalidArgument(LLTError, ValueError):
    """An argument outside a function's domain: a malformed partition, or a size that is not a nonnegative int."""


class PointNotOnPath(LLTError):
    """The requested lattice point does not lie on the path."""


class HasDiagonal(LLTError):
    """A Dyck-path-only operation received a path with diagonal steps."""


class InvalidColoring(LLTError):
    """A vertex coloring violates a strict-edge constraint."""


class NonTermination(LLTError):
    """The axiomatic evaluator exceeded its recursion-depth guard.

    This must never happen on valid input; it exists to turn a logic bug
    into a clean failure instead of an infinite loop.
    """
