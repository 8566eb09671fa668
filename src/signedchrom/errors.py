"""Exception hierarchy shared by all signedchrom modules."""


class SignedChromError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdgeError(SignedChromError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SignedChromError):
    """Two edges share the same endpoint pair."""


class IndexOutOfRangeError(SignedChromError):
    """A vertex index is outside 0..n-1."""


class BadSignError(SignedChromError):
    """An edge sign is not +1 or -1."""


class UnknownEdgeError(SignedChromError):
    """A referenced edge does not exist in the graph."""


class EmptyGraphError(SignedChromError):
    """The operation needs at least one vertex."""


class BadCodeError(SignedChromError):
    """A threshold code entry is not in {-1, 0, 1}."""


class UnknownFixtureError(SignedChromError):
    """No built-in graph with the requested name."""


class ParseError(SignedChromError):
    """A graph file is malformed."""


class ArityMismatchError(SignedChromError):
    """Univariate and bivariate polynomials were mixed."""


class NegativeIndexError(SignedChromError):
    """A factorial-style index was negative."""


class BadRangeError(SignedChromError):
    """A numeric parameter is out of range (lambda >= mu >= 0, or a negative bound)."""


class BadIndexError(SignedChromError):
    """Index arguments violate the operation's precondition."""


class NegativeParameterError(SignedChromError):
    """A closed-form family parameter was negative."""


class BudgetExceededError(SignedChromError):
    """The requested computation exceeds the configured budget."""


class NonIntegralCoefficientError(SignedChromError):
    """Interpolation produced a non-integer coefficient (implementation bug)."""


class UsageError(SignedChromError):
    """Bad command-line arguments."""
