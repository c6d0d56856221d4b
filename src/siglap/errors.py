"""Exception types shared across the package."""


class SiglapError(Exception):
    """Base class for every error raised by this package."""


class GraphParseError(SiglapError, ValueError):
    """A graph file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedError(SiglapError):
    """The operation requires a connected (sub)graph."""


class NodesDisconnectedError(DisconnectedError):
    """The two queried nodes lie in different connected components."""


class NotSymmetricError(SiglapError, ValueError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class InvalidToleranceError(SiglapError, ValueError):
    """A tolerance is negative or NaN."""


class InvalidParameterError(SiglapError, ValueError):
    """A parameter is out of range: not finite, not positive, or too large."""


class GraphConstructionError(InvalidParameterError):
    """Invalid edge data; ``edge_index`` points at the offending edge."""

    def __init__(self, edge_index: int, message: str):
        super().__init__(message)
        self.edge_index = edge_index


class ZeroWeightError(GraphConstructionError):
    """An edge carries weight exactly zero."""


class NonFiniteWeightError(GraphConstructionError):
    """An edge carries a NaN or infinite weight."""


class SelfLoopError(GraphConstructionError):
    """An edge joins a node to itself."""


class NodeOutOfRangeError(GraphConstructionError):
    """An edge endpoint is not a valid node index."""


class SingularCutGramError(SiglapError):
    """The cut-basis quadratic form is numerically singular, so the
    closed-form pseudo-inverse route does not apply.

    Raised only by the test oracle :func:`siglap.laplacians.laplacian_pseudo_inverse`.
    """


class HypothesisViolatedError(SiglapError):
    """A theorem precondition does not hold; ``failures`` lists which."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("; ".join(self.failures))


class UnboundedError(SiglapError):
    """A trajectory diverged, so steady-state analysis is meaningless."""


class CrossCheckError(SiglapError):
    """Two independent computation routes disagreed beyond tolerance, a
    linear solve failed its residual check, or a computed resistance,
    threshold or margin left the double range.

    This is a numerical diagnostic: no value is returned because none can be
    trusted.
    """
