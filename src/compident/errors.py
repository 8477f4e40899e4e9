"""Exception types shared across the package."""


class CompidentError(Exception):
    """Base class for all compident errors."""


class MalformedInput(CompidentError):
    """Input document could not be parsed."""


class InvalidEdge(CompidentError):
    """Edge list contains an out-of-range vertex, a duplicate, or a self-loop."""


class NoExchange(CompidentError):
    """The graph has no 2-cycle through the input-output vertex."""


class Disconnected(CompidentError):
    """The underlying undirected graph is not connected."""


class NotStronglyConnected(CompidentError):
    """Operation requires a strongly connected graph."""


class NotSquare(CompidentError):
    """Matrix operation requires a square matrix."""


class NotUnimodular(CompidentError):
    """Integer matrix has determinant other than +1 or -1."""


class InconsistentSystem(CompidentError):
    """An integer linear system has no solution over the chosen basis."""


class NotExpectedDimension(CompidentError):
    """The coefficient map image does not have the maximal dimension m+1."""


class TooManyEdges(CompidentError):
    """More than 2n-2 edges: no scaling reparametrization can exist."""


class LimitExceeded(CompidentError):
    """Enumeration guardrail tripped; raise the limit explicitly to proceed."""


class NoReparametrization(CompidentError):
    """No identifiable scaling reparametrization exists for this graph;
    carries the dimension report that witnessed the failure."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "no identifiable scaling reparametrization exists: "
            f"d={report.d}, expected m+1={report.expected}"
        )
