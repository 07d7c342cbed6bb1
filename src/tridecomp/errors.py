"""Exception hierarchy and warning categories shared across the package."""


class TridecompError(Exception):
    """Base class for all library errors."""


class InputFormatError(TridecompError):
    """Malformed edge-list or decomposition text."""


class GraphConstructionError(TridecompError):
    """Invalid vertex pair handed to graph construction (self-loop, out of range)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class GuardrailError(TridecompError):
    """A configurable resource cap was exceeded; the run was aborted, not degraded."""


class LinkLimitError(GuardrailError):
    """Rooted-K4 link enumeration would emit more links than the configured cap."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"rooted-K4 link count exceeds the cap of {limit}")


class GraphSizeError(GuardrailError):
    """The dense n x n arrays of a graph on n vertices would exceed the memory cap."""

    def __init__(self, n, estimate, limit):
        self.n = n
        self.estimate = estimate
        self.limit = limit
        super().__init__(
            f"a graph on {n} vertices needs about {estimate} bytes of dense arrays, "
            f"above the cap of {limit}"
        )


class LPSizeError(GuardrailError):
    """The feasibility LP has more triangle variables than the configured cap."""

    def __init__(self, limit, count):
        self.limit = limit
        self.count = count
        super().__init__(f"LP has {count} triangle variables, above the cap of {limit}")


class EdgeInNoTriangleError(TridecompError):
    """Some edge lies in no triangle, so no fractional triangle decomposition exists."""

    def __init__(self, edge_id, endpoints):
        self.edge_id = edge_id
        self.endpoints = endpoints
        u, v = endpoints
        super().__init__(f"edge {edge_id} = ({u},{v}) is contained in no triangle")


class EmptyGraphError(TridecompError):
    """The graph has no edges; the decomposition is vacuous."""


class UnknownTriangleError(TridecompError):
    """A weight transfer referenced a triangle absent from the assignment."""


class RegimeWarning(UserWarning):
    """The instance sits outside the regime where the flow method is guaranteed."""
