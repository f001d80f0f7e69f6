"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ConnGraphError",
    "InvalidParameter",
    "InvalidEdge",
    "DisconnectedTemplate",
    "MismatchedParents",
    "EmptyUnion",
    "NotSymmetric",
    "NoConvergence",
    "TooManyEdges",
    "TStarNotFound",
]


class ConnGraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(ConnGraphError):
    """A numeric or structural argument is outside its allowed range."""


class InvalidEdge(ConnGraphError):
    """An edge is malformed: self-loop, out-of-range endpoint, or bad tokens."""


class DisconnectedTemplate(ConnGraphError):
    """The underlying template graph is not connected."""


class MismatchedParents(ConnGraphError):
    """Sampled graphs from different templates were combined."""


class EmptyUnion(ConnGraphError):
    """A union of zero sampled graphs was requested."""


class NotSymmetric(ConnGraphError):
    """A matrix handed to the symmetric eigensolver is not symmetric."""


class NoConvergence(ConnGraphError):
    """The eigensolver did not reach its tolerance within the sweep budget."""


class TooManyEdges(ConnGraphError):
    """Exact enumeration was requested above the edge-count cap."""


class TStarNotFound(ConnGraphError):
    """No union horizon within the scan budget meets the requested target.

    Attributes:
        best_t: scanned horizon with the largest bound seen.
        best_bound: that largest bound.
        trace: list of (T, bound) pairs for every scanned horizon.
    """

    def __init__(self, message: str, best_t: int, best_bound: float,
                 trace: list[tuple[int, float]]):
        super().__init__(message)
        self.best_t = best_t
        self.best_bound = best_bound
        self.trace = trace
