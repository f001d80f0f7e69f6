"""Exception types and the argument checks that raise them.

Every public entry point checks its counts with ``_check_count`` and its
probabilities and confidence levels with ``_check_fraction``, so a bool, a
non-number or an out-of-range value raises InvalidParameter with one of two
messages: ``{name} must be an integer >= {minimum}, got {value!r}`` or
``{name} must lie in (0, 1), got {value!r}`` (``[0, 1]`` where closed).
The samplers that take a generator check it with ``_check_rng``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

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
        best_t: first horizon with the largest bound up to the last searched.
        best_bound: that largest bound.
        trace: the (T, bound) pairs up to the last horizon, each evaluated when read.
    """

    def __init__(self, message: str, best_t: int, best_bound: float,
                 trace: Sequence[tuple[int, float]]):
        super().__init__(message)
        self.best_t = best_t
        self.best_bound = best_bound
        self.trace = trace

    def __reduce__(self):
        # args holds only the message, so pickle needs the whole constructor call
        return type(self), (str(self), self.best_t, self.best_bound, self.trace)


def _check_count(value, name: str, minimum: int) -> int:
    """value as an int, if it is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidParameter(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_fraction(value, name: str, closed: bool = False) -> float:
    """value as a float, if it is a number (not a bool) in (0, 1), or [0, 1] when closed.

    The comparison comes first: None, a string or a list fails it, and so
    does NaN, whatever float() would make of them.
    """
    try:
        inside = 0.0 <= value <= 1.0 if closed else 0.0 < value < 1.0
    except (TypeError, ValueError):
        inside = False
    if not inside or isinstance(value, (bool, np.bool_)):
        raise InvalidParameter(f"{name} must lie in {'[0, 1]' if closed else '(0, 1)'}, got {value!r}")
    return float(value)


def _check_rng(rng) -> None:
    """InvalidParameter unless rng is a numpy.random.Generator; the samplers call it before they draw."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidParameter(f"rng must be a numpy.random.Generator, got {rng!r}")
