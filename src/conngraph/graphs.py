"""Template graphs, sampled subgraphs, and exact connectivity checking.

The central object is an :class:`UnderlyingGraph`: a fixed, connected, simple,
undirected template whose edges are later switched on independently at random.
A :class:`SampledGraph` is one realization, holding the subset of template
edges that came up.  Vertices are 0-indexed; edges are stored as (min, max)
pairs so every edge has a single canonical form.

Connectivity is decided in one place, ``_connected_rows``: hook and shortcut
over a whole block of edge-presence rows at once, in a few rounds of
whole-array operations (a path with shuffled labels takes 6 at n = 1000, 10
at n = 40000) rather than a Python loop over edges.  ``is_connected`` and
``from_edge_list`` call it on one row; Monte Carlo, the coupled check and
exact enumeration in ``montecarlo`` and the CLI's ``spectrum-check`` call it
on many.  It reads the presence rows in sub-blocks of at most ``_CONN_SLOTS``
(row, edge) slots, so its index arrays (about 40 bytes per slot) stay a few
MB whatever the size of the caller's block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    DisconnectedTemplate,
    EmptyUnion,
    InvalidEdge,
    InvalidParameter,
    MismatchedParents,
    _check_count,
)

Edge = tuple[int, int]

_CONN_SLOTS = 1 << 16  # max (row, edge) slots per connectivity sub-block

__all__ = [
    "UnderlyingGraph",
    "SampledGraph",
    "from_edge_list",
    "complete",
    "complete_minus_cycle",
    "complete_stats",
    "complete_minus_cycle_stats",
    "read_edge_list",
    "is_connected",
    "union",
    "laplacian",
    "sum_degree_squares",
]


@dataclass(frozen=True)
class UnderlyingGraph:
    """Connected simple undirected template.

    Attributes:
        n: vertex count; vertices are 0 .. n - 1.
        edges: canonical (min, max) pairs, sorted ascending.
        m: edge count, equal to len(edges).
        degrees: degree of each vertex, length n.

    Fields that disagree (m != len(edges), len(degrees) != n or
    sum(degrees) != 2m) raise InvalidParameter.
    """

    n: int
    edges: tuple[Edge, ...]
    m: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        _check_count(self.n, "n", 1)
        _check_count(self.m, "m", 0)
        if self.m != len(self.edges) or len(self.degrees) != self.n or sum(self.degrees) != 2 * self.m:
            raise InvalidParameter(
                f"template fields disagree: n={self.n} and m={self.m}, but {len(self.edges)} edges"
                f" and {len(self.degrees)} degrees summing to {sum(self.degrees)}"
            )

    def all_present(self) -> "SampledGraph":
        """Realization with every template edge switched on."""
        return SampledGraph(self, frozenset(self.edges))


@dataclass(frozen=True)
class SampledGraph:
    """One realization of a template: the subset of edges that are present."""

    parent: UnderlyingGraph
    present: frozenset[Edge]


def _normalize_edges(n: int, pairs) -> tuple[Edge, ...]:
    """Validate and canonicalize an edge collection; duplicates collapse."""
    seen: set[Edge] = set()
    try:
        pairs = iter(pairs)
    except TypeError:
        raise InvalidEdge(f"edges must be a collection of vertex pairs, got {pairs!r}")
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise InvalidEdge(f"edge {pair!r} is not a vertex pair")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (i, j)):
            raise InvalidEdge(f"edge {pair!r} has non-integer endpoints")
        i, j = int(i), int(j)
        if i == j:
            raise InvalidEdge(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidEdge(f"edge ({i}, {j}) out of range for n={n}")
        seen.add((i, j) if i < j else (j, i))
    return tuple(sorted(seen))


def _degrees(n: int, edges: tuple[Edge, ...]) -> tuple[int, ...]:
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return tuple(deg)


def from_edge_list(n: int, pairs) -> UnderlyingGraph:
    """Build a template from vertex count and an edge collection.

    Duplicate edges collapse silently; a self-loop or out-of-range endpoint
    raises InvalidEdge.  The result must be connected (a single vertex
    counts as connected); otherwise DisconnectedTemplate is raised.
    """
    n = _check_count(n, "n", 1)
    edges = _normalize_edges(n, pairs)
    # fewer than n - 1 edges cannot connect n vertices: raise before allocating for n
    g = None if len(edges) < n - 1 else UnderlyingGraph(n, edges, len(edges), _degrees(n, edges))
    if g is None or not is_connected(g):
        raise DisconnectedTemplate(f"template on {n} vertices with {len(edges)} edges is not connected")
    return g


def complete(n: int) -> UnderlyingGraph:
    """Complete template on n vertices; n = 1 gives the single-vertex graph."""
    m, _ = complete_stats(n)
    n = int(n)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return UnderlyingGraph(n, edges, m, tuple([n - 1] * n))


def complete_minus_cycle(n: int) -> UnderlyingGraph:
    """Complete template minus a Hamiltonian cycle; requires n >= 5.

    n = 4 would leave two disjoint diagonals and raises DisconnectedTemplate;
    n < 4 raises InvalidParameter.
    """
    m, _ = complete_minus_cycle_stats(n)
    n = int(n)
    cycle = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in cycle)
    return UnderlyingGraph(n, edges, m, tuple([n - 3] * n))


def complete_stats(n: int) -> tuple[int, int]:
    """(m, sum of squared degrees) for the complete template, no materialization."""
    n = _check_count(n, "n", 1)
    return n * (n - 1) // 2, n * (n - 1) ** 2


def complete_minus_cycle_stats(n: int) -> tuple[int, int]:
    """(m, sum of squared degrees) for complete-minus-cycle, no materialization.

    Raises what the constructor raises for small n: the constructor calls it.
    """
    n = _check_count(n, "n", 4)
    if n == 4:
        raise DisconnectedTemplate("removing a 4-cycle from K4 leaves two disjoint edges")
    return n * (n - 3) // 2, n * (n - 3) ** 2


def read_edge_list(path) -> UnderlyingGraph:
    """Parse a template from a text file.

    Format: the first non-empty, non-comment line is the integer vertex
    count; every later such line is an edge "i j" with 0-indexed endpoints.
    Lines whose first non-blank character is '#' are comments.  Both LF and
    CRLF line endings are accepted.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidParameter(f"path must be a str or os.PathLike, got {path!r}")
    text = Path(path).read_text(encoding="utf-8")
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(stripped)
    if not lines:
        raise InvalidParameter(f"{path}: no vertex-count line found")
    try:
        n = int(lines[0])
    except ValueError:
        raise InvalidParameter(f"{path}: first line must be the integer vertex count, got {lines[0]!r}")
    pairs = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise InvalidEdge(f"{path}: edge line must be two integers, got {line!r}")
        try:
            pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise InvalidEdge(f"{path}: edge line must be two integers, got {line!r}")
    return from_edge_list(n, pairs)


def is_connected(g: UnderlyingGraph | SampledGraph) -> bool:
    """True when the graph has a single connected component.

    Accepts a template (all edges) or a realization (present edges only).
    A single-vertex graph is connected.
    """
    n, _ = _vertices_and_edges(g)
    ei, ej = _edge_arrays(g)
    return bool(_connected_rows(n, ei, ej, np.ones((1, ei.size), dtype=bool))[0])


def union(gs) -> SampledGraph:
    """Edgewise union of realizations of one template.

    Raises EmptyUnion for an empty collection and MismatchedParents when the
    realizations come from different templates.
    """
    try:
        gs = list(gs)
    except TypeError:
        raise InvalidParameter(f"gs must be a collection of SampledGraph realizations, got {gs!r}")
    if not gs:
        raise EmptyUnion("union of zero sampled graphs")
    for g in gs:
        if not isinstance(g, SampledGraph):
            raise InvalidParameter(f"gs must hold SampledGraph realizations, got {g!r}")
    parent = gs[0].parent
    merged: set[Edge] = set()
    for g in gs:
        if g.parent is not parent and g.parent != parent:
            raise MismatchedParents("sampled graphs come from different templates")
        merged |= g.present
    return SampledGraph(parent, frozenset(merged))


def laplacian(g: UnderlyingGraph | SampledGraph) -> np.ndarray:
    """Dense Laplacian (degree matrix minus adjacency) as float64."""
    n, edges = _vertices_and_edges(g)
    lap = np.zeros((n, n), dtype=float)
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


def sum_degree_squares(g: UnderlyingGraph) -> int:
    """Sum of squared template degrees."""
    return sum(d * d for d in _check_graph(g, "g").degrees)


def _check_graph(g, name: str, kinds: tuple[type, ...] = (UnderlyingGraph,)):
    """g, if it is an instance of one of kinds; else InvalidParameter naming it."""
    if not isinstance(g, kinds):
        wanted = " or ".join({UnderlyingGraph: "an UnderlyingGraph", SampledGraph: "a SampledGraph"}[k] for k in kinds)
        raise InvalidParameter(f"{name} must be {wanted}, got {g!r}")
    return g


def _vertices_and_edges(g: UnderlyingGraph | SampledGraph) -> tuple[int, tuple[Edge, ...] | frozenset[Edge]]:
    """Vertex count and edges of a template, or of a realization's present edges."""
    if isinstance(_check_graph(g, "g", (UnderlyingGraph, SampledGraph)), UnderlyingGraph):
        return g.n, g.edges
    return g.parent.n, g.present


def _edge_arrays(g: UnderlyingGraph | SampledGraph) -> tuple[np.ndarray, np.ndarray]:
    """The two endpoint arrays of the edges ``_vertices_and_edges`` gives."""
    _, edges = _vertices_and_edges(g)
    arr = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def _connected_rows(n: int, ei: np.ndarray, ej: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Row-wise connectivity for a (trials, m) boolean edge-presence matrix.

    Hook and shortcut (Shiloach & Vishkin 1982; FastSV, Zhang, Azad & Hu
    2020) over the flattened (rows x n) vertex space, where vertex v of row r
    is ``r * n + v``.  The present (row, edge) slots are found once and
    mapped to their two flat endpoints; every vertex starts as its own root.
    Each round hooks the larger root of every live edge onto the smaller one
    with ``np.minimum.at``, jumps pointers (``parent = parent[parent]``)
    until every vertex points at its root, and then drops the edges whose
    ends share a root.  Hooks only point to smaller ids, so no cycle forms,
    and a round with live edges hooks at least one root, so the loop ends.
    A row is connected when every vertex has the root of its vertex 0.

    Memory rule: rows are taken in sub-blocks of at most ``_CONN_SLOTS``
    (row, edge) slots and as many (row, vertex) ids (one row when a row
    alone has more).  The index arrays take about 40 bytes per slot, so they
    stay a few MB however many rows the caller's block of uniforms holds.
    Vertex ids are int32 while a sub-block has fewer than 2^31 of them,
    int64 beyond.
    """
    rows, m = present.shape
    step = max(1, _CONN_SLOTS // max(m, n))
    out = np.empty(rows, dtype=bool)
    for start in range(0, rows, step):
        out[start : start + step] = _hook_and_shortcut(n, ei, ej, present[start : start + step])
    return out


def _hook_and_shortcut(n: int, ei: np.ndarray, ej: np.ndarray, present: np.ndarray) -> np.ndarray:
    rows = present.shape[0]
    dtype = np.int32 if rows * n < 1 << 31 else np.int64
    parent = np.arange(rows * n, dtype=dtype)
    offsets = np.arange(0, rows * n, n, dtype=dtype)[:, None]
    slots = np.flatnonzero(present)
    u = np.take(offsets + ei.astype(dtype), slots)
    v = np.take(offsets + ej.astype(dtype), slots)
    ru, rv = u, v  # every vertex starts as its own root
    while u.size:
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = np.take(parent, parent)
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ru, rv = np.take(parent, u), np.take(parent, v)
        live = np.flatnonzero(ru != rv)
        u, v, ru, rv = (np.take(a, live) for a in (u, v, ru, rv))
    labels = parent.reshape(rows, n)
    return (labels == labels[:, :1]).all(axis=1)
