"""Template graphs, sampled subgraphs, and exact connectivity checking.

The central object is an :class:`UnderlyingGraph`: a fixed, connected, simple,
undirected template whose edges are later switched on independently at random.
A :class:`SampledGraph` is one realization, holding the subset of template
edges that came up.  Vertices are 0-indexed; edges are stored as (min, max)
pairs so every edge has a single canonical form.

Connectivity is decided in one place, ``_connected_rows``: hook and shortcut
over a whole group of edge-presence rows at once, in a few rounds of
whole-array operations (a path with shuffled labels takes 6 at n = 1000, 10
at n = 40000) rather than a Python loop over edges.  ``is_connected`` and
``from_edge_list`` call it on one row; Monte Carlo and the coupled check in
``montecarlo`` and the spectrum check in ``spectral`` call it on many.

Laplacians have one builder over the same rows, ``_laplacian_stack``, and
``laplacian`` is its one-row case.  ``_subset_rows`` gives the rows of the
2^m edge subsets to the spectrum check.

Memory rule: the kernel and both eigensolvers take edge-presence rows in
groups of ``_group_rows(cells_per_row)`` rows, at most ``_GROUP_CELLS``
cells or one row: max(m, n) cells a kernel row (its index arrays take about
40 bytes a cell), n * n a Laplacian.  Monte Carlo draws through a buffer of
max(``_GROUP_CELLS``, m) uniforms.  So no array grows with the trials or
subsets a caller walks, and each call works on a few MB.
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

_GROUP_CELLS = 1 << 16  # cells per group of edge-presence rows: see the memory rule above

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
    CRLF line endings are accepted, and so is a leading UTF-8 byte-order mark.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidParameter(f"path must be a str or os.PathLike, got {path!r}")
    text = Path(path).read_text(encoding="utf-8-sig")
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
    n, _ = _vertices_and_edges(g)
    ei, ej = _edge_arrays(g)
    return _laplacian_stack(n, ei, ej, np.ones((1, ei.size), dtype=bool))[0]


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


def _subset_rows(m: int, start: int, stop: int) -> np.ndarray:
    """Presence rows of the edge subsets with ids start .. stop - 1; subset s holds edge e when bit e of s is set."""
    ids = np.arange(start, stop, dtype=np.uint32)
    return (ids[:, None] & (np.uint32(1) << np.arange(m, dtype=np.uint32))) != 0  # one (rows, m) uint32 temporary


def _laplacian_stack(n: int, ei: np.ndarray, ej: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The (rows, n, n) Laplacians of a (rows, m) bool edge-presence block.

    Every zero is +0.0, as sums taken edge by edge leave it: off-diagonal
    entries are 0.0 - 1.0 or 0.0 - 0.0, and each diagonal entry is 0.0 minus
    its row's off-diagonal sum, never a bare negation.  The sums count
    edges, so they are exact in any order.
    """
    rows = present.shape[0]
    off = 0.0 - present
    flat = np.zeros((rows, n * n))
    flat[:, ei * n + ej] = off
    flat[:, ej * n + ei] = off
    flat[:, :: n + 1] = 0.0 - (flat.reshape(rows * n, n) @ np.ones(n)).reshape(rows, n)
    return flat.reshape(rows, n, n)


def _group_rows(cells_per_row: int) -> int:
    """Rows per group of edge-presence rows that take cells_per_row cells each: at least one."""
    return max(1, _GROUP_CELLS // cells_per_row)


def _connected_rows(n: int, ei: np.ndarray, ej: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Row-wise connectivity for a (rows, m) boolean edge-presence group.

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

    All rows are taken in one pass, so callers hand it one group of
    ``_group_rows(max(m, n))`` rows at a time (see the memory rule above).
    Vertex ids are int32 while the group has fewer than 2^31 of them, int64
    beyond.
    """
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
