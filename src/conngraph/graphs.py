"""Template graphs, sampled subgraphs, and exact connectivity checking.

The central object is an :class:`UnderlyingGraph`: a fixed, connected, simple,
undirected template whose edges are later switched on independently at random.
A :class:`SampledGraph` is one realization, holding the subset of template
edges that came up.  Vertices are 0-indexed; edges are stored as (min, max)
pairs so every edge has a single canonical form.

Connectivity is decided in one place, ``_connected_rows``.  It reads a group
of edge-presence rows once and settles by edge count every row with fewer
than n - 1 present edges (disconnected) and every row that holds all m
edges (one graph, hooked once).  The rows left go through hook and shortcut
together, in a few rounds of whole-array operations rather than a Python
loop over edges: one round for a path whose labels ascend along it, 6 or 7
at n = 1000 and 9 or 10 at n = 40000 when they are shuffled.  Its index
tables and work arrays, ``_KernelTables``, are built once per call site and
kept across its groups.  ``is_connected`` and ``from_edge_list`` call it on
one row; the connectivity loop of ``montecarlo`` and the spectrum check in
``spectral`` call it on many.

Laplacians have one builder over the same rows, ``_laplacian_stack``, and
``laplacian`` is its one-row case.  ``_subset_rows`` gives the rows of the
2^m edge subsets to the spectrum check.

Memory rule: the kernel and both eigensolvers take edge-presence rows in
groups of ``_group_rows(cells_per_row)`` rows, at most ``_GROUP_CELLS``
cells or one row: max(m, n) cells a kernel row (its tables take about 20
bytes a cell, and its edge work 32 to 64 bytes a present edge), n * n a
Laplacian.  Monte Carlo draws through a buffer of max(``_GROUP_CELLS``, m)
uniforms, and its spectrum indices ``_GROUP_CELLS`` at a time.  So no array
grows with the trials, layers, draws or subsets a caller walks, and each
call works on a few MB.
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
    A file that is not UTF-8 text raises InvalidParameter naming the path.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidParameter(f"path must be a str or os.PathLike, got {path!r}")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path}: edge list must be UTF-8 text, {exc}") from None
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
        try:  # too few or too many tokens fail the unpacking with ValueError, as a token int rejects does
            i, j = map(int, line.split())
        except ValueError:
            raise InvalidEdge(f"{path}: edge line must be two integers, got {line!r}")
        pairs.append((i, j))
    return from_edge_list(n, pairs)


def is_connected(g: UnderlyingGraph | SampledGraph) -> bool:
    """True when the graph has a single connected component.

    Accepts a template (all edges) or a realization (present edges only).
    A single-vertex graph is connected.
    """
    n, _ = _vertices_and_edges(g)
    ei, ej = _edge_arrays(g)
    return bool(_connected_rows(_KernelTables(n, ei, ej), np.ones((1, ei.size), dtype=bool))[0])


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


class _KernelTables:
    """The index tables and work arrays of ``_connected_rows`` for one edge set, kept across its groups.

    Each caller builds one per template, or edge set, and hands it to every
    kernel call it makes.  For groups of up to ``rows`` rows it holds the
    flat endpoint tables ``offset + ei`` and ``offset + ej`` (offset r * n
    in row r), the vertex ids ``0 .. rows * n - 1`` and the vertex work
    arrays, rebuilt for a group with more rows, and edge work arrays grown to
    the power of two above the most present edges yet (at most rows * m).
    Vertex ids are int32 while the tables hold fewer than 2^31 of them,
    int64 beyond.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray):
        self.n, self.ei, self.ej, self.rows = n, ei, ej, -1  # nothing built yet, not even for zero rows

    def reserve(self, rows: int) -> None:
        """Tables and work arrays for groups of up to rows rows."""
        if rows <= self.rows:
            return
        dtype = np.int32 if rows * self.n < 1 << 31 else np.int64
        self.ids = np.arange(rows * self.n, dtype=dtype)
        offsets = self.ids[:: self.n, None]
        self.u, self.v = np.add(offsets, self.ei, dtype=dtype), np.add(offsets, self.ej, dtype=dtype)
        self.vertices = np.empty((2, self.ids.size), dtype=dtype)  # parent, and the next jump of it
        self.edges = np.empty((2, 4, 0), dtype=dtype)  # two sets of live u, v and their roots ru, rv
        self.rows = rows


def _connected_rows(tables: _KernelTables, present: np.ndarray) -> np.ndarray:
    """Row-wise connectivity of a (rows, m) boolean edge-presence group over the edge set of tables.

    Edge counts settle rows before any hooking.  A row with fewer than
    n - 1 present edges is disconnected.  Every row that holds all m edges
    is the same graph, so only the first of them is hooked and the others
    copy its verdict; the edge set itself need not be connected.  The rows
    left are hooked together by ``_hook_and_shortcut``.  A lone row is only
    checked against n - 1, which costs less than counting.
    """
    n, (rows, m) = tables.n, present.shape
    tables.reserve(rows)
    if rows == 1:
        return _hook_and_shortcut(tables, present) if np.count_nonzero(present) >= n - 1 else np.zeros(1, dtype=bool)
    counts = np.add.reduce(present, axis=1, dtype=np.int32)
    full = np.flatnonzero(counts == m)
    counts[full[1:]] = -1  # the same graph as full[0], which is hooked for them all
    picked = np.flatnonzero(counts >= n - 1)
    if picked.size == rows:
        return _hook_and_shortcut(tables, present)
    connected = np.zeros(rows, dtype=bool)
    if picked.size:
        connected[picked] = _hook_and_shortcut(tables, present[picked])
        connected[full] = connected[full[:1]]
    return connected


def _hook_and_shortcut(tables: _KernelTables, present: np.ndarray) -> np.ndarray:
    """Row-wise connectivity of every row of present, with tables reserved for its rows.

    Hook and shortcut (Shiloach & Vishkin 1982; FastSV, Zhang, Azad & Hu
    2020) over the flattened (rows x n) vertex space, where vertex v of row
    r is ``r * n + v``.  The present slots pick their two flat endpoints from
    the tables, and every vertex starts as its own root.  Each round hooks
    the larger root of every live edge onto the smaller one with
    ``np.minimum.at``, jumps pointers (``parent = parent[parent]``) over the
    whole vertex array until every vertex points at its root, and then
    drops the edges whose ends share a root into the other set of edge work
    arrays.  Hooks only point to smaller ids, so no cycle forms, and a round
    with live edges hooks at least one root, so the loop ends.  A row is
    connected when every vertex has the root of its vertex 0.  Every index
    taken is in range, so ``mode="wrap"`` gives what the default mode
    gives, without buffering ``out``.
    """
    n, rows = tables.n, present.shape[0]
    slots = np.flatnonzero(present)
    size = slots.size
    if size > tables.edges.shape[2]:  # a power of two, so that a run asks the heap for few sizes and reuses them
        tables.edges = np.empty((2, 4, min(1 << size.bit_length(), tables.u.size)), dtype=tables.ids.dtype)
    cur, nxt = tables.edges
    u = np.take(tables.u, slots, out=cur[0, :size], mode="wrap")
    v = np.take(tables.v, slots, out=cur[1, :size], mode="wrap")
    parent, jumped = tables.vertices[0, : rows * n], tables.vertices[1, : rows * n]
    np.copyto(parent, tables.ids[: rows * n])
    ru, rv = u, v  # every vertex starts as its own root
    while size:
        # nxt is free until the live edges are taken into it
        np.minimum.at(parent, np.maximum(ru, rv, out=nxt[0, :size]), np.minimum(ru, rv, out=nxt[1, :size]))
        while True:
            np.take(parent, parent, out=jumped, mode="wrap")
            if np.array_equal(jumped, parent):
                break
            parent, jumped = jumped, parent
        ru = np.take(parent, u, out=cur[2, :size], mode="wrap")
        rv = np.take(parent, v, out=cur[3, :size], mode="wrap")
        live = np.flatnonzero(ru != rv)
        size = live.size
        if size:
            for a, b in zip((u, v, ru, rv), nxt):
                np.take(a, live, out=b[:size], mode="wrap")
            cur, nxt = nxt, cur
            u, v, ru, rv = cur[:, :size]
    labels = parent.reshape(rows, n)
    return (labels == labels[:, :1]).all(axis=1)
