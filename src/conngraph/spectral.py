"""Symmetric eigensolver and samplers over random-subgraph spectra.

The solver is Jacobi's rotation method.  It is deliberately self-contained so
it can serve as an independent check on both the closed-form bounds and the
LAPACK-backed batch estimators: agreement between unrelated eigenvalue
routines is part of the package's verification story.

One solver, ``_jacobi_eigenvalues``, takes a stack of B symmetric n x n
matrices; ``eigenvalues_symmetric`` hands it a stack of one, and the
samplers and the spectrum check the Laplacians of edge-presence rows, one
group of ``graphs._group_rows(n * n)`` rows a stack.
Rotations follow the parallel (round-robin) ordering of Brent & Luk (1985,
SIAM J. Sci. Stat. Comput. 6(1)), whose convergence Luk & Park (1989, SIAM
J. Sci. Stat. Comput. 10(1)) prove: a sweep is n - 1 rounds (n rounded up
to even, with odd n padded by a zero row and column), each pairing every
index with one other, so the n/2 rotations of a round touch disjoint rows
and columns and are applied together to every matrix of the stack.
Convergence is judged per matrix: a matrix whose off-diagonal Frobenius
norm is at most 1e-10 times its own Frobenius norm (floored at 1.0) leaves
the stack at the end of a sweep; one still in it after 100 sweeps raises
NoConvergence.

The "ell" samplers draw a uniformly random nontrivial Laplacian eigenvalue of
a random subgraph: the spectrum is sorted ascending, index 1 through n - 1
are the nontrivial positions, and each is picked with probability 1/(n - 1).
``sample_ell_first_order_statistic`` and the CLI's spectrum check,
``_spectrum_mismatches``, solve their presence rows with Jacobi too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoConvergence, NotSymmetric, _check_count, _check_fraction, _check_rng
from .graphs import (SampledGraph, UnderlyingGraph, _check_graph, _connected_rows, _edge_arrays, _group_rows,
                     _KernelTables, _laplacian_stack, _subset_rows, _vertices_and_edges, laplacian)
from .montecarlo import _index_minima, _presence_groups

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-12
_TINY = np.finfo(float).smallest_subnormal

__all__ = [
    "Spectrum",
    "eigenvalues_symmetric",
    "algebraic_connectivity",
    "zero_threshold",
    "sample_ell",
    "sample_ell_first_order_statistic",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted ascending."""

    eigenvalues: np.ndarray


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index tables of the round-robin ordering for n x n matrices.

    The work matrices are padded to an even size and kept flattened, in an
    order where a round always pairs position i with position size - 1 - i:
    the pivots lie on the diagonal and the anti-diagonal.  Between rounds,
    position 0 stays and positions 1 .. size - 1 shift cyclically by one
    (the circle method), so every pair meets once per sweep and a sweep
    ends in the starting order, with the padding index last.

    Returns the padded size, the flat shift between rounds, the flat
    off-diagonal slots, the flat slots a round reads (a_qq and a_pp of each
    position's pair, the diagonal, the anti-diagonal) and the sign of each
    position's turn (+1 on the p side, -1 on the q side).
    """
    size = n + n % 2
    shift = np.array([0, size - 1, *range(1, size - 1)], dtype=np.intp)
    i = np.arange(size)
    mate = size - 1 - i
    step = size + 1
    reads = np.concatenate([np.maximum(i, mate) * step, np.minimum(i, mate) * step, i * step, i * size + mate])
    side = np.where(i < mate, 1.0, -1.0)[:, None]
    return size, (shift[:, None] * size + shift).ravel(), np.flatnonzero(~np.eye(size, dtype=bool)), reads, side


def _jacobi_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a (B, n, n) stack of symmetric ones.

    Each round takes the pivot pairs (p, q) of every matrix at once.  The
    tangent of the rotation angle, t = sgn(theta) / (|theta| + hypot(1, theta))
    with theta = h / a_pq and h = (a_qq - a_pp) / 2, is taken multiplied
    through by |a_pq|, as t = a_pq / (h + sgn(h) hypot(a_pq, h)), so that no
    quotient can overflow; a pair with a_pq = 0 gets t = 0, the identity,
    and a round whose pivots all have a_pq = 0 is skipped.  The rotations
    are applied to the rows and then to the columns, the pivots' diagonal
    entries are set to a_pp - t a_pq and a_qq + t a_pq, and their
    off-diagonal entries to zero.  The input is not modified; no finiteness
    or symmetry check is made here.
    """
    count, n = stack.shape[0], stack.shape[1]
    size, shift, off_slots, reads, side = _round_robin(n)
    cells = size * size
    diag, anti = slice(None, None, size + 1), slice(size - 1, cells - 1, size - 1)
    # one flattened matrix per column: every operation runs along the batch
    work = np.zeros((size, size, count))
    work[:n, :n] = stack.transpose(1, 2, 0)
    work = work.reshape(cells, count)
    target = JACOBI_REL_TOL * np.maximum(np.sqrt(np.einsum("kb,kb->b", work, work)), 1.0)
    out = np.empty((count, size))
    live = np.arange(count)
    for sweep in itertools.count():
        off = work[off_slots]
        done = np.sqrt(np.einsum("kb,kb->b", off, off)) <= target
        if done.any():
            out[live[done]] = work[diag][:, done].T
            live, work, target = live[~done], work[:, ~done], target[~done]
        if not live.size:
            return np.sort(out[:, :n], axis=1)
        if sweep == JACOBI_MAX_SWEEPS:
            raise NoConvergence(f"off-diagonal norm above tolerance after {JACOBI_MAX_SWEEPS} sweeps")
        for _ in range(size - 1):
            aqq, app, dg, apq = work.take(reads, axis=0).reshape(4, size, -1)
            if apq.any():
                h = 0.5 * (aqq - app)
                # _TINY keeps the denominator off zero when a_pq = h = 0
                t = apq / (h + np.copysign(np.hypot(apq, h) + _TINY, h))
                c = 1.0 / np.hypot(1.0, t)
                t *= side  # both ends of a pair read the same t; the q end turns by -t
                s = t * c
                pivots = dg - t * apq
                m = work.reshape(size, size, -1)
                m = c[:, None] * m - s[:, None] * m[::-1]
                m = m * c - m[:, ::-1] * s
                work = m.reshape(cells, -1)
                work[diag] = pivots
                work[anti] = 0.0
            work = work.take(shift, axis=0)


def _spectrum_mismatches(g: UnderlyingGraph) -> int:
    """How many of g's 2^m edge subsets get another verdict from lambda_2 > ``zero_threshold`` than from the kernel."""
    ei, ej = _edge_arrays(g)
    tables = _KernelTables(g.n, ei, ej)
    subsets, step, mismatches = 1 << g.m, _group_rows(g.n * g.n), 0  # a group fits the kernel too: n * n >= max(m, n)
    for start in range(0, subsets, step):
        present = _subset_rows(g.m, start, min(start + step, subsets))
        spectral = _jacobi_eigenvalues(_laplacian_stack(g.n, ei, ej, present))[:, 1] > zero_threshold(g.n)
        mismatches += int(np.count_nonzero(spectral != _connected_rows(tables, present)))
    return mismatches


def _holds_bool(matrix, a: np.ndarray) -> bool:
    """Whether a bool sits among the numbers numpy read from matrix into a.

    numpy reads a bool beside numbers as 0 or 1, so the entries themselves
    are looked at unless matrix already was a numeric array.
    """
    if isinstance(matrix, np.ndarray) and a.dtype.kind != "O":
        return False
    cells = a if a.dtype.kind == "O" else np.asarray(matrix, dtype=object)
    return any(isinstance(x, (bool, np.bool_)) for x in cells.flat)


def eigenvalues_symmetric(matrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix by round-robin Jacobi rotations.

    The input must hold finite real numbers, else InvalidParameter, and be
    square and symmetric within 1e-12 elementwise, else NotSymmetric.
    Sweeps run until the off-diagonal Frobenius norm drops below 1e-10 times
    the input's Frobenius norm (floored at 1.0); more than 100 sweeps raises
    NoConvergence.  A matrix with an entry of 2^256 or more is solved scaled
    down by a power of two, which is exact, so that neither the symmetrized
    entries nor the squares in the norms overflow; its eigenvalues are
    scaled back, and one past the float range raises InvalidParameter.
    """
    try:
        a = np.asarray(matrix)
        if a.dtype.kind in "iufO":  # not strings, bools or complex numbers
            a = None if _holds_bool(matrix, a) else a.astype(float, copy=False)
    except (TypeError, ValueError):  # ragged rows, or an object that is no number
        a = None
    if a is None or a.dtype != float:
        raise InvalidParameter("matrix entries must be real numbers")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise InvalidParameter("empty matrix has no spectrum")
    if not np.isfinite(a).all():
        raise InvalidParameter("matrix entries must be finite")
    if n > 1 and float(np.abs(a - a.T).max()) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    shift = max(0, int(np.frexp(np.abs(a).max())[1]) - 256)  # entries below 2^256 keep their bits
    a = np.ldexp(a, -shift)
    with np.errstate(over="ignore"):
        w = np.ldexp(_jacobi_eigenvalues(((a + a.T) / 2.0)[None])[0], shift)
    if not np.isfinite(w).all():
        raise InvalidParameter("matrix has an eigenvalue past the float range")
    return Spectrum(w)


def zero_threshold(n: int) -> float:
    """Size-scaled cutoff below which a computed eigenvalue counts as zero."""
    _check_count(n, "n", 1)
    return 1e-8 * n


def algebraic_connectivity(g: UnderlyingGraph | SampledGraph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff the graph is connected.

    Callers classify connectivity by comparing against ``zero_threshold(n)``.
    """
    _check_count(_vertices_and_edges(g)[0], "n", 2)
    return float(eigenvalues_symmetric(laplacian(g)).eigenvalues[1])


def sample_ell(g: SampledGraph, rng: np.random.Generator) -> float:
    """One draw of a uniformly random nontrivial Laplacian eigenvalue.

    Computes the spectrum once and picks sorted index i, i uniform over
    {1, ..., n - 1} (0-based; index 0 is the trivial zero eigenvalue).
    """
    n = _check_count(_check_graph(g, "g", (SampledGraph,)).parent.n, "n", 2)
    _check_rng(rng)
    w = eigenvalues_symmetric(laplacian(g)).eigenvalues
    return float(w[int(rng.integers(1, n))])


def sample_ell_first_order_statistic(
    parent: UnderlyingGraph,
    p: float,
    N: int,
    rng: np.random.Generator,
    independent_graphs: bool = False,
) -> float:
    """Minimum of N draws of the random nontrivial eigenvalue.

    Default reading: one subgraph is sampled and N eigenvalue indices are
    drawn from its spectrum.  With ``independent_graphs=True`` each of the N
    draws uses a freshly sampled subgraph instead; the two readings share
    marginals, so both have the same mean and variance per draw.  Subgraphs
    are drawn as ``sample_graph`` draws them.  The independent reading gives
    the minimum of N calls of ``sample_ell(sample_graph(parent, p, rng), rng)``
    bit for bit, drawing each subgraph and then its index as they would.
    """
    n = _check_count(_check_graph(parent, "parent").n, "n", 2)
    N = _check_count(N, "N", 1)
    p = _check_fraction(p, "p", closed=True)
    _check_rng(rng)
    ei, ej = _edge_arrays(parent)
    if not independent_graphs:
        _, (present,) = next(_presence_groups(rng, 1, parent.m, (p,), 1))
        return float(_index_minima(rng, _jacobi_eigenvalues(_laplacian_stack(n, ei, ej, present)), 1, N)[0])
    step, best = _group_rows(n * n), float("inf")
    for start in range(0, N, step):
        present = np.empty((min(step, N - start), parent.m), dtype=bool)
        idx = np.empty(len(present), dtype=np.intp)
        for r in range(len(present)):  # each graph's edges, then its index
            _, (row,) = next(_presence_groups(rng, 1, parent.m, (p,), 1))
            present[r], idx[r] = row[0], rng.integers(1, n)
        best = min(best, *_jacobi_eigenvalues(_laplacian_stack(n, ei, ej, present))[np.arange(len(idx)), idx].tolist())
    return best
