"""Symmetric eigensolver and samplers over random-subgraph spectra.

The solver is a cyclic Jacobi rotation scheme.  It is deliberately
self-contained so it can serve as an independent check on both the closed-form
bounds and the LAPACK-backed batch estimators: agreement between unrelated
eigenvalue routines is part of the package's verification story.

The "ell" samplers draw a uniformly random nontrivial Laplacian eigenvalue of
a random subgraph: the spectrum is sorted ascending, index 1 through n - 1
are the nontrivial positions, and each is picked with probability 1/(n - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoConvergence, NotSymmetric
from .graphs import SampledGraph, UnderlyingGraph, laplacian
from .montecarlo import sample_graph

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-12

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


def _off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    return math.sqrt(2.0) * float(np.linalg.norm(np.triu(a, 1)))


def _jacobi_sweep(a: np.ndarray) -> None:
    """One cyclic sweep of Jacobi rotations, in place."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            app, aqq = a[p, p], a[q, q]
            theta = (aqq - app) / (2.0 * apq)
            if abs(theta) > 1e150:
                # theta * theta would overflow; there t = 1/(2 theta) to rounding
                t = 0.5 / theta
            elif theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
            else:
                t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            new_p = c * col_p - s * col_q
            new_q = s * col_p + c * col_q
            a[:, p] = new_p
            a[p, :] = new_p
            a[:, q] = new_q
            a[q, :] = new_q
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0


def eigenvalues_symmetric(matrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The input must be square and symmetric within 1e-12 elementwise, else
    NotSymmetric.  Sweeps run until the off-diagonal Frobenius norm drops
    below 1e-10 times the input's Frobenius norm (floored at 1.0); more than
    100 sweeps raises NoConvergence.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise InvalidParameter("empty matrix has no spectrum")
    if n > 1 and float(np.abs(a - a.T).max()) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    work = (a + a.T) / 2.0
    target = JACOBI_REL_TOL * max(float(np.linalg.norm(work)), 1.0)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_norm(work) <= target:
            break
        _jacobi_sweep(work)
    else:
        if _off_diagonal_norm(work) > target:
            raise NoConvergence(f"off-diagonal norm above tolerance after {JACOBI_MAX_SWEEPS} sweeps")
    return Spectrum(np.sort(work.diagonal().copy()))


def zero_threshold(n: int) -> float:
    """Size-scaled cutoff below which a computed eigenvalue counts as zero."""
    return 1e-8 * n


def algebraic_connectivity(g: UnderlyingGraph | SampledGraph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff the graph is connected.

    Callers classify connectivity by comparing against ``zero_threshold(n)``.
    """
    n = g.n if isinstance(g, UnderlyingGraph) else g.parent.n
    if n < 2:
        raise InvalidParameter("algebraic connectivity needs at least 2 vertices")
    return float(eigenvalues_symmetric(laplacian(g)).eigenvalues[1])


def sample_ell(g: SampledGraph, rng: np.random.Generator) -> float:
    """One draw of a uniformly random nontrivial Laplacian eigenvalue.

    Computes the spectrum once and picks sorted index i, i uniform over
    {1, ..., n - 1} (0-based; index 0 is the trivial zero eigenvalue).
    """
    n = g.parent.n
    if n < 2:
        raise InvalidParameter("ell is undefined below 2 vertices")
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
    marginals, so both have the same mean and variance per draw.
    """
    if parent.n < 2:
        raise InvalidParameter("ell is undefined below 2 vertices")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidParameter(f"need N >= 1 draws, got {N!r}")
    N = int(N)
    if independent_graphs:
        return min(sample_ell(sample_graph(parent, p, rng), rng) for _ in range(N))
    g = sample_graph(parent, p, rng)
    w = eigenvalues_symmetric(laplacian(g)).eigenvalues
    idx = rng.integers(1, parent.n, size=N)
    return float(w[idx].min())
