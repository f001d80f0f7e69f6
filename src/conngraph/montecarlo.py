"""Exact enumeration and Monte Carlo estimation of connectivity probabilities.

Everything here is an oracle: an estimator or exact computation that the
closed-form bounds can be checked against.  Sampling is vectorized over
blocks of trials; each block draws from its own child stream spawned from the
base seed, so results are reproducible for fixed (seed, parameters) and do
not depend on how many blocks run or in what order they would be scheduled.

Monte Carlo, the coupled check and exact enumeration all test connectivity
with one kernel, ``_connected_rows``: hook and shortcut over a whole block of
edge-presence rows at once, in a few rounds of whole-array operations (a
path with shuffled labels takes 6 at n = 1000, 10 at n = 40000) rather than
a Python loop over edges.  It reads the presence rows in sub-blocks of at
most ``_CONN_SLOTS`` (row, edge) slots, so its index arrays (about 40 bytes
per slot) stay a few MB whatever the size of the block of uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameter, TooManyEdges
from .graphs import SampledGraph, UnderlyingGraph

DEFAULT_ENUMERATION_CAP = 24
DEFAULT_CONFIDENCE = 0.95
_MAX_ENUMERATION_EDGES = 32  # subset ids are uint32

_BLOCK = 8192
_BLOCK_BUDGET = 1 << 22  # max uniforms drawn per block
_CONN_SLOTS = 1 << 16  # max (row, edge) slots per connectivity sub-block

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_CONFIDENCE",
    "EmpiricalEstimate",
    "ExactProbability",
    "Lambda2Moments",
    "EllMoments",
    "CoupledCheck",
    "wilson_interval",
    "sample_graph",
    "sample_union",
    "empirical_connectivity",
    "exact_connectivity",
    "empirical_lambda2_moments",
    "empirical_ell_moments",
    "empirical_ell_min_mean",
    "coupled_monotonicity_check",
]


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo success-fraction estimate with a Wilson score interval."""

    trials: int
    successes: int
    point: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class ExactProbability:
    """Exact connectivity probability from full edge-subset enumeration.

    ``terms`` counts the connected edge subsets that contribute to the sum.
    """

    value: float
    terms: int


@dataclass(frozen=True)
class Lambda2Moments:
    """Sample moments of the algebraic connectivity over independent draws."""

    mean: float
    mean_sq: float
    se_mean: float
    se_mean_sq: float
    trials: int


@dataclass(frozen=True)
class EllMoments:
    """Sample mean and variance of the random nontrivial eigenvalue."""

    mean: float
    variance: float
    se_mean: float
    trials: int


@dataclass(frozen=True)
class CoupledCheck:
    """Common-random-number comparison of connectivity at two edge probabilities."""

    low: EmpiricalEstimate
    high: EmpiricalEstimate
    dominance_violations: int


def wilson_interval(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials < 1:
        raise InvalidParameter(f"need at least one trial, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParameter(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameter(f"confidence must lie in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _check_probability(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"edge probability must lie in [0, 1], got {p}")
    return float(p)


def _edge_arrays(parent: UnderlyingGraph) -> tuple[np.ndarray, np.ndarray]:
    if parent.m == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    arr = np.asarray(parent.edges, dtype=np.intp)
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


def _block_plan(trials: int, draws_per_trial: int) -> list[int]:
    """Split trials into fixed-size blocks, shrinking when a trial draws a lot."""
    if trials < 1:
        raise InvalidParameter(f"need at least one trial, got {trials}")
    per = max(1, draws_per_trial)
    block = max(1, min(_BLOCK, _BLOCK_BUDGET // per))
    sizes = [block] * (trials // block)
    if trials % block:
        sizes.append(trials % block)
    return sizes


def _block_generators(seed: int, blocks: int):
    for child in np.random.SeedSequence(seed).spawn(blocks):
        yield np.random.Generator(np.random.PCG64(child))


def sample_graph(parent: UnderlyingGraph, p: float, rng: np.random.Generator) -> SampledGraph:
    """Draw one realization: each template edge kept independently with probability p."""
    p = _check_probability(p)
    mask = rng.random(parent.m) < p
    present = frozenset(e for e, keep in zip(parent.edges, mask) if keep)
    return SampledGraph(parent, present)


def sample_union(parent: UnderlyingGraph, p: float, T: int, rng: np.random.Generator) -> SampledGraph:
    """Draw the edgewise union of T independent realizations at probability p."""
    p = _check_probability(p)
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise InvalidParameter(f"need T >= 1 layers, got {T!r}")
    mask = (rng.random((int(T), parent.m)) < p).any(axis=0)
    present = frozenset(e for e, keep in zip(parent.edges, mask) if keep)
    return SampledGraph(parent, present)


def empirical_connectivity(
    parent: UnderlyingGraph,
    p: float,
    T: int = 1,
    trials: int = 10_000,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> EmpiricalEstimate:
    """Fraction of trials whose sampled union of T layers is connected.

    Each trial draws T independent edge layers and takes their union, exactly
    as ``sample_union`` does; no collapsed per-edge shortcut is taken, so this
    estimator remains an independent check on the union identity.
    """
    p = _check_probability(p)
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise InvalidParameter(f"need T >= 1 layers, got {T!r}")
    T = int(T)
    ei, ej = _edge_arrays(parent)
    sizes = _block_plan(trials, T * parent.m)
    successes = 0
    for b, gen in zip(sizes, _block_generators(seed, len(sizes))):
        u = gen.random((b, T, parent.m))
        present = (u < p).any(axis=1)
        successes += int(_connected_rows(parent.n, ei, ej, present).sum())
    low, high = wilson_interval(successes, trials, confidence)
    return EmpiricalEstimate(trials, successes, successes / trials, low, high, confidence)


@lru_cache(maxsize=64)
def _connected_profile(parent: UnderlyingGraph) -> tuple[int, ...]:
    """Count connected edge subsets of each size, by exhaustive enumeration."""
    m, n = parent.m, parent.n
    ei, ej = _edge_arrays(parent)
    bits = np.uint32(1) << np.arange(m, dtype=np.uint32)
    counts = np.zeros(m + 1, dtype=np.int64)
    chunk = 1 << 16
    total = 1 << m
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        present = (ids[:, None] & bits) != 0  # one (chunk, m) uint32 temporary
        conn = _connected_rows(n, ei, ej, present)
        k = present.sum(axis=1)
        counts += np.bincount(k[conn], minlength=m + 1).astype(np.int64)
    return tuple(int(c) for c in counts)


def exact_connectivity(parent: UnderlyingGraph, p: float, cap: int = DEFAULT_ENUMERATION_CAP) -> ExactProbability:
    """Exact connectivity probability by summing over all 2^m edge subsets.

    Each connected subset E' contributes p^|E'| (1-p)^(m-|E'|).  Graphs with
    more than ``cap`` edges raise TooManyEdges, and so does any graph with
    more than 32 edges whatever ``cap`` says: subset ids are uint32.  The
    subset profile depends only on the template, so repeated calls at
    different p reuse it.
    """
    p = _check_probability(p)
    cap = min(cap, _MAX_ENUMERATION_EDGES)
    if parent.m > cap:
        raise TooManyEdges(f"graph has {parent.m} edges, enumeration cap is {cap}")
    profile = np.asarray(_connected_profile(parent), dtype=float)
    ks = np.arange(parent.m + 1, dtype=float)
    value = float(np.sum(profile * np.power(p, ks) * np.power(1.0 - p, parent.m - ks)))
    return ExactProbability(value, int(profile.sum()))


def _laplacian_stack(n: int, ei: np.ndarray, ej: np.ndarray, present: np.ndarray) -> np.ndarray:
    rows = present.shape[0]
    lap = np.zeros((rows, n, n))
    for e in range(ei.shape[0]):
        w = present[:, e].astype(float)
        i, j = int(ei[e]), int(ej[e])
        lap[:, i, i] += w
        lap[:, j, j] += w
        lap[:, i, j] -= w
        lap[:, j, i] -= w
    return lap


def empirical_lambda2_moments(parent: UnderlyingGraph, p: float, trials: int, seed: int = 0) -> Lambda2Moments:
    """Monte Carlo first and second moments of the algebraic connectivity.

    Spectra of the sampled Laplacians are computed in batches with LAPACK;
    the Jacobi solver is cross-checked against the same quantity elsewhere.
    """
    p = _check_probability(p)
    if parent.n < 2:
        raise InvalidParameter("algebraic connectivity needs at least 2 vertices")
    ei, ej = _edge_arrays(parent)
    sizes = _block_plan(trials, parent.m + parent.n * parent.n)
    s1 = s2 = s4 = 0.0
    for b, gen in zip(sizes, _block_generators(seed, len(sizes))):
        present = gen.random((b, parent.m)) < p
        vals = np.linalg.eigvalsh(_laplacian_stack(parent.n, ei, ej, present))
        lam2 = vals[:, 1]
        sq = lam2 * lam2
        s1 += float(np.sum(lam2))
        s2 += float(np.sum(sq))
        s4 += float(np.sum(sq * sq))
    mean = s1 / trials
    mean_sq = s2 / trials
    var = max(0.0, (s2 - trials * mean * mean) / max(1, trials - 1))
    var_sq = max(0.0, (s4 - trials * mean_sq * mean_sq) / max(1, trials - 1))
    return Lambda2Moments(mean, mean_sq, math.sqrt(var / trials), math.sqrt(var_sq / trials), trials)


def empirical_ell_moments(parent: UnderlyingGraph, p: float, trials: int, seed: int = 0) -> EllMoments:
    """Monte Carlo mean and variance of the random nontrivial eigenvalue.

    Each trial is a fresh (subgraph, index) pair: edge uniforms are drawn
    first, then one sorted-spectrum index uniform over {1, ..., n - 1}.
    """
    p = _check_probability(p)
    if parent.n < 2:
        raise InvalidParameter("ell is undefined below 2 vertices")
    ei, ej = _edge_arrays(parent)
    sizes = _block_plan(trials, parent.m + parent.n * parent.n)
    s1 = s2 = 0.0
    for b, gen in zip(sizes, _block_generators(seed, len(sizes))):
        present = gen.random((b, parent.m)) < p
        vals = np.linalg.eigvalsh(_laplacian_stack(parent.n, ei, ej, present))
        idx = gen.integers(1, parent.n, size=b)
        ell = vals[np.arange(b), idx]
        s1 += float(np.sum(ell))
        s2 += float(np.sum(ell * ell))
    mean = s1 / trials
    var = max(0.0, (s2 - trials * mean * mean) / max(1, trials - 1))
    return EllMoments(mean, var, math.sqrt(var / trials), trials)


def empirical_ell_min_mean(
    parent: UnderlyingGraph,
    p: float,
    N: int,
    trials: int,
    seed: int = 0,
    independent_graphs: bool = False,
) -> tuple[float, float]:
    """Monte Carlo mean (and its standard error) of the minimum of N ell-draws.

    Default reading: one subgraph per trial, N indices from its spectrum.
    ``independent_graphs=True`` draws N subgraphs per trial instead.
    """
    p = _check_probability(p)
    if parent.n < 2:
        raise InvalidParameter("ell is undefined below 2 vertices")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidParameter(f"need N >= 1 draws, got {N!r}")
    N = int(N)
    n = parent.n
    ei, ej = _edge_arrays(parent)
    graphs_per_trial = N if independent_graphs else 1
    sizes = _block_plan(trials, graphs_per_trial * (parent.m + n * n))
    s1 = s2 = 0.0
    for b, gen in zip(sizes, _block_generators(seed, len(sizes))):
        present = gen.random((b * graphs_per_trial, parent.m)) < p
        vals = np.linalg.eigvalsh(_laplacian_stack(n, ei, ej, present))
        idx = gen.integers(1, n, size=(b, N))
        if independent_graphs:
            flat = vals.reshape(b * N, n)
            ell = flat[np.arange(b * N), idx.ravel()].reshape(b, N)
        else:
            ell = vals[np.arange(b)[:, None], idx]
        mins = ell.min(axis=1)
        s1 += float(np.sum(mins))
        s2 += float(np.sum(mins * mins))
    mean = s1 / trials
    var = max(0.0, (s2 - trials * mean * mean) / max(1, trials - 1))
    return mean, math.sqrt(var / trials)


def coupled_monotonicity_check(
    parent: UnderlyingGraph,
    p_low: float,
    p_high: float,
    trials: int,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CoupledCheck:
    """Estimate connectivity at two probabilities from common random numbers.

    One uniform per edge per trial; an edge is present at level p when its
    uniform is below p, so the low graph is always a subgraph of the high one
    and connectivity at p_low implies connectivity at p_high trial by trial.
    The dominance count is checked per trial, never just in aggregate.
    """
    p_low = _check_probability(p_low)
    p_high = _check_probability(p_high)
    if p_low > p_high:
        raise InvalidParameter(f"p_low {p_low} exceeds p_high {p_high}")
    ei, ej = _edge_arrays(parent)
    sizes = _block_plan(trials, parent.m)
    s_low = s_high = violations = 0
    for b, gen in zip(sizes, _block_generators(seed, len(sizes))):
        u = gen.random((b, parent.m))
        conn_low = _connected_rows(parent.n, ei, ej, u < p_low)
        conn_high = _connected_rows(parent.n, ei, ej, u < p_high)
        s_low += int(conn_low.sum())
        s_high += int(conn_high.sum())
        violations += int((conn_low & ~conn_high).sum())
    lo_lo, lo_hi = wilson_interval(s_low, trials, confidence)
    hi_lo, hi_hi = wilson_interval(s_high, trials, confidence)
    return CoupledCheck(
        EmpiricalEstimate(trials, s_low, s_low / trials, lo_lo, lo_hi, confidence),
        EmpiricalEstimate(trials, s_high, s_high / trials, hi_lo, hi_hi, confidence),
        violations,
    )
