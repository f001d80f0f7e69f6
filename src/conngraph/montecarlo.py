"""Exact enumeration and Monte Carlo estimation of connectivity probabilities.

Everything here is an oracle: an estimator or exact computation that the
closed-form bounds can be checked against.  Sampling is vectorized over
blocks of trials; each block draws from its own child stream spawned from the
base seed, so results are reproducible for fixed (seed, parameters) and do
not depend on how many blocks run or in what order they would be scheduled.

Every estimator runs one block loop, ``_blocks``, which sizes the blocks of
trials and hands each its child stream.  Monte Carlo, the coupled check and
exact enumeration decide connectivity with the package's one kernel,
``graphs._connected_rows``, a whole block of edge-presence rows per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameter, TooManyEdges
from .graphs import SampledGraph, UnderlyingGraph, _connected_rows, _edge_arrays

DEFAULT_ENUMERATION_CAP = 24
DEFAULT_CONFIDENCE = 0.95
_MAX_ENUMERATION_EDGES = 32  # subset ids are uint32

_BLOCK = 8192
_BLOCK_BUDGET = 1 << 22  # max uniforms drawn per block

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


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise InvalidParameter(f"confidence must lie in (0, 1), got {confidence}")


def wilson_interval(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials < 1:
        raise InvalidParameter(f"need at least one trial, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParameter(f"successes {successes} outside [0, {trials}]")
    _check_confidence(confidence)
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


def _block_plan(trials: int, draws_per_trial: int) -> list[int]:
    """Split trials into fixed-size blocks, shrinking when a trial draws a lot."""
    if not isinstance(trials, (int, np.integer)):
        raise InvalidParameter(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise InvalidParameter(f"need at least one trial, got {trials}")
    per = max(1, draws_per_trial)
    block = max(1, min(_BLOCK, _BLOCK_BUDGET // per))
    sizes = [block] * (trials // block)
    if trials % block:
        sizes.append(trials % block)
    return sizes


def _blocks(trials: int, draws_per_trial: int, seed: int):
    """An iterator of (size, generator) for each block of trials, in order.

    Each block draws from its own PCG64 stream spawned from ``seed``, which
    must be a non-negative integer.  The trial count and the seed are
    checked when this is called, before anything is drawn.
    """
    sizes = _block_plan(trials, draws_per_trial)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return ((size, np.random.Generator(np.random.PCG64(child))) for size, child in zip(sizes, children))


def _estimate(successes: int, trials: int, confidence: float) -> EmpiricalEstimate:
    low, high = wilson_interval(successes, trials, confidence)
    return EmpiricalEstimate(trials, successes, successes / trials, low, high, confidence)


def _mean_se(total: float, total_sq: float, trials: int) -> tuple[float, float, float]:
    """Mean, sample variance and standard error of the mean, from a sum and a sum of squares."""
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / max(1, trials - 1))
    return mean, var, math.sqrt(var / trials)


def sample_graph(parent: UnderlyingGraph, p: float, rng: np.random.Generator) -> SampledGraph:
    """Draw one realization: each template edge kept independently with probability p."""
    return sample_union(parent, p, 1, rng)


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
    blocks = _blocks(trials, T * parent.m, seed)
    _check_confidence(confidence)
    ei, ej = _edge_arrays(parent)
    successes = 0
    for b, gen in blocks:
        present = (gen.random((b, T, parent.m)) < p).any(axis=1)
        successes += int(_connected_rows(parent.n, ei, ej, present).sum())
    return _estimate(successes, trials, confidence)


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


def _sampled_spectra(n: int, ei: np.ndarray, ej: np.ndarray, p: float, gen: np.random.Generator, rows: int) -> np.ndarray:
    """Ascending Laplacian spectra of ``rows`` subgraphs, one row of edge uniforms each."""
    present = gen.random((rows, ei.shape[0])) < p
    return np.linalg.eigvalsh(_laplacian_stack(n, ei, ej, present))


def empirical_lambda2_moments(parent: UnderlyingGraph, p: float, trials: int, seed: int = 0) -> Lambda2Moments:
    """Monte Carlo first and second moments of the algebraic connectivity.

    Spectra of the sampled Laplacians are computed in batches with LAPACK;
    the Jacobi solver is cross-checked against the same quantity elsewhere.
    """
    p = _check_probability(p)
    if parent.n < 2:
        raise InvalidParameter("algebraic connectivity needs at least 2 vertices")
    ei, ej = _edge_arrays(parent)
    s1 = s2 = s4 = 0.0
    for b, gen in _blocks(trials, parent.m + parent.n * parent.n, seed):
        lam2 = _sampled_spectra(parent.n, ei, ej, p, gen, b)[:, 1]
        sq = lam2 * lam2
        s1 += float(np.sum(lam2))
        s2 += float(np.sum(sq))
        s4 += float(np.sum(sq * sq))
    mean, _, se_mean = _mean_se(s1, s2, trials)
    mean_sq, _, se_mean_sq = _mean_se(s2, s4, trials)
    return Lambda2Moments(mean, mean_sq, se_mean, se_mean_sq, trials)


def empirical_ell_moments(parent: UnderlyingGraph, p: float, trials: int, seed: int = 0) -> EllMoments:
    """Monte Carlo mean and variance of the random nontrivial eigenvalue.

    Each trial is a fresh (subgraph, index) pair: edge uniforms are drawn
    first, then one sorted-spectrum index uniform over {1, ..., n - 1}.
    """
    p = _check_probability(p)
    if parent.n < 2:
        raise InvalidParameter("ell is undefined below 2 vertices")
    ei, ej = _edge_arrays(parent)
    s1 = s2 = 0.0
    for b, gen in _blocks(trials, parent.m + parent.n * parent.n, seed):
        vals = _sampled_spectra(parent.n, ei, ej, p, gen, b)
        ell = vals[np.arange(b), gen.integers(1, parent.n, size=b)]
        s1 += float(np.sum(ell))
        s2 += float(np.sum(ell * ell))
    return EllMoments(*_mean_se(s1, s2, trials), trials)


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
    s1 = s2 = 0.0
    for b, gen in _blocks(trials, graphs_per_trial * (parent.m + n * n), seed):
        vals = _sampled_spectra(n, ei, ej, p, gen, b * graphs_per_trial)
        idx = gen.integers(1, n, size=(b, N))
        if independent_graphs:
            flat = vals.reshape(b * N, n)
            ell = flat[np.arange(b * N), idx.ravel()].reshape(b, N)
        else:
            ell = vals[np.arange(b)[:, None], idx]
        mins = ell.min(axis=1)
        s1 += float(np.sum(mins))
        s2 += float(np.sum(mins * mins))
    mean, _, se = _mean_se(s1, s2, trials)
    return mean, se


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
    blocks = _blocks(trials, parent.m, seed)
    _check_confidence(confidence)
    ei, ej = _edge_arrays(parent)
    s_low = s_high = violations = 0
    for b, gen in blocks:
        u = gen.random((b, parent.m))
        conn_low = _connected_rows(parent.n, ei, ej, u < p_low)
        conn_high = _connected_rows(parent.n, ei, ej, u < p_high)
        s_low += int(conn_low.sum())
        s_high += int(conn_high.sum())
        violations += int((conn_low & ~conn_high).sum())
    return CoupledCheck(_estimate(s_low, trials, confidence), _estimate(s_high, trials, confidence), violations)
