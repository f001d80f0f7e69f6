"""Exact enumeration and Monte Carlo estimation of connectivity probabilities.

Everything here is an oracle: an estimator or exact computation that the
closed-form bounds can be checked against.  Sampling is vectorized over
blocks of trials; each block draws from its own child stream spawned from the
base seed, so results are reproducible for fixed (seed, parameters) and do
not depend on how many blocks run or in what order they would be scheduled.

Every estimator runs one block loop, ``_blocks``, which sizes the blocks of
trials and hands each its child stream.  Monte Carlo, the coupled check and
exact enumeration decide connectivity with the package's one kernel,
``graphs._connected_rows``, many edge-presence rows per call.  The three
spectra estimators share one checked loop, ``_block_spectra``.

Memory rule: no array grows with the block budget.  A block's uniforms are
the (rows, T, m) array one ``gen.random`` call would return, but
``_presence_groups`` draws them in the same stream order through one reused
buffer of max(``_DRAW_CHUNK``, m) doubles, whole rows when a row fits and
whole layers of one row otherwise, and compares each chunk straight into a
bool presence group.  A group is as many rows as one kernel sub-block takes,
or, for spectra, as many Laplacians as ``_SPECTRAL_CELLS`` entries hold.  So
a block keeps only its results, such as its spectra for the index draws that
follow them, and its estimates are those of drawing the block at once.

The exact probability rests on the template's profile of connected edge
subsets, counted by whichever of two exact methods is faster: the
vertex-subset recurrence, about 3^(n-1) steps, for dense templates, and
enumeration of all 2^m edge subsets, each step worth about two of the
recurrence's, for sparse ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameter, TooManyEdges, _check_count, _check_fraction
from .graphs import (_CONN_SLOTS, SampledGraph, UnderlyingGraph, _check_graph, _connected_rows, _edge_arrays,
                     _laplacian_stack, _subset_rows)

DEFAULT_ENUMERATION_CAP = 24
DEFAULT_CONFIDENCE = 0.95
_MAX_ENUMERATION_EDGES = 32  # subset ids are uint32; the recurrence's int64 needs 3^m < 2^63
_PAIR_BUDGET = 3**9  # max (S, T) pairs per block of the vertex-subset recurrence

_BLOCK = 8192
_BLOCK_BUDGET = 1 << 22  # max uniforms drawn per block
_DRAW_CHUNK = 1 << 16  # max uniforms held at once, unless one layer of a row holds more
_SPECTRAL_CELLS = 1 << 18  # max Laplacian entries per eigvalsh call

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
    """Exact connectivity probability, from the exact count of connected edge subsets.

    ``terms`` counts the connected edge subsets that contribute to the sum.
    The counts come from the vertex-subset recurrence or from enumerating
    every edge subset, whichever is faster; both are exact integers.
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
    _check_count(trials, "trials", 1)
    if _check_count(successes, "successes", 0) > trials:
        raise InvalidParameter(f"successes {successes} outside [0, {trials}]")
    _check_fraction(confidence, "confidence")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _block_plan(trials: int, draws_per_trial: int) -> list[int]:
    """Split trials into fixed-size blocks, shrinking when a trial draws a lot."""
    _check_count(trials, "trials", 1)
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
    _check_count(seed, "seed", 0)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return ((size, np.random.Generator(np.random.PCG64(child))) for size, child in zip(sizes, children))


def _presence_groups(gen: np.random.Generator, rows: int, m: int, levels: tuple[float, ...], group: int, T: int = 1):
    """An iterator of (start, present) over a block's rows, at most ``group`` at a time, in order.

    The block's uniforms are the (rows, T, m) array that ``gen.random`` would
    return, drawn in the same stream order into one reused buffer: whole rows
    when a row fits in it, else whole layers of one row.  ``present`` has
    shape (len(levels), g, m); entry [k, r, e] is set when any of the T
    uniforms of edge e in row start + r is below levels[k].  It is a view
    that the next group overwrites.
    """
    if m == 0:
        T = 1  # no edge, so no uniform to draw whatever T is
    cap = max(_DRAW_CHUNK, m)  # uniforms per draw
    layers = min(T, cap // max(1, m))  # per draw
    per_draw = max(1, cap // (T * max(1, m)))  # rows per draw; 1 when a row holds more than cap
    buf = np.empty(min(cap, rows * T * m))
    out = np.empty((len(levels), min(group, rows), m), dtype=bool)
    for start in range(0, rows, group):
        present = out[:, : min(group, rows - start)]
        for r in range(0, present.shape[1], per_draw):
            chunk = present[:, r : r + per_draw]
            for t in range(0, T, layers):
                shape = (chunk.shape[1], min(layers, T - t), m)
                u = buf[: shape[0] * shape[1] * m].reshape(shape)
                gen.random(out=u)
                for k, level in enumerate(levels):
                    if t:
                        chunk[k] |= (u < level).any(axis=1)
                    else:
                        np.any(u < level, axis=1, out=chunk[k])
        yield start, present


def _kernel_rows(parent: UnderlyingGraph) -> int:
    """Rows per connectivity group: one sub-block of ``graphs._connected_rows``."""
    return max(1, _CONN_SLOTS // max(parent.m, parent.n))


def _layer_draws(T: int, m: int) -> int:
    """T * m, the uniforms one trial of a T-layer union draws; from 2**63 on, InvalidParameter."""
    if T * m >= 1 << 63:
        raise InvalidParameter(f"a union of T={T} layers of m={m} edges needs T*m < 2**63 uniforms per trial")
    return T * m


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
    p = _check_fraction(p, "p", closed=True)
    T = _check_count(T, "T", 1)
    _layer_draws(T, _check_graph(parent, "parent").m)
    _, present = next(_presence_groups(rng, 1, parent.m, (p,), 1, T))
    return SampledGraph(parent, frozenset(e for e, keep in zip(parent.edges, present[0, 0]) if keep))


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
    p = _check_fraction(p, "p", closed=True)
    T = _check_count(T, "T", 1)
    blocks = _blocks(trials, _layer_draws(T, _check_graph(parent, "parent").m), seed)
    _check_fraction(confidence, "confidence")
    ei, ej = _edge_arrays(parent)
    successes = 0
    for b, gen in blocks:
        for _, (present,) in _presence_groups(gen, b, parent.m, (p,), _kernel_rows(parent), T):
            successes += int(_connected_rows(parent.n, ei, ej, present).sum())
    return _estimate(successes, trials, confidence)


@lru_cache(maxsize=64)
def _connected_profile(parent: UnderlyingGraph) -> tuple[int, ...]:
    """Count connected spanning edge subsets of each size, k = 0 .. m.

    Two exact methods give the same counts; this takes the faster one.  The
    vertex-subset recurrence costs about 3^(n-1) steps and enumeration 2^m
    steps that each cost about two of the recurrence's (n = 12, m = 17: 14 ms
    against 57 ms on a 2-vCPU VM), so the recurrence is used when
    3^(n-1) <= 2^(m+1) (every dense template) and enumeration otherwise
    (trees, cycles and other sparse templates, where n is close to m).
    """
    if 3 ** (parent.n - 1) <= 2 ** (parent.m + 1):
        return _profile_by_recurrence(parent)
    return _profile_by_enumeration(parent)


def _profile_by_enumeration(parent: UnderlyingGraph) -> tuple[int, ...]:
    """The profile from all 2^m edge subsets, a block of presence rows at a time."""
    m, n = parent.m, parent.n
    ei, ej = _edge_arrays(parent)
    counts = np.zeros(m + 1, dtype=np.int64)
    chunk = 1 << 16
    total = 1 << m
    for start in range(0, total, chunk):
        present = _subset_rows(m, start, min(start + chunk, total))
        conn = _connected_rows(n, ei, ej, present)
        k = present.sum(axis=1)
        counts += np.bincount(k[conn], minlength=m + 1).astype(np.int64)
    return tuple(int(c) for c in counts)


def _profile_by_recurrence(parent: UnderlyingGraph) -> tuple[int, ...]:
    """The profile from the vertex-subset recurrence for connected spanning subgraphs.

    Gilbert (1959, *Random graphs*); Colbourn (1987, *The Combinatorics of
    Network Reliability*).  Fix vertex 0.  Every edge subset of the induced
    subgraph on a vertex set S that holds 0 splits into the component T of
    vertex 0, no edge between T and S - T, and any edges inside S - T, so
    with G(X) = (1 + x)^e(X), e(X) the number of template edges inside X,
    the generating polynomial C(S) of connected spanning subsets of S is

        C(S) = G(S) - sum over 0 in T, T a proper subset of S, of C(T) G(S - T).

    The polynomials are kept in the basis y = 1 + x, where G(X) = y^e(X) and
    each product is C(T) shifted up by e(S - T).  Sets are taken one size
    at a time, so every C(T) a set needs is final when the set is reached;
    C(V) is turned back into powers of x with Python ints at the end.

    Why int64 is exact: any partial sum of C(S) is G(S) minus some of the
    terms C(T) G(S - T), each of which counts edge subsets of S with
    nonnegative coefficients that sum, over all T, to at most G(S).  So in
    the x basis coefficient k of a partial sum lies in [0, C(e, k)], e =
    e(S), and in the y basis (x = y - 1) each coefficient has magnitude at
    most sum_k C(e, k) C(k, j) = C(e, j) 2^(e - j) <= 3^e.  With m <= 32 that
    is below 2^51, and nothing wraps.

    Memory: the coefficient table holds 2^(n-1) rows of m + 1 int64, and
    the pair budget does not limit it: 6.5 MB at n = 16, m = 24, the largest
    the default cap sends here, and at worst 277 MB at n = 21, m = 32, the
    largest the 32-edge clamp allows (3^20 <= 2^33).  The (S, T)
    pairs, about 3^(n-1) of them, are formed in blocks of at most
    ``_PAIR_BUDGET``: a cached table over the low vertices, offset by each
    assignment of the remaining high vertices.
    """
    n, m = parent.n, parent.m
    inside = _edges_inside(parent)
    # sets of the other n - 1 vertices, bit v - 1 for vertex v: e(S) with 0 added, e(R) without
    e_with0, e_rest = inside[1::2], inside[0::2]
    width = m + 1
    sets = 1 << (n - 1)
    # row S holds the y-coefficients of C({0} | S); a spare row takes the zero
    # coefficients that the shifts below carry past the last row
    coef = np.zeros((sets + 1) * width, dtype=np.int64)
    coef[np.arange(sets) * width + e_with0] = 1
    low = 0
    while low < n - 1 and 3 ** (low + 1) <= _PAIR_BUDGET:
        low += 1
    s_low, t_low, r_low, low_bounds = _pair_table(low)
    s_high, t_high, r_high, high_bounds = _pair_table(n - 1 - low)
    for size in range(1, n):
        for size_high in range(max(0, size - low), min(size, n - 1 - low) + 1):
            size_low = size - size_high
            for h in range(high_bounds[2 * size_high], high_bounds[2 * size_high + 2]):
                # T = S is not a pair: when R has no high vertex, skip the low triples with R empty
                start = low_bounds[2 * size_low + int(r_high[h] == 0)]
                stop = low_bounds[2 * size_low + 2]
                if start < stop:
                    s = s_low[start:stop] | (int(s_high[h]) << low)
                    t = t_low[start:stop] | (int(t_high[h]) << low)
                    r = r_low[start:stop] | (int(r_high[h]) << low)
                    _subtract_pairs(coef, width, s, t, e_rest[r], int(e_with0[t].max()) + 1)
    in_y = [int(c) for c in coef[(sets - 1) * width : sets * width]]
    return tuple(sum(in_y[k] * math.comb(k, j) for k in range(j, width)) for j in range(width))


def _subtract_pairs(coef: np.ndarray, width: int, s: np.ndarray, t: np.ndarray, shift: np.ndarray, span: int) -> None:
    """C(S) -= C(T) y^shift for each pair, in place, reading coefficients 0 .. span - 1 of C(T).

    ``span`` exceeds every e(T) of the block, and C(T) has no term above
    y^e(T).  Coefficient j of a pair lands in row S at column shift + j, or
    in the next row when that passes m; only zero coefficients go that far,
    because shift + e(T) <= e(S) <= m.
    """
    j = np.arange(span)
    np.subtract.at(coef, ((s * width + shift)[:, None] + j).ravel(), coef[(t * width)[:, None] + j].ravel())


def _edges_inside(parent: UnderlyingGraph) -> np.ndarray:
    """e(X) for all 2^n vertex sets X, bit v for vertex v: template edges with both ends in X."""
    below = [0] * parent.n  # bit i of below[j] marks an edge between i and j > i, in either order
    for i, j in parent.edges:
        below[max(i, j)] |= 1 << min(i, j)
    sets = np.arange(1 << parent.n, dtype=np.int64)
    size = np.zeros(sets.size, dtype=np.int64)  # size[X] = |X|, filled alongside
    inside = np.zeros(sets.size, dtype=np.int64)
    for v in range(parent.n):
        # the sets whose top vertex is v gain its edges to the lower vertices they hold
        low = 1 << v
        size[low : 2 * low] = size[:low] + 1
        inside[low : 2 * low] = inside[:low] + size[sets[:low] & below[v]]
    return inside


@lru_cache(maxsize=16)
def _pair_table(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """All (S, T, R) over ``width`` vertices with T, R a split of S, grouped by |S|.

    Each vertex is outside S, in T or in R, so there are 3^width triples.
    They are sorted by the key 2 |S| + (R nonempty), and ``bounds[key]`` is
    where a key starts: the triples with |S| = k are
    ``bounds[2k]:bounds[2k + 2]``, and those with R nonempty start at
    ``bounds[2k + 1]``.  The table depends only on ``width``.
    """
    s = t = size = np.zeros(1, dtype=np.int64)
    for b in range(width):
        bit = 1 << b
        s = np.concatenate((s, s | bit, s | bit))
        t = np.concatenate((t, t | bit, t))
        size = np.concatenate((size, size + 1, size + 1))
    r = s ^ t
    key = 2 * size + (r != 0)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(2 * width + 3))
    return s[order], t[order], r[order], tuple(int(b) for b in bounds)


def exact_connectivity(parent: UnderlyingGraph, p: float, cap: int = DEFAULT_ENUMERATION_CAP) -> ExactProbability:
    """Exact connectivity probability, summed over the connected edge subsets.

    Each connected spanning subset E' contributes p^|E'| (1-p)^(m-|E'|).
    The number of such subsets of each size comes from ``_connected_profile``,
    which counts them exactly either by the vertex-subset recurrence (dense
    templates) or by enumerating all 2^m subsets (sparse ones).  Graphs with
    more than ``cap`` edges raise TooManyEdges, and so does any graph with
    more than 32 edges whatever ``cap`` says.  ``cap`` must be a
    non-negative integer.  The profile depends only on the template, so
    repeated calls at different p reuse it.
    """
    p = _check_fraction(p, "p", closed=True)
    cap = min(_check_count(cap, "cap", 0), _MAX_ENUMERATION_EDGES)
    if _check_graph(parent, "parent").m > cap:
        raise TooManyEdges(f"graph has {parent.m} edges, enumeration cap is {cap}")
    profile = np.asarray(_connected_profile(parent), dtype=float)
    ks = np.arange(parent.m + 1, dtype=float)
    value = float(np.sum(profile * np.power(p, ks) * np.power(1.0 - p, parent.m - ks)))
    return ExactProbability(value, int(profile.sum()))


def _block_spectra(parent, p, trials: int, seed: int, N=1, independent_graphs=False):
    """Checks p, n >= 2, N, trials and seed, then yields (b, gen, vals): the ascending spectra of a block's graphs."""
    p = _check_fraction(p, "p", closed=True)
    n = _check_count(_check_graph(parent, "parent").n, "n", 2)
    N = _check_count(N, "N", 1)
    graphs = N if independent_graphs else 1
    ei, ej = _edge_arrays(parent)
    for b, gen in _blocks(trials, graphs * (parent.m + n * n), seed):
        vals = np.empty((b * graphs, n))
        for start, (present,) in _presence_groups(gen, b * graphs, parent.m, (p,), max(1, _SPECTRAL_CELLS // (n * n))):
            vals[start : start + present.shape[0]] = np.linalg.eigvalsh(_laplacian_stack(n, ei, ej, present))
        yield b, gen, vals


def _ell_min_sums(parent, p, N, trials: int, seed: int, independent_graphs=False) -> tuple[float, float]:
    """Sums over trials of x and x^2, x being the minimum of a trial's N ell-draws."""
    s1 = s2 = 0.0
    for b, gen, vals in _block_spectra(parent, p, trials, seed, N, independent_graphs):
        rows = np.arange(len(vals)).reshape(b, -1)  # trial r's graphs; one column broadcasts to all N
        x = vals[rows, gen.integers(1, vals.shape[1], size=(b, N))].min(axis=1)
        s1 += float(np.sum(x))
        s2 += float(np.sum(x * x))
    return s1, s2


def empirical_lambda2_moments(parent: UnderlyingGraph, p: float, trials: int, seed: int = 0) -> Lambda2Moments:
    """Monte Carlo first and second moments of the algebraic connectivity.

    Spectra of the sampled Laplacians are computed in batches with LAPACK;
    the Jacobi solver is cross-checked against the same quantity elsewhere.
    """
    s1 = s2 = s4 = 0.0
    for _, _, vals in _block_spectra(parent, p, trials, seed):
        x = vals[:, 1]
        sq = x * x
        s1 += float(np.sum(x))
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
    return EllMoments(*_mean_se(*_ell_min_sums(parent, p, 1, trials, seed), trials), trials)


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
    mean, _, se = _mean_se(*_ell_min_sums(parent, p, N, trials, seed, independent_graphs), trials)
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
    p_low = _check_fraction(p_low, "p_low", closed=True)
    p_high = _check_fraction(p_high, "p_high", closed=True)
    if p_low > p_high:
        raise InvalidParameter(f"p_low {p_low} exceeds p_high {p_high}")
    blocks = _blocks(trials, _check_graph(parent, "parent").m, seed)
    _check_fraction(confidence, "confidence")
    ei, ej = _edge_arrays(parent)
    s_low = s_high = violations = 0
    for b, gen in blocks:
        for _, (low, high) in _presence_groups(gen, b, parent.m, (p_low, p_high), _kernel_rows(parent)):
            conn_low = _connected_rows(parent.n, ei, ej, low)
            conn_high = _connected_rows(parent.n, ei, ej, high)
            s_low += int(conn_low.sum())
            s_high += int(conn_high.sum())
            violations += int((conn_low & ~conn_high).sum())
    return CoupledCheck(_estimate(s_low, trials, confidence), _estimate(s_high, trials, confidence), violations)
