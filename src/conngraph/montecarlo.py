"""Exact counting and Monte Carlo estimation of connectivity probabilities.

Everything here is an oracle: an estimator or exact computation that the
closed-form bounds can be checked against.  Sampling is vectorized over
blocks of trials; each block draws from its own child stream spawned from the
base seed, so results are reproducible for fixed (seed, parameters) and do
not depend on how many blocks run or in what order they would be scheduled.

Every estimator runs one block loop, ``_blocks``, which sizes each block of
trials and spawns its child stream when the loop reaches it, so neither the
set-up time nor the memory of a run grows with its trial count.  Monte Carlo
and the coupled check share one connectivity loop, ``_connected_groups``,
which hands the package's one kernel, ``graphs._connected_rows``, each
presence group at each level, through one set of kernel tables per call.
The three spectra estimators share one checked loop, ``_block_spectra``.

A block's uniforms are the (rows, T, m) array one ``gen.random`` call would
return, but ``_presence_groups`` draws them in the same stream order through
one reused buffer and compares them straight into bool presence groups,
sized by the memory rule in ``graphs``.  So a block keeps only its results,
such as its spectra for the index draws that follow them, and its
estimates are those of drawing the block at once.  The one exception: with
``independent_graphs=True`` a block of b trials keeps b * N spectra, so
``empirical_ell_min_mean``'s memory grows with N.  The index draws come a
bounded chunk at a time too, ``_index_minima``, as one call would draw them.

The exact probability rests on the template's profile of connected edge
subsets, counted by one frontier-based search over the edges, whose cost
follows the width of the template's vertex order rather than 2^m.  The
profile depends only on the template, so one record per template is cached,
``_exact_table``: the profile as floats, the exponents of p and 1 - p, and
the count of connected subsets.  A sweep over p then runs one search and one
array build, and each further p only evaluates the sum on the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import InvalidEdge, InvalidParameter, TooManyEdges, _check_count, _check_fraction, _check_rng
from .graphs import (SampledGraph, UnderlyingGraph, _check_graph, _connected_rows, _edge_arrays, _group_rows,
                     _KernelTables, _laplacian_stack)

DEFAULT_ENUMERATION_CAP = 24
DEFAULT_CONFIDENCE = 0.95
_MAX_ENUMERATION_EDGES = 32  # bounds the frontier search's work on dense templates (K8's 28 edges: about 13 ms)

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
    """Exact connectivity probability, from the exact count of connected edge subsets.

    ``terms`` counts the connected edge subsets that contribute to the sum.
    The counts come from an exact frontier-based search over the edges, run
    once per template and cached with the arrays the sum is evaluated on.
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


def _check_trials(trials) -> int:
    """trials, if it is an integer from 1 to 2**53; else InvalidParameter.

    Every estimate divides by its trial count as a float.  Past 2**53 floats
    no longer hold every integer, past about 6.7e153 the Wilson interval's
    4 trials^2 overflows, and past about 1.8e308 the trial count itself.
    """
    trials = _check_count(trials, "trials", 1)
    if trials > 2**53:
        raise InvalidParameter(f"estimates need trials <= 2**53 = {2**53}, got {trials}")
    return trials


def wilson_interval(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1].

    It starts at exactly 0.0 with no success and ends at exactly 1.0 with
    all, where center -/+ half would leave a few ulps.  z is minus the lower
    quantile where (1 + confidence) / 2 rounds to 1.0.
    """
    _check_trials(trials)
    if _check_count(successes, "successes", 0) > trials:
        raise InvalidParameter(f"successes {successes} outside [0, {trials}]")
    _check_fraction(confidence, "confidence")
    upper = (1.0 + confidence) / 2.0
    z = NormalDist().inv_cdf(upper) if upper < 1.0 else -NormalDist().inv_cdf((1.0 - confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    low = max(0.0, center - half) if successes else 0.0
    high = min(1.0, center + half) if successes < trials else 1.0
    return low, high


def _blocks(trials: int, draws_per_trial: int, seed: int):
    """An iterator of (size, generator) for each block of trials, in order, made as the loop reaches it.

    Blocks hold _BLOCK trials, fewer when a trial draws a lot, and the last
    holds the rest.  Each draws from its own PCG64 stream, the next child
    spawned from ``seed``: k spawns of one child give the children of one
    spawn of k.  The trial count and the seed, a non-negative integer, are
    checked when this is called, before anything is drawn.
    """
    trials = _check_trials(trials)
    root = np.random.SeedSequence(_check_count(seed, "seed", 0))
    block = max(1, min(_BLOCK, _BLOCK_BUDGET // max(1, draws_per_trial)))
    return (
        (min(block, trials - start), np.random.Generator(np.random.PCG64(*root.spawn(1))))
        for start in range(0, trials, block)
    )


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
    cap = max(_group_rows(1), m)  # uniforms per draw: a group of one-cell rows, or one layer of a row
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


def _connected_groups(parent: UnderlyingGraph, blocks, levels: tuple[float, ...], T: int = 1):
    """Kernel verdicts of each presence group of the caller's blocks, one array per level, through one set of tables."""
    tables = _KernelTables(parent.n, *_edge_arrays(parent))
    for b, gen in blocks:
        for _, present in _presence_groups(gen, b, parent.m, levels, _group_rows(max(parent.m, parent.n)), T):
            yield [_connected_rows(tables, rows) for rows in present]


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
    _check_rng(rng)
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
    successes = sum(int(connected.sum()) for (connected,) in _connected_groups(parent, blocks, (p,), T))
    return _estimate(successes, trials, confidence)


def _connected_profile(parent: UnderlyingGraph) -> tuple[int, ...]:
    """Count connected spanning edge subsets of each size, k = 0 .. m.

    Frontier-based search (Hardy, Lucet & Limnios 2007, IEEE Trans.
    Reliability 56(3); Kawahara et al. 2017, IEICE Trans. Fundamentals
    E100-A(9)).  Edges are decided one at a time, skipped or taken.  The
    frontier is the vertices met so far that still have an edge to come, and
    a state is the partition of the frontier into the blocks that the taken
    edges join, as block labels renumbered by first appearance.  A state's
    value is its count polynomial in taken edges, packed into one int at
    m + 1 bits per coefficient; a coefficient counts edge subsets, so it
    stays below 2^m and no carry crosses into the next.  Taking an edge
    joins two blocks and shifts the value up one coefficient; an edge inside
    one block adds both branches to the same state.  A vertex leaves the
    frontier after its last edge, and a block that leaves with it can never
    be joined again, so its state dies unless no frontier vertex is left.
    Then every vertex has been met: a vertex not yet met has a breadth-first
    parent that is still on the frontier, waiting for the edge between them.

    The cost follows the frontier's width, so vertices are taken in
    Cuthill-McKee order, which keeps it narrow: breadth-first with neighbours
    by ascending degree, from the last vertex that a breadth-first search
    from a minimum-degree vertex reaches.  Edges go by their later end, then
    their earlier one.
    """
    n, width = parent.n, parent.m + 1
    adjacent = [[] for _ in range(n)]
    for i, j in parent.edges:
        if not (0 <= i < n and 0 <= j < n):  # a hand-built template
            raise InvalidEdge(f"edge ({i}, {j}) out of range for n={n}")
        adjacent[i].append(j)
        adjacent[j].append(i)
    for vs in adjacent:
        vs.sort(key=lambda v: (parent.degrees[v], v))
    order = _breadth_first(adjacent, _breadth_first(adjacent, min(range(n), key=parent.degrees.__getitem__))[-1])
    if len(order) < n:  # a hand-built template that is not connected
        return (0,) * width
    rank = {v: r for r, v in enumerate(order)}
    edges = sorted(parent.edges, key=lambda e: sorted((rank[e[0]], rank[e[1]]), reverse=True))
    last = {v: k for k, e in enumerate(edges) for v in e}
    frontier, states = [], {(): 1}
    for k, (i, j) in enumerate(edges):
        for v in (i, j):
            if v not in frontier:
                frontier.append(v)
                states = {s + (max(s, default=-1) + 1,): c for s, c in states.items()}
        a, b = frontier.index(i), frontier.index(j)
        taken: dict[tuple[int, ...], int] = {}
        for s, c in states.items():
            lo, hi = s[a], s[b]
            if lo == hi:
                taken[s] = taken.get(s, 0) + c + (c << width)
                continue
            taken[s] = taken.get(s, 0) + c
            if lo > hi:
                lo, hi = hi, lo
            # hi's block joins lo's, and the labels above hi close the gap: still in first-appearance order
            s = tuple([lo if x == hi else x - (x > hi) for x in s])
            taken[s] = taken.get(s, 0) + (c << width)
        states = taken
        for v in dict.fromkeys((i, j)):  # a self-loop's vertex leaves once
            if last[v] == k:
                at = frontier.index(v)
                del frontier[at]
                kept: dict[tuple[int, ...], int] = {}
                for s, c in states.items():
                    rest = s[:at] + s[at + 1 :]
                    if s[at] in rest:
                        if s.index(s[at]) == at:  # its block's first appearance moves: renumber
                            labels: dict[int, int] = {}
                            rest = tuple([labels.setdefault(x, len(labels)) for x in rest])
                    elif rest:
                        continue
                    kept[rest] = kept.get(rest, 0) + c
                states = kept
    total = states.get((), 0)
    return tuple(total >> (k * width) & ((1 << width) - 1) for k in range(width))


def _breadth_first(adjacent: list[list[int]], start: int) -> list[int]:
    """The vertices reachable from start, in breadth-first order over the adjacency lists' order."""
    order, seen = [start], {start}
    for v in order:
        for w in adjacent[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


@lru_cache(maxsize=64)
def _exact_table(parent: UnderlyingGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The record ``exact_connectivity`` evaluates at every p: (coef, k, m_k, terms).

    coef is the template's profile as floats, k the sizes 0 .. m and m_k
    the sizes m - k, as floats; terms is the sum of the profile.  The arrays
    are read-only, since every call on the template shares them.
    """
    counts = _connected_profile(parent)
    k = np.arange(parent.m + 1, dtype=float)
    arrays = (np.asarray(counts, dtype=float), k, parent.m - k)
    for a in arrays:
        a.flags.writeable = False
    return *arrays, sum(counts)


def exact_connectivity(parent: UnderlyingGraph, p: float, cap: int = DEFAULT_ENUMERATION_CAP) -> ExactProbability:
    """Exact connectivity probability, summed over the connected edge subsets.

    Each connected spanning subset E' contributes p^|E'| (1-p)^(m-|E'|).
    The number of such subsets of each size comes from ``_connected_profile``,
    which counts them exactly by a frontier-based search.  Graphs with
    more than ``cap`` edges raise TooManyEdges, and so does any graph with
    more than 32 edges whatever ``cap`` says.  ``cap`` must be a
    non-negative integer.  The profile depends only on the template, so it
    is searched once per template: ``_exact_table`` keeps it as floats, with
    the exponent arrays and the count of subsets, for the 64 most recently
    used templates, and a call at another p only evaluates the sum on them.
    """
    p = _check_fraction(p, "p", closed=True)
    cap = min(_check_count(cap, "cap", 0), _MAX_ENUMERATION_EDGES)
    if _check_graph(parent, "parent").m > cap:
        raise TooManyEdges(f"graph has {parent.m} edges, enumeration cap is {cap}")
    coef, k, m_k, terms = _exact_table(parent)
    return ExactProbability(float(np.add.reduce(coef * np.power(p, k) * np.power(1.0 - p, m_k))), terms)


def _block_spectra(parent, p, trials: int, seed: int, N=1, independent_graphs=False):
    """Checks p, n >= 2, N, trials and seed, then yields (b, gen, vals): the ascending spectra of a block's graphs."""
    p = _check_fraction(p, "p", closed=True)
    n = _check_count(_check_graph(parent, "parent").n, "n", 2)
    N = _check_count(N, "N", 1)
    graphs = N if independent_graphs else 1
    ei, ej = _edge_arrays(parent)
    for b, gen in _blocks(trials, graphs * (parent.m + n * n), seed):
        vals = np.empty((b * graphs, n))
        for start, (present,) in _presence_groups(gen, b * graphs, parent.m, (p,), _group_rows(n * n)):
            vals[start : start + present.shape[0]] = np.linalg.eigvalsh(_laplacian_stack(n, ei, ej, present))
        yield b, gen, vals


def _index_minima(gen: np.random.Generator, vals: np.ndarray, trials: int, N: int) -> np.ndarray:
    """Per trial, the least of N entries vals[g, i], each i uniform over 1 .. n - 1.

    vals holds ascending spectra, one row per graph: one graph per trial,
    which all N draws read, or N, one a draw.  The indices are those one
    ``gen.integers(1, n, size=(trials, N))`` call would draw, drawn in the
    same stream order at most ``_group_rows(1)`` at a time: whole trials
    when a trial fits, else pieces of one trial, whose minima run.
    """
    graphs = np.broadcast_to(np.arange(len(vals)).reshape(trials, -1), (trials, N))  # no copy
    per, piece = _group_rows(N), min(N, _group_rows(1))
    x = np.full(trials, np.inf)
    for r in range(0, trials, per):
        for j in range(0, N, piece):
            idx = gen.integers(1, vals.shape[1], size=(min(per, trials - r), min(piece, N - j)))
            np.minimum(x[r : r + per], vals[graphs[r : r + per, j : j + piece], idx].min(axis=1), out=x[r : r + per])
    return x


def _ell_min_sums(parent, p, N, trials: int, seed: int, independent_graphs=False) -> tuple[float, float]:
    """Sums over trials of x and x^2, x being the minimum of a trial's N ell-draws."""
    s1 = s2 = 0.0
    for b, gen, vals in _block_spectra(parent, p, trials, seed, N, independent_graphs):
        x = _index_minima(gen, vals, b, N)
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
    ``independent_graphs=True`` draws N subgraphs per trial instead, and its
    memory grows with N: it keeps their N spectra until the index draws.
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
    s_low = s_high = violations = 0
    for low, high in _connected_groups(parent, blocks, (p_low, p_high)):
        s_low += int(low.sum())
        s_high += int(high.sum())
        violations += int((low & ~high).sum())
    return CoupledCheck(_estimate(s_low, trials, confidence), _estimate(s_high, trials, confidence), violations)
