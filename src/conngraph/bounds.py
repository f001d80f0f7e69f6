"""Closed-form lower bounds on the probability that a random subgraph is connected.

Model: a connected template with n vertices, m edges, and degree sequence d
keeps each edge independently with probability p.  Let ell be a uniformly
random nontrivial Laplacian eigenvalue of the result.  Its mean and variance
have closed forms:

    mu      = 2 m p / (n - 1)
    sigma^2 = S^2 / (n - 1)^2,
    S^2     = p (p A0 + q 4m(n-1)),   A0 = (n-1)(2m + sum(d_i^2)) - 4 m^2,

with q = 1 - p.  Over the template's n-1 nontrivial Laplacian eigenvalues,
sum = 2m and sum of squares = 2m + sum d^2, so by Cauchy-Schwarz A0 =
(n-1) sum(lambda^2) - (sum lambda)^2 >= 0 and S^2 sums nonnegative terms.
Statistics with A0 < 0 describe no graph and raise InvalidParameter.

An order-statistic argument turns these into a lower bound on the expected
algebraic connectivity, a trace argument gives an upper bound on its second
moment, and a second-moment (Paley-Zygmund) step combines the two into a
lower bound on P[connected].  It has a free parameter, the number N of
eigenvalue draws the order statistic uses, and the bound is the maximum over
N >= 2 of

    (a R(N) - b sqrt(N-1))_+^2 / ((n-1) R(N)^2 E)  =  (a - b g(N))_+^2 / ((n-1) E),
    R(N) = 1 - ((n-2)/(n-1))^(N-1),   g(N) = sqrt(N-1) / R(N),

with a = 2mp, b = S and E the second-moment energy.  Only g depends on N,
and g depends on nothing but n: in y = (N-1) L with L = -log(1 - 1/(n-1)),
g = sqrt(y / L) / (1 - e^-y), which falls and then rises, with its minimum at
the root y* = 1.2564312086... of e^y = 1 + 2y.  So the best draw count is
N_c = 1 + y*/L, rounded to the better neighbouring integer and kept inside
[2, n_hi], where n_hi (``n_search_max``) is the largest N at which the
numerator can be positive at all.

Floating point makes the ratio at neighbouring N tie or jitter in its last
bits, most of all when b is tiny (p near 1), and the reported N is the
smallest one that attains the largest computed ratio.  So the ratio is
evaluated, with one fixed expression, over the rounding band: every N whose
true value could lie within rounding error of the maximum, that is, with
g(N) <= g_min + 2 tau / b where tau = 64 eps (a + b g_min), widened by one
on each side.  Quasi-convexity of g makes that band an interval around N_c.
It holds 2-4 draw counts in well-conditioned cells and grows towards
[2, n_hi] as b vanishes; past the N at which R(N) rounds to exactly 1 the
computed ratio can only fall, which ends the band there.  A cell with
a - b g_min < -tau is vacuous: every ratio rounds to 0 and N = 2 is reported.

The expression has two shapes that round every operation alike.  A band of
at most 16 draw counts, which is nearly every band, is evaluated one N at a
time on Python floats, where numpy's fixed cost per call would dominate; 16
is where the two shapes cost the same.  A wider band, up to 10^6 draw counts
as b vanishes, is evaluated in numpy arrays.  Both take R(N) from np.expm1,
never math.expm1: numpy's vectorized expm1 and the C library's can differ in
the last bit, and the two shapes, hence every pinned maximizing N, must agree.

For unions of T independent samples of the same template, connectivity of
the union equals connectivity of a single sample with the collapsed edge
probability p_hat(T) = 1 - (1 - p)^T, so every bound extends to unions by
substitution.  The bound is monotone in T (below), so the union horizon
search gallops over T in doubling steps and bisects.  Two closed forms
settle most of its probes, at 1-2 us each against a cell's 10: from below,
the cell's own ratio at the draw count its band grows from; from above,
(a - b g_lo)_+^2 / ((n-1) E) widened for rounding, with g_lo the least g(N)
over 2 <= N <= n_cap, so that no cell exceeds it whatever its band or n_hi
(_horizon_bracket).  A probe evaluates its cell only when its value falls
between the two: near the crossing, or on a plateau where rounding jitters
the bound.  So a search usually evaluates one or two cells, where it
evaluated two per doubling of T*, and still probes the same horizons, hence
returns the same result, as a search over cells alone.  A horizon reads only the cell's
maximized ratio, not its BoundResult.

The bound does not fall as p rises, hence not as T rises.  At fixed N and
q = 1 - p, the general ratio is (2m - g S/p)_+^2 / ((n-1) E/p^2), where
S/p = sqrt(A0 + 4m(n-1) q/p) and E/p^2 = 2m(2-p)/p + sum d^2 both fall in
p.  The complete ratio is (a - g b)_+^2 / ((n-1) E), where
a^2/E = n(n-1)p / (2q + np) rises in p and b^2/E = 2(n-1)q / (2q + np)
falls.  The maximum of such ratios over the fixed range 2 <= N <= n_cap,
clamped at 1, cannot fall either.

The command line reaches unions through two private entries: _union_cell,
the cell of T samples (one for T None) from the exact complement q_hat, which
p_hat cannot carry once it rounds to 1, by the complete or general route or,
for n <= 2, as the exact probability 1 or p_hat; and _union_search over them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidParameter, TStarNotFound, _check_count, _check_fraction
from .graphs import UnderlyingGraph, _check_graph, sum_degree_squares

DEFAULT_N_CAP = 10**6
DEFAULT_T_MAX = 10**5

# root of e^y = 1 + 2y: the minimum of g in y = (N-1) L (module docstring)
_Y_STAR = 1.2564312086261697
# tau / (a + b g_min): a generous bound on the rounding error of one ratio
_ROUNDING = 64 * np.finfo(float).eps
# relative and absolute widening of a horizon's closed-form upper bound, and
# the p_hat below which it gives up and reads 1 (_horizon_bracket)
_UPPER_SLACK = 2.0**-44
_UPPER_FLOOR = 2.0**-500
# (N-1) L past which R(N) = 1 - e^-((N-1) L) rounds to exactly 1
_SATURATION = 40.0
# widest band evaluated one draw count at a time on Python floats; wider
# bands go to numpy, whose fixed cost per call pays from here on (module docstring)
_SCALAR_BAND = 16
# draw counts per array evaluation of a wide band, which bounds its memory
_BAND_CHUNK = 4096
# the smallest positive float: a ratio's denominator that underflowed to 0
# divides as this one, so that a zero numerator gives 0 and not NaN
_TINIEST = 5e-324

__all__ = [
    "DEFAULT_N_CAP",
    "DEFAULT_T_MAX",
    "ModelParams",
    "BoundResult",
    "TStarResult",
    "r_factor",
    "ell_mean",
    "s_value",
    "ell_variance",
    "ell_first_order_lower",
    "lambda2_mean_lower",
    "lambda2_sq_mean_upper",
    "connectivity_bound_at_N",
    "n_search_max",
    "connectivity_bound",
    "connectivity_bound_from_stats",
    "connectivity_bound_complete",
    "union_edge_probability",
    "t_star",
    "t_star_from_stats",
    "t_star_complete",
]


@dataclass(frozen=True)
class ModelParams:
    """A template graph together with the edge-retention probability.

    p must lie strictly inside (0, 1) and the template must have at least
    3 vertices; smaller templates have exact closed forms instead of bounds.
    """

    graph: UnderlyingGraph
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_fraction(self.p, "p"))
        _check_count(_check_graph(self.graph, "graph").n, "n", 3)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.graph.degrees


@dataclass(frozen=True)
class BoundResult:
    """A maximized connectivity bound plus the diagnostics behind it.

    numerator and denominator are the maximized ratio's two sides exactly as
    the evaluating routine parameterizes them; mu, sigma_squared, and s_value
    always refer to the ell statistics of the model.
    """

    probability_lower_bound: float
    maximizing_n: int
    n_search_max: int
    numerator: float
    denominator: float
    s_value: float
    mu: float
    sigma_squared: float


@dataclass(frozen=True)
class TStarResult:
    """Smallest union horizon whose bound reaches the requested target.

    trace: the (T, bound) pairs for T = 1 .. t_star, each evaluated when read.
    """

    t_star: int
    epsilon: float
    bound_at_t_star: float
    trace: Sequence[tuple[int, float]]


def r_factor(N: int, n: int) -> float:
    """Probability that N index draws hit the spectrum's second position.

    Equals 1 - ((n-2)/(n-1))^(N-1), computed in log space so large n and N
    lose no precision.  Zero at N = 1.
    """
    N = _check_size(_check_count(N, "N", 1), "N", "draws")
    n = _check_size(_check_count(n, "n", 3), "n", "vertices")
    return -math.expm1((N - 1) * math.log1p(-1.0 / (n - 1)))


def _check_params(params) -> ModelParams:
    """params, if it is a ModelParams; else InvalidParameter naming it."""
    if not isinstance(params, ModelParams):
        raise InvalidParameter(f"params must be a ModelParams, got {params!r}")
    return params


def ell_mean(params: ModelParams) -> float:
    """Mean of the random nontrivial eigenvalue: 2 m p / (n - 1)."""
    params = _check_params(params)
    return 2.0 * params.m * params.p / (params.n - 1)


def _check_size(value: int, name: str, unit: str) -> int:
    """value, if it is at most 2**53; else InvalidParameter naming it.

    The bounds use n and the draw counts N, up to about n, as floats, and
    past 2**53 floats no longer hold every integer.  Checked before any term
    is formed, since a count past the largest float cannot become one.
    """
    if value > 2**53:
        raise InvalidParameter(f"bounds need {name} <= 2**53 = {2**53} {unit}, got {value}")
    return value


def _check_stats(n: int, m: int, deg_sq: int) -> tuple[int, int, int]:
    """(n, m, deg_sq), if a simple graph on n >= 3 vertices could have them; else InvalidParameter.

    A simple graph has m <= n(n-1)/2 edges and degrees of at most n - 1, so
    deg_sq <= n(n-1)^2.  Checked on the integers, before any float is formed.
    """
    n = _check_count(n, "n", 3)
    m = _check_count(m, "m", 1)
    deg_sq = _check_count(deg_sq, "deg_sq", 1)
    if 2 * m > n * (n - 1):
        raise InvalidParameter(f"statistics n={n}, m={m} describe no simple graph: m > n(n-1)/2 = {n * (n - 1) // 2}")
    if deg_sq > n * (n - 1) ** 2:
        raise InvalidParameter(f"statistics n={n}, deg_sq={deg_sq} describe no simple graph: deg_sq > n(n-1)^2 = {n * (n - 1) ** 2}")
    return n, m, deg_sq


def _general_terms(n: int, m: int, deg_sq: int, p: float, q: float):
    """(a, S^2, E) of the general route.

    S^2 = p (p A0 + q 4m(n-1)) and E = 2mp(1 + q) + p^2 sum(d^2), with A0 an
    exact integer: sums of nonnegative pieces, so they stay accurate at every
    p.  A0 < 0 describes no graph (module docstring) and raises InvalidParameter.
    """
    a0 = (n - 1) * (2 * m + deg_sq) - 4 * m * m
    if a0 < 0:
        raise InvalidParameter(f"statistics n={n}, m={m}, deg_sq={deg_sq} describe no graph: (n-1)(2m + deg_sq) < 4m^2")
    return 2.0 * m * p, p * (p * float(a0) + q * float(4 * m * (n - 1))), 2.0 * m * p * (1.0 + q) + p * p * float(deg_sq)


def _complete_terms(n: int, p: float, q: float):
    """(a, b^2, E) of the complete template's reduced parameterization."""
    return math.sqrt(n * (n - 1) * p), 2.0 * (n - 1) * q, 2.0 * q + n * p


def _model_terms(params: ModelParams) -> tuple[float, float, float]:
    """(a, S^2, E) of a model, after checking that it is one."""
    params = _check_params(params)
    return _general_terms(params.n, params.m, sum_degree_squares(params.graph), params.p, 1.0 - params.p)


def s_value(params: ModelParams) -> float:
    """Square root of S^2 = 2mp(n-1)(2-p) + p^2(n-1)sum(d_i^2) - 4m^2p^2.

    Evaluated as the nonnegative terms p (p A0 + q 4m(n-1)) of the module
    docstring; statistics of no graph (A0 < 0) raise InvalidParameter.
    """
    return math.sqrt(_model_terms(params)[1])


def ell_variance(params: ModelParams) -> float:
    """Variance of the random nontrivial eigenvalue: S^2 / (n - 1)^2."""
    return _model_terms(params)[1] / (params.n - 1) ** 2


def ell_first_order_lower(params: ModelParams, N: int) -> float:
    """Lower bound on the expected minimum of N eigenvalue draws.

    max(0, (2mp - S sqrt(N-1)) / (n-1)); at N = 1 it reduces to the mean.
    """
    N = _check_size(_check_count(N, "N", 1), "N", "draws")
    s = s_value(params)
    return max(0.0, (2.0 * params.m * params.p - s * math.sqrt(N - 1.0)) / (params.n - 1))


def lambda2_mean_lower(params: ModelParams, N: int) -> float:
    """Lower bound on the expected algebraic connectivity, at draw count N.

    max(0, (2mp R - S sqrt(N-1)) / ((n-1) R)) with R = r_factor(N, n).
    Needs N >= 2; at N = 1 the factor R vanishes and nothing is learned.
    """
    N = _check_size(_check_count(N, "N", 2), "N", "draws")
    s = s_value(params)
    r = r_factor(N, params.n)
    raw = 2.0 * params.m * params.p * r - s * math.sqrt(N - 1.0)
    return max(0.0, raw / ((params.n - 1) * r))


def lambda2_sq_mean_upper(params: ModelParams) -> float:
    """Upper bound on the mean squared algebraic connectivity.

    (4mp - 2mp^2 + p^2 sum(d_i^2)) / (n - 1), evaluated as a sum of
    positive terms.
    """
    return _model_terms(params)[2] / (params.n - 1)


def _range_limit(a: float, b: float, n_cap: int) -> int:
    # Largest N that can make the numerator positive: N - 1 < (a/b)^2 since
    # R < 1, which is exactly the (S^2 + 4m^2p^2) / S^2 ratio in the general
    # parameterization.  Capped, floored, and never below 2.
    b_sq = b * b
    if b_sq <= 0.0:
        return n_cap
    ratio = 1.0 + (a * a) / b_sq
    if not math.isfinite(ratio) or ratio >= n_cap:
        return n_cap
    return max(2, int(math.floor(ratio)))


def _ratio_terms(a: float, b: float, energy: float, n: int, ns: np.ndarray):
    """Numerator, denominator and clamped bound ratio of one cell at the draw counts ns.

    The array shape of the one ratio expression; _ratio_at is its scalar
    shape, which rounds every operation the same way, so a cell, a horizon
    of a union search and connectivity_bound_at_N agree to the bit whichever
    shape evaluates them.
    """
    r = -np.expm1((ns - 1.0) * math.log1p(-1.0 / (n - 1)))
    raw = a * r - b * np.sqrt(ns - 1.0)
    np.clip(raw, 0.0, None, out=raw)
    num = raw * raw
    den = (n - 1) * r * r * energy
    return num, den, np.minimum(num / np.maximum(den, _TINIEST), 1.0)


def _ratio_at(a: float, b: float, energy: float, n: int, N: int) -> tuple[float, float, float]:
    """_ratio_terms at the one draw count N, on Python floats.

    R(N) still comes from np.expm1: where numpy's vectorized expm1 and the
    C library's differ in the last bit, math.expm1 would part the two shapes.
    """
    r = -float(np.expm1((N - 1.0) * math.log1p(-1.0 / (n - 1))))
    raw = max(a * r - b * math.sqrt(N - 1.0), 0.0)
    num = raw * raw
    den = (n - 1) * r * r * energy
    return num, den, min(num / max(den, _TINIEST), 1.0)


def _g(N: int, log_decay: float) -> float:
    """g(N) = sqrt(N-1) / R(N); the bound ratio falls as g rises."""
    return math.sqrt(N - 1.0) / -math.expm1((N - 1) * log_decay)


def _reach(beyond, start: int, stop: int) -> int:
    """Farthest N from start towards stop at which beyond(N) is false.

    Needs beyond(start) false and beyond monotone from start to stop (false,
    then true): gallops out, then bisects the last step.
    """
    step = 1 if stop >= start else -1
    inside, jump = start, 1
    while inside != stop:
        probe = stop if (stop - inside) * step <= jump else inside + step * jump
        if beyond(probe):
            while abs(probe - inside) > 1:
                mid = (inside + probe) // 2
                if beyond(mid):
                    probe = mid
                else:
                    inside = mid
            return inside
        inside, jump = probe, 2 * jump
    return inside


def _band(a: float, b: float, n: int, n_hi: int) -> tuple[int, int] | None:
    """Draw counts in [2, n_hi] whose ratio can round to the largest one.

    None when the cell is vacuous: every ratio rounds to zero.
    """
    log_decay = math.log1p(-1.0 / (n - 1))
    spread = -1.0 / log_decay
    best = min(max(2, int(1.0 + _Y_STAR * spread)), n_hi)
    if best < n_hi and _g(best + 1, log_decay) < _g(best, log_decay):
        best += 1
    g_min = _g(best, log_decay)
    tau = _ROUNDING * (a + b * g_min)
    if a - b * g_min < -tau:
        return None
    # once R(N) rounds to exactly 1 the computed ratio can only fall with N
    top = min(n_hi, 2 + int(_SATURATION * spread))
    limit = g_min + 2.0 * tau / b if b > 0.0 else math.inf

    def beyond(N):
        return _g(N, log_decay) > limit

    return max(2, _reach(beyond, best, 2) - 1), min(top, _reach(beyond, best, top) + 1)


def _best_in(a: float, b: float, energy: float, n: int, lo: int, hi: int) -> tuple[int, float, float, float]:
    """(N, numerator, denominator, ratio) at the first N in [lo, hi] with the largest ratio.

    The one maximiser over both shapes of _candidates: a later candidate
    wins only with a larger ratio, and the scan stops at the first ratio
    that reaches the clamp at 1.  When every ratio rounds to 0, N = 2 is
    reported, as a scan of all of [2, n_hi] would.
    """
    best = None
    for candidate in _candidates(a, b, energy, n, lo, hi):
        if best is None or candidate[3] > best[3]:
            best = candidate
        if best[3] == 1.0:  # the clamp: no later N can do better
            break
    if best[3] == 0.0 and best[0] != 2:
        return _best_in(a, b, energy, n, 2, 2)
    return best


def _candidates(a: float, b: float, energy: float, n: int, lo: int, hi: int):
    """Ascending (N, numerator, denominator, ratio) over [lo, hi].

    A band of at most _SCALAR_BAND draw counts yields every N from the
    scalar shape; a wider one yields the first best N of each array chunk,
    so that it stays small in memory.
    """
    if hi - lo < _SCALAR_BAND:
        for N in range(lo, hi + 1):
            yield (N, *_ratio_at(a, b, energy, n, N))
        return
    for start in range(lo, hi + 1, _BAND_CHUNK):
        ns = np.arange(start, min(hi, start + _BAND_CHUNK - 1) + 1, dtype=float)
        num, den, val = _ratio_terms(a, b, energy, n, ns)
        i = int(np.argmax(val))
        yield start + i, float(num[i]), float(den[i]), float(val[i])


def _maximize(a: float, b: float, energy: float, n: int, n_cap: int) -> tuple[int, int, float, float, float]:
    """Best draw count of one cell: (N, n_hi, numerator, denominator, ratio)."""
    n_hi = _range_limit(a, b, n_cap)
    band = _band(a, b, n, n_hi)
    best_n, num, den, val = _best_in(a, b, energy, n, *(band or (2, 2)))
    return best_n, n_hi, num, den, val


def _bound_result(a: float, b: float, energy: float, n: int, n_cap: int, **ell) -> BoundResult:
    """Maximize one cell and report it with the ell statistics of its model."""
    best_n, n_hi, num, den, val = _maximize(a, b, energy, n, n_cap)
    return BoundResult(val, best_n, n_hi, num, den, **ell)


def _general_bound_result(n: int, m: int, deg_sq: int, p: float, q: float, n_cap: int) -> BoundResult:
    a, s_sq, energy = _general_terms(_check_size(n, "n", "vertices"), m, deg_sq, p, q)
    s = math.sqrt(s_sq)
    return _bound_result(a, s, energy, n, n_cap, s_value=s, mu=a / (n - 1), sigma_squared=s_sq / (n - 1) ** 2)


def _complete_bound_result(n: int, p: float, q: float, n_cap: int) -> BoundResult:
    a, b_sq, energy = _complete_terms(_check_size(n, "n", "vertices"), p, q)
    sigma_sq = 2.0 * n * p * q
    return _bound_result(a, math.sqrt(b_sq), energy, n, n_cap, s_value=(n - 1) * math.sqrt(sigma_sq), mu=n * p, sigma_squared=sigma_sq)


def connectivity_bound_at_N(params: ModelParams, N: int) -> float:
    """The maximized quantity at one fixed draw count N >= 2.

    max(0, 2mp R - S sqrt(N-1))^2 / ((n-1) R^2 (4mp - 2mp^2 + p^2 sum d^2)),
    clamped into [0, 1].
    """
    N = _check_size(_check_count(N, "N", 2), "N", "draws")
    a, s_sq, energy = _model_terms(params)
    return _ratio_at(a, math.sqrt(s_sq), energy, params.n, N)[2]


def n_search_max(params: ModelParams, n_cap: int = DEFAULT_N_CAP) -> int:
    """Largest draw count at which the bound can be positive.

    The maximizing draw count never exceeds it.  Floor of
    (S^2 + 4 m^2 p^2) / S^2, capped at n_cap and lifted to at least 2; a
    vanishing S^2 yields the cap directly.
    """
    n_cap = _check_count(n_cap, "n_cap", 2)
    a, s_sq, _ = _model_terms(params)
    return _range_limit(a, math.sqrt(s_sq), n_cap)


def connectivity_bound_from_stats(n: int, m: int, deg_sq: int, p: float, n_cap: int = DEFAULT_N_CAP) -> BoundResult:
    """Maximized connectivity bound from summary statistics alone.

    The statistics must describe a connected template: n >= 3 vertices, m
    edges, deg_sq the sum of squared degrees.  Useful when the template is
    too large to materialize edge by edge.
    """
    n, m, deg_sq = _check_stats(n, m, deg_sq)
    n_cap = _check_count(n_cap, "n_cap", 2)
    p = _check_fraction(p, "p")
    return _general_bound_result(n, m, deg_sq, p, 1.0 - p, n_cap)


def connectivity_bound(params: ModelParams, n_cap: int = DEFAULT_N_CAP) -> BoundResult:
    """Best connectivity lower bound over all admissible draw counts N."""
    n_cap = _check_count(n_cap, "n_cap", 2)
    params = _check_params(params)
    return _general_bound_result(params.n, params.m, sum_degree_squares(params.graph), params.p, 1.0 - params.p, n_cap)


def connectivity_bound_complete(n: int, p: float, n_cap: int = DEFAULT_N_CAP) -> BoundResult:
    """Maximized bound for the complete template, by its simplified form.

    max over N of (max(0, sqrt(n(n-1)p) R - sqrt(2(n-1)(1-p)(N-1))))^2 over
    ((n-1) R^2 (2 - 2p + np)), with the same N range and clamping rules as
    the general route.  The numerator and denominator diagnostics are in
    this reduced parameterization.
    """
    n = _check_count(n, "n", 3)
    n_cap = _check_count(n_cap, "n_cap", 2)
    p = _check_fraction(p, "p")
    return _complete_bound_result(n, p, 1.0 - p, n_cap)


def union_edge_probability(p: float, T: int) -> float:
    """Collapsed edge probability of a T-fold union: 1 - (1 - p)^T."""
    p = _check_fraction(p, "p", closed=True)
    T = _check_count(T, "T", 1)
    if p in (0.0, 1.0):
        return p
    return _union_probabilities(math.log1p(-p), T)[0]


def _union_probabilities(log_q: float, T: int) -> tuple[float, float]:
    """(p_hat, q_hat) = (1 - (1-p)^T, (1-p)^T) of a T-fold union, from log_q = log(1 - p).

    A horizon past the largest float cannot become one, so there T log_q is
    formed from log_q's exact ratio of integers, floored at -2048, far below
    the -745 at which q_hat is already 0.
    """
    try:
        x = T * log_q
    except OverflowError:
        num, den = log_q.as_integer_ratio()
        x = max(T * num, -2048 * den) / den
    return -math.expm1(x), math.exp(x)


def _check_search(p: float, epsilon: float, t_max: int, n_cap: int) -> tuple[float, float, int, int]:
    """The checked (p, epsilon, t_max, n_cap) of a union horizon search, in that order."""
    return (
        _check_fraction(p, "p"),
        _check_fraction(epsilon, "epsilon"),
        _check_count(t_max, "t_max", 1),
        _check_count(n_cap, "n_cap", 2),
    )


def _horizon_bound(terms, n: int, log_q: float, n_cap: int, T: int) -> float:
    """The bound at horizon T: the maximized ratio of the cell whose terms(p_hat, q_hat) are (a, b^2, E).

    The same value as the cell's BoundResult, which a search does not need.
    """
    a, b_sq, energy = terms(*_union_probabilities(log_q, T))
    return _maximize(a, math.sqrt(b_sq), energy, n, n_cap)[4]


def _horizon_bracket(terms, n: int, log_q: float, n_cap: int):
    """(lower, upper): closed forms with lower(T) <= _horizon_bound(terms, n, log_q, n_cap, T) <= upper(T).

    lower(T) is the cell's own ratio, bit for bit, at min(N, n_hi), where
    N is c = max(2, floor(N_c)) or c + 1, whichever has the smaller g: the
    draw count _band grows the cell's band from, so the cell's maximum is at
    least lower(T); in a vacuous cell it rounds to 0 as every ratio does.

    upper(T) = min(1, ((a - b g_lo)_+ + tau)^2 / ((n-1) E) (1 + _UPPER_SLACK)
    + _UPPER_FLOOR), with tau = _ROUNDING (a + b g_lo) and g_lo = g(min(N,
    n_cap)).  It holds because:

    - g is quasi-convex, least at N over the integers N >= 2 (up to the
      rounding of the two g that chose N) and falling before it, so
      g(N') >= g_lo at every draw count 2 <= N' <= n_cap a cell reads,
      whatever its band or n_hi.
    - A cell's ratio at N' is raw^2 / den, raw = a R - b sqrt(N'-1) and
      den = (n-1) R^2 E.  R, raw and g_lo each carry a few ulps of rounding,
      so raw / R <= a - b g(N') + 16 eps (a + b g(N')), which falls as g
      rises and so is at most (a - b g_lo)_+ + tau.  Squaring, dividing and
      this function's own arithmetic add a few ulps more, far inside the
      slack.
    - From p_hat = _UPPER_FLOOR up every quantity but raw^2 is a normal
      float; raw^2 may round as a subnormal, which moves the ratio by at most
      2^-1075 / den <= 2^-524, inside the added _UPPER_FLOOR.  Below it,
      upper reads 1.

    A loose bracket only costs a search cells; a wrong one would give a
    wrong T*.
    """
    log_decay = math.log1p(-1.0 / (n - 1))
    c = max(2, int(1.0 + _Y_STAR * (-1.0 / log_decay)))  # as _band rounds it
    best = c + 1 if _g(c + 1, log_decay) < _g(c, log_decay) else c
    g_lo = _g(min(best, n_cap), log_decay)

    def lower(T: int) -> float:
        a, b_sq, energy = terms(*_union_probabilities(log_q, T))
        b = math.sqrt(b_sq)
        return _ratio_at(a, b, energy, n, min(best, _range_limit(a, b, n_cap)))[2]

    def upper(T: int) -> float:
        p_hat, q_hat = _union_probabilities(log_q, T)
        if p_hat < _UPPER_FLOOR:
            return 1.0
        a, b_sq, energy = terms(p_hat, q_hat)
        b = math.sqrt(b_sq)
        head = max(a - b * g_lo, 0.0) + _ROUNDING * (a + b * g_lo)
        return min(1.0, head * head / ((n - 1) * energy) * (1.0 + _UPPER_SLACK) + _UPPER_FLOOR)

    return lower, upper


class _Trace(Sequence):
    """The (T, bound) pairs of horizons 1 .. length, each evaluated on access.

    The pair comes from the horizon bound the search reads, so it is the
    value an ascending scan of cells would see, bit for bit; nothing is
    cached.  A slice is a tuple, and the trace equals the tuple of pairs it
    stands for.
    """

    __slots__ = ("_bound", "_horizons")

    def __init__(self, bound, length: int):
        self._bound, self._horizons = bound, range(1, length + 1)

    def __len__(self) -> int:
        return len(self._horizons)

    def __getitem__(self, index):
        horizons = self._horizons[index]  # range checks the index and takes slices
        if isinstance(horizons, range):
            return tuple((T, self._bound(T)) for T in horizons)
        return horizons, self._bound(horizons)

    def __eq__(self, other):
        if not isinstance(other, (_Trace, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(mine == theirs for mine, theirs in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        # len() stops at sys.maxsize, and a search can pass it
        return f"<trace of {self._horizons.stop - 1} horizons>"


def _t_star_scan(bound, lower, upper, p: float, epsilon: float, t_max: int) -> TStarResult:
    # bound(T) is the bound at horizon T, which does not fall as T rises
    # (module docstring), so each _reach below gallops and bisects from
    # horizon 0, which meets nothing, to the last horizon short of its value.
    # lower(T) <= bound(T) <= upper(T) are cheap closed forms; a probe
    # evaluates its cell only when its value falls between them, and every
    # probe, hence the result, is that of a search over cells alone.
    # The search ends at t_max, or at the first horizon whose complement
    # underflows to zero, since every later one evaluates on identical
    # inputs.  Then best_t is the first horizon to reach the last one's bound,
    # and best_bound, read there, may lie above it where rounding jitters.
    target = 1.0 - epsilon
    log_q = math.log1p(-p)
    last = min(t_max, _reach(lambda T: _union_probabilities(log_q, T)[1] == 0.0, 0, t_max) + 1)

    def first(value: float) -> int:
        # the first horizon up to last whose bound reaches value, else last + 1
        def reached(T: int) -> bool:
            return upper(T) >= value and (lower(T) >= value or bound(T) >= value)

        return _reach(reached, 0, last) + 1

    t = first(target)
    if t <= last:
        return TStarResult(t, epsilon, bound(t), _Trace(bound, t))
    best_t = first(bound(last))
    best_bound = bound(best_t)
    raise TStarNotFound(
        f"no horizon up to {t_max} reaches bound {target} (best {best_bound} at T={best_t})",
        best_t,
        best_bound,
        _Trace(bound, last),
    )


def _horizon_search(terms, n: int, p: float, epsilon: float, t_max: int, n_cap: int) -> TStarResult:
    """The union horizon search over the cells whose terms(p_hat, q_hat) are (a, b^2, E)."""
    log_q = math.log1p(-p)
    lower, upper = _horizon_bracket(terms, n, log_q, n_cap)
    return _t_star_scan(partial(_horizon_bound, terms, n, log_q, n_cap), lower, upper, p, epsilon, t_max)


def t_star(
    graph: UnderlyingGraph,
    p: float,
    epsilon: float,
    t_max: int = DEFAULT_T_MAX,
    n_cap: int = DEFAULT_N_CAP,
) -> TStarResult:
    """Smallest union horizon T with connectivity bound at least 1 - epsilon.

    Gallops from horizon 0 over T in doubling steps and bisects, on the
    maximized bound at the collapsed probability p_hat(T).  Closed forms
    below and above that bound settle most of its O(log T*) probes, so it
    evaluates a bound cell at one or two of them (module docstring).  Raises
    TStarNotFound (carrying the best horizon, the bound there and the trace)
    when t_max, or a complement that underflows to zero, is reached first.
    Where the bound jitters in its last bits, T* and the best horizon are
    the answers of this gallop, which a linear scan need not share.
    """
    p, epsilon, t_max, n_cap = _check_search(p, epsilon, t_max, n_cap)
    n = _check_count(_check_graph(graph, "graph").n, "n", 3)
    return _horizon_search(partial(_general_terms, n, graph.m, sum_degree_squares(graph)), n, p, epsilon, t_max, n_cap)


def t_star_from_stats(
    n: int,
    m: int,
    deg_sq: int,
    p: float,
    epsilon: float,
    t_max: int = DEFAULT_T_MAX,
    n_cap: int = DEFAULT_N_CAP,
) -> TStarResult:
    """Union horizon search from summary statistics alone; t_star says how it searches."""
    n, m, deg_sq = _check_stats(n, m, deg_sq)
    n = _check_size(n, "n", "vertices")
    p, epsilon, t_max, n_cap = _check_search(p, epsilon, t_max, n_cap)
    return _horizon_search(partial(_general_terms, n, m, deg_sq), n, p, epsilon, t_max, n_cap)


def t_star_complete(
    n: int,
    p: float,
    epsilon: float,
    t_max: int = DEFAULT_T_MAX,
    n_cap: int = DEFAULT_N_CAP,
) -> TStarResult:
    """Union horizon search for the complete template via its simplified bound; t_star says how it searches."""
    n = _check_size(_check_count(n, "n", 3), "n", "vertices")
    p, epsilon, t_max, n_cap = _check_search(p, epsilon, t_max, n_cap)
    return _horizon_search(partial(_complete_terms, n), n, p, epsilon, t_max, n_cap)


def _union_cell(
    n: int, m: int, deg_sq: int, complete: bool, p: float, T: int | None, n_cap: int
) -> tuple[float, float, BoundResult | None]:
    """(p_hat, bound, BoundResult | None) of T samples, or of one for T None; the caller checks.

    For n <= 2 the bound is exact and the result None: one vertex is always
    connected, two need their one edge.
    """
    p_hat, q_hat = (p, 1.0 - p) if T is None else _union_probabilities(math.log1p(-p), T)
    if n <= 2:
        return p_hat, 1.0 if n == 1 else p_hat, None
    cell = partial(_complete_bound_result, n) if complete else partial(_general_bound_result, n, m, deg_sq)
    res = cell(p_hat, q_hat, n_cap)
    return p_hat, res.probability_lower_bound, res


def _union_search(n: int, m: int, deg_sq: int, complete: bool, p: float, epsilon: float, t_max: int, n_cap: int) -> TStarResult:
    """The TStarResult of t_star_complete or t_star_from_stats for n >= 3; for n <= 2, of the exact probability."""
    if n >= 3:
        search = partial(t_star_complete, n) if complete else partial(t_star_from_stats, n, m, deg_sq)
        return search(p, epsilon, t_max, n_cap)
    p, epsilon, t_max, n_cap = _check_search(p, epsilon, t_max, n_cap)

    def exact(T: int) -> float:
        return _union_cell(n, m, deg_sq, complete, p, T, n_cap)[1]

    return _t_star_scan(exact, exact, exact, p, epsilon, t_max)
