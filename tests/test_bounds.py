import collections
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from conngraph import (
    InvalidParameter,
    ModelParams,
    TStarNotFound,
    UnderlyingGraph,
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    connectivity_bound,
    connectivity_bound_at_N,
    connectivity_bound_complete,
    connectivity_bound_from_stats,
    ell_first_order_lower,
    ell_mean,
    ell_variance,
    from_edge_list,
    lambda2_mean_lower,
    lambda2_sq_mean_upper,
    n_search_max,
    r_factor,
    s_value,
    sum_degree_squares,
    t_star,
    t_star_complete,
    t_star_from_stats,
    union_edge_probability,
)
from conngraph import bounds
from conngraph.bounds import (
    _BAND_CHUNK,
    _SCALAR_BAND,
    DEFAULT_N_CAP,
    _band,
    _best_in,
    _complete_bound_result,
    _complete_terms,
    _general_bound_result,
    _general_terms,
    _horizon_bound,
    _horizon_bracket,
    _range_limit,
    _ratio_at,
    _ratio_terms,
)

import support

K3_HALF = ModelParams(complete(3), 0.5)


def test_moment_values_triangle():
    # K3 at p = 1/2: mu = 2*3*(1/2)/2 = 3/2, S^2 = 6, sigma^2 = 6/4 = 3/2
    assert (K3_HALF.n, K3_HALF.m, K3_HALF.degrees) == (3, 3, (2, 2, 2))
    assert ell_mean(K3_HALF) == 1.5
    assert s_value(K3_HALF) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert ell_variance(K3_HALF) == pytest.approx(1.5, rel=1e-15)
    assert lambda2_sq_mean_upper(K3_HALF) == 3.75


def test_model_params_validation():
    with pytest.raises(InvalidParameter):
        ModelParams(complete(3), 0.0)
    with pytest.raises(InvalidParameter):
        ModelParams(complete(3), 1.0)
    with pytest.raises(InvalidParameter):
        ModelParams(complete(3), -0.2)
    with pytest.raises(InvalidParameter):
        ModelParams(complete(2), 0.5)


def test_r_factor():
    assert r_factor(1, 5) == 0.0
    assert r_factor(2, 3) == pytest.approx(0.5, rel=1e-15)
    # direct power form, small arguments
    for n in (3, 4, 7, 12):
        for N in (2, 3, 5, 10):
            direct = 1.0 - ((n - 2) / (n - 1)) ** (N - 1)
            assert r_factor(N, n) == pytest.approx(direct, rel=1e-13)
    # increasing in N, always inside [0, 1)
    prev = 0.0
    for N in range(1, 40):
        r = r_factor(N, 6)
        assert 0.0 <= r < 1.0
        assert r >= prev
        prev = r


def test_ell_first_order_lower():
    # N = 1 reduces to the mean
    assert ell_first_order_lower(K3_HALF, 1) == ell_mean(K3_HALF)
    expected = (3.0 - math.sqrt(6.0)) / 2.0
    assert ell_first_order_lower(K3_HALF, 2) == pytest.approx(expected, rel=1e-15)
    # large N clamps at zero
    assert ell_first_order_lower(K3_HALF, 50) == 0.0


def test_lambda2_mean_lower():
    # at K3, p=1/2, N=2: 2mpR - S = 1.5 - sqrt(6) < 0, clamps
    assert lambda2_mean_lower(K3_HALF, 2) == 0.0
    params = ModelParams(complete(3), 0.999)
    val = lambda2_mean_lower(params, 3)
    r = r_factor(3, 3)
    direct = (2 * 3 * 0.999 * r - s_value(params) * math.sqrt(2.0)) / (2 * r)
    assert val == pytest.approx(direct, rel=1e-12)
    assert val > 0
    with pytest.raises(InvalidParameter):
        lambda2_mean_lower(K3_HALF, 1)


def test_bound_triangle_half_is_zero():
    res = connectivity_bound(K3_HALF)
    assert res.probability_lower_bound == 0.0
    assert res.maximizing_n == 2
    assert res.n_search_max == 2
    assert n_search_max(K3_HALF) == 2


def test_bound_triangle_near_one():
    res = connectivity_bound(ModelParams(complete(3), 0.999))
    assert res.probability_lower_bound == pytest.approx(0.9043476190919627, rel=1e-12)
    assert res.maximizing_n == 3
    assert res.n_search_max == 1499


def test_bound_triangle_intermediate():
    res = connectivity_bound(ModelParams(complete(3), 0.8))
    assert res.probability_lower_bound == pytest.approx(0.0454216069316491, rel=1e-12)


def _complete_statistics(n):
    """K_n as the bounds read it: n, m and the degrees, with the edge list not materialized."""
    m = n * (n - 1) // 2
    return UnderlyingGraph(n, range(m), m, (n - 1,) * n)


@pytest.mark.parametrize(
    "graph, p",
    [
        (complete(6), 0.9),
        (complete_minus_cycle(40), 1 - 1e-9),
        # rounding bands of 21 and 66 draw counts: the cell takes the array
        # shape, connectivity_bound_at_N the scalar one
        (_complete_statistics(3000), 1 - 2**-53),
        (_complete_statistics(10**4), 1 - 2**-53),
    ],
)
def test_bound_at_N_consistent_with_scan(graph, p):
    params = ModelParams(graph, p)
    res = connectivity_bound(params)
    assert connectivity_bound_at_N(params, res.maximizing_n) == res.probability_lower_bound
    a, s_sq, _ = _general_terms(graph.n, graph.m, sum_degree_squares(graph), p, 1.0 - p)
    lo, hi = _band(a, math.sqrt(s_sq), graph.n, res.n_search_max)
    assert (hi - lo + 1 > _SCALAR_BAND) == (graph.n >= 3000)
    # no N does better, and none before the maximiser ties it: every N up to
    # 200 and every N within 100 of the band
    for N in sorted(set(range(2, 201)) | set(range(lo - 100, hi + 101))):
        if 2 <= N <= res.n_search_max:
            value = connectivity_bound_at_N(params, N)
            assert value <= res.probability_lower_bound, N
            assert N >= res.maximizing_n or value < res.probability_lower_bound, N


def test_bound_in_unit_interval():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(3, 10)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 5)))
        p = rng.uniform(0.01, 0.99)
        val = connectivity_bound(ModelParams(g, p)).probability_lower_bound
        assert 0.0 <= val <= 1.0


def test_bound_matches_naive_reference():
    # closed-form maximiser against a from-scratch full scan of the same ratio
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(3, 9)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 4)))
        p = rng.uniform(0.3, 0.995)
        got = connectivity_bound(ModelParams(g, p)).probability_lower_bound
        want, _ = support.reference_bound(n, g.m, sum_degree_squares(g), p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_s_squared_matches_expanded_formula():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(3, 10)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 5)))
        p = rng.uniform(0.05, 0.95)
        params = ModelParams(g, p)
        expanded = support.reference_s_squared(n, g.m, sum_degree_squares(g), p)
        assert ell_variance(params) * (n - 1) ** 2 == pytest.approx(expanded, rel=1e-9)


@pytest.mark.parametrize("n", [3, 5, 8, 20])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.99])
def test_complete_template_s_identity(n, p):
    # for K_n the variance scale collapses to 2 n (n-1)^2 p (1-p)
    params = ModelParams(complete(n), p)
    assert s_value(params) ** 2 == pytest.approx(2 * n * (n - 1) ** 2 * p * (1 - p), rel=1e-12)


def test_complete_route_matches_general_route():
    for n in (3, 4, 7, 15, 30):
        for p in (0.05, 0.3, 0.5, 0.8, 0.95, 0.999):
            a = connectivity_bound(ModelParams(complete(n), p))
            b = connectivity_bound_complete(n, p)
            # routes may disagree on argmax ties by one ulp, values must agree
            assert b.probability_lower_bound == pytest.approx(
                a.probability_lower_bound, rel=1e-12, abs=1e-15
            )


def test_stats_route_matches_graph_route():
    g = complete_minus_cycle(7)
    p = 0.85
    a = connectivity_bound(ModelParams(g, p))
    b = connectivity_bound_from_stats(7, g.m, sum_degree_squares(g), p)
    assert a == b


def test_n_search_max_formula():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randrange(3, 9)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 4)))
        p = rng.uniform(0.1, 0.99)
        params = ModelParams(g, p)
        s_sq = ell_variance(params) * (n - 1) ** 2
        expected = max(2, int(math.floor((s_sq + (2 * g.m * p) ** 2) / s_sq)))
        assert n_search_max(params) == expected


def test_n_search_max_honors_cap():
    params = ModelParams(complete(3), 0.999)
    assert n_search_max(params, n_cap=100) == 100
    res = connectivity_bound(params, n_cap=100)
    assert res.n_search_max == 100


def test_negative_radicand_on_impossible_stats():
    # sum of squared degrees below (2m)^2 / (n-1) - 2m cannot come from any simple
    # graph: (n, m, deg_sq) = (3, 4, 22) gives A0 = 2 * 30 - 64 < 0, which every
    # general entry point rejects before forming the variance; the template is
    # hand-made to match, its fields consistent but one edge doubled
    fake = UnderlyingGraph(3, ((0, 1), (0, 1), (0, 2), (1, 2)), 4, (3, 3, 2))
    message = "statistics n=3, m=4, deg_sq=22 describe no graph: (n-1)(2m + deg_sq) < 4m^2"
    # the stats routes see only the counts, and refuse 4 edges on 3 vertices first
    stats_message = "statistics n=3, m=4 describe no simple graph: m > n(n-1)/2 = 3"
    for p in (0.001, 0.5, 0.99):
        params = ModelParams(fake, p)
        calls = [
            lambda: s_value(params),
            lambda: ell_variance(params),
            lambda: ell_first_order_lower(params, 2),
            lambda: lambda2_mean_lower(params, 2),
            lambda: lambda2_sq_mean_upper(params),
            lambda: connectivity_bound_at_N(params, 2),
            lambda: n_search_max(params),
            lambda: connectivity_bound(params),
            lambda: t_star(fake, p, 0.01),
            lambda: _general_bound_result(3, 4, 22, p, 1.0 - p, DEFAULT_N_CAP),
            lambda: connectivity_bound_from_stats(3, 4, 22, p),
            lambda: t_star_from_stats(3, 4, 22, p, 0.01),
        ]
        for i, call in enumerate(calls):
            with pytest.raises(InvalidParameter) as info:
                call()
            assert str(info.value) == (message if i < 10 else stats_message), (p, i)


def _exact_s_squared(n: int, m: int, deg_sq: int, p: float) -> Fraction:
    p = Fraction(p)
    return 2 * m * p * (n - 1) * (2 - p) + p * p * (n - 1) * deg_sq - 4 * m * m * p * p


def _star(n):
    return n - 1, n * (n - 1)


def _path(n):
    return n - 1, 4 * n - 6


def _hub_and_leaf(n):
    # n // 50 hubs, each joined to every leaf: K(h, n - h)
    hubs = max(1, n // 50)
    return hubs * (n - hubs), hubs * (n - hubs) * n


@pytest.mark.parametrize("family", [_star, _path, _hub_and_leaf])
def test_sigma_squared_matches_exact_fraction(family):
    # stars and hubs make S^2's expanded form cancel; the evaluated form must not
    for n in (10, 1000, 10**5, 10**7, 10**9):
        m, deg_sq = family(n)
        for p in (1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-9):
            got = connectivity_bound_from_stats(n, m, deg_sq, p).sigma_squared
            want = _exact_s_squared(n, m, deg_sq, p) / (n - 1) ** 2
            assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (n, p)


def test_n_above_2_53_rejected():
    big = 2**53 + 1
    calls = [
        lambda: connectivity_bound_from_stats(big, big - 1, 4 * big - 6, 0.5),
        lambda: connectivity_bound_complete(big, 0.5),
        lambda: connectivity_bound_complete(10**16, 1 - 1e-9, n_cap=10**16),
        lambda: t_star_from_stats(big, big - 1, 4 * big - 6, 0.5, 0.1),
        lambda: t_star_complete(big, 0.5, 0.1),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value).startswith(f"bounds need n <= 2**53 = {2**53} vertices, got "), i
    assert connectivity_bound_complete(2**53, 0.5).probability_lower_bound == 0.0


def test_union_edge_probability():
    assert union_edge_probability(0.3, 2) == pytest.approx(0.51, rel=1e-15)
    assert union_edge_probability(0.3, 1) == pytest.approx(0.3, rel=1e-15)
    assert union_edge_probability(0.0, 5) == 0.0
    assert union_edge_probability(1.0, 5) == 1.0
    # increasing in T, never below p
    prev = 0.0
    for T in range(1, 60):
        cur = union_edge_probability(0.2, T)
        assert cur >= prev
        prev = cur
    assert union_edge_probability(0.5, 200) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        union_edge_probability(1.2, 3)
    with pytest.raises(InvalidParameter):
        union_edge_probability(0.5, 0)


def test_t_star_triangle_loose_target():
    res = t_star(complete(3), 0.5, 0.2)
    assert res.t_star == 8
    assert res.bound_at_t_star == pytest.approx(0.8143395042952083, rel=1e-12)
    assert len(res.trace) == 8
    assert all(val < 0.8 for _, val in res.trace[:-1])


def test_t_star_past_2_63_horizons_reports_its_trace():
    # len() stops at sys.maxsize; the trace and its repr do not
    res = t_star_complete(1000, 1e-20, 0.1, t_max=10**30)
    assert res.t_star > 2**63
    assert repr(res.trace) == f"<trace of {res.t_star} horizons>"
    assert repr(res).endswith(f"trace=<trace of {res.t_star} horizons>)")
    assert res.trace[-1] == (res.t_star, res.bound_at_t_star)


def test_t_star_triangle_tight_target():
    # the bound keeps climbing as p_hat -> 1, so even 0.99 is reached
    res = t_star(complete(3), 0.5, 0.01)
    assert res.t_star == 17
    assert res.bound_at_t_star >= 0.99
    # cross-check the crossing point against the naive reference scan
    first = None
    for T in range(1, 40):
        p_hat = 1.0 - 0.5**T
        val, _ = support.reference_bound(3, 3, 12, p_hat)
        if val >= 0.99:
            first = T
            break
    assert first == 17


def test_t_star_not_found_carries_trace():
    with pytest.raises(TStarNotFound) as info:
        t_star(complete(3), 0.5, 0.01, t_max=5)
    exc = info.value
    assert exc.best_t == 5
    assert len(exc.trace) == 5
    assert 0.0 <= exc.best_bound < 0.99


def test_t_star_plateau_breaks_early():
    # K5 minus a cycle keeps positive eigenvalue spread even at p_hat = 1,
    # so the bound plateaus; the scan must stop once the complement
    # underflows instead of walking all 10^5 horizons
    with pytest.raises(TStarNotFound) as info:
        t_star(complete_minus_cycle(5), 0.5, 0.01, t_max=10**5)
    assert len(info.value.trace) < 2000


def test_t_star_variants_agree():
    res = t_star(complete(4), 0.4, 0.3)
    comp = t_star_complete(4, 0.4, 0.3)
    assert comp.t_star == res.t_star
    assert comp.bound_at_t_star == pytest.approx(res.bound_at_t_star, rel=1e-12)
    # stats route feeds the same scales, so even the failure payload is bitwise
    # equal (this sparse template's bound plateaus at zero and never reaches 0.5)
    g = complete_minus_cycle(6)
    m, deg_sq = complete_minus_cycle_stats(6)
    with pytest.raises(TStarNotFound) as from_graph:
        t_star(g, 0.7, 0.5)
    with pytest.raises(TStarNotFound) as from_stats:
        t_star_from_stats(6, m, deg_sq, 0.7, 0.5)
    assert from_graph.value.trace == from_stats.value.trace
    assert from_graph.value.best_t == from_stats.value.best_t


def test_vacuous_band_reports_two():
    # K10's stats at this p give a rounding band (11, 13) in which every ratio
    # rounds to 0, so N = 2 is reported, as a scan of all of [2, n_hi] would
    p = 0.8066088410016683
    a, s_sq, energy = _general_terms(10, 45, 810, p, 1.0 - p)
    assert _band(a, math.sqrt(s_sq), 10, 21) == (11, 13)
    res = connectivity_bound_from_stats(10, 45, 810, p)
    assert (res.probability_lower_bound, res.maximizing_n, res.n_search_max) == (0.0, 2, 21)
    # a neighbouring p where the band holds a positive ratio
    res = connectivity_bound_from_stats(10, 45, 810, 0.80661)
    assert (res.probability_lower_bound, res.maximizing_n) == (1.316939121875806e-11, 12)


def test_t_star_validation():
    # the exact message of each single fault, then which of two faults is reported
    k3, k2 = complete(3), complete(2)
    p_msg = "p must lie in (0, 1), got 1.0"
    eps_msg = "epsilon must lie in (0, 1), got 0.0"
    t_max_msg = "t_max must be an integer >= 1, got 0"
    n_cap_msg = "n_cap must be an integer >= 2, got 1"
    n_msg = "n must be an integer >= 3, got 2"
    cases = [
        (lambda: t_star(k3, 1.0, 0.1), p_msg),
        (lambda: t_star(k3, 0.5, 0.0), eps_msg),
        (lambda: t_star(k3, 0.5, 1.0), "epsilon must lie in (0, 1), got 1.0"),
        (lambda: t_star(k3, 0.5, 0.1, t_max=0), t_max_msg),
        (lambda: t_star(k3, 0.5, 0.1, n_cap=1), n_cap_msg),
        (lambda: t_star(k2, 0.5, 0.1), n_msg),
        (lambda: t_star(k2, 1.0, 0.1), p_msg),
        (lambda: t_star_from_stats(3, 3, 12, 1.0, 0.1), p_msg),
        (lambda: t_star_from_stats(3, 3, 12, 0.5, 0.0), eps_msg),
        (lambda: t_star_from_stats(3, 3, 12, 0.5, 0.1, t_max=0), t_max_msg),
        (lambda: t_star_from_stats(3, 3, 12, 0.5, 0.1, n_cap=1), n_cap_msg),
        (lambda: t_star_from_stats(2, 3, 12, 0.5, 0.1), n_msg),
        (lambda: t_star_from_stats(3, 0, 12, 0.5, 0.1), "m must be an integer >= 1, got 0"),
        (lambda: t_star_from_stats(3, 3, 0, 0.5, 0.1), "deg_sq must be an integer >= 1, got 0"),
        (lambda: t_star_from_stats(2, 3, 12, 1.0, 0.0), n_msg),
        (lambda: t_star_complete(3, 1.0, 0.1), p_msg),
        (lambda: t_star_complete(3, 0.5, 0.0), eps_msg),
        (lambda: t_star_complete(3, 0.5, 0.1, t_max=0), t_max_msg),
        (lambda: t_star_complete(3, 0.5, 0.1, n_cap=1), n_cap_msg),
        (lambda: t_star_complete(2, 0.5, 0.1), n_msg),
        (lambda: t_star_complete(2, 1.0, 0.1, t_max=0), n_msg),
        (lambda: connectivity_bound(K3_HALF, n_cap=1), n_cap_msg),
        (lambda: connectivity_bound(ModelParams(k3, 1.0)), p_msg),
        (lambda: connectivity_bound(ModelParams(k2, 0.5)), n_msg),
        (lambda: connectivity_bound_from_stats(3, 3, 12, 1.0), p_msg),
        (lambda: connectivity_bound_from_stats(3, 3, 12, 0.5, n_cap=1), n_cap_msg),
        (lambda: connectivity_bound_from_stats(2, 3, 12, 0.5), n_msg),
        (lambda: connectivity_bound_from_stats(3, 0, 12, 0.5), "m must be an integer >= 1, got 0"),
        (lambda: connectivity_bound_from_stats(3, 3, 0, 0.5), "deg_sq must be an integer >= 1, got 0"),
        (lambda: connectivity_bound_from_stats(2, 3, 12, 1.0, n_cap=1), n_msg),
        (lambda: connectivity_bound_complete(3, 1.0), p_msg),
        (lambda: connectivity_bound_complete(3, 0.5, n_cap=1), n_cap_msg),
        (lambda: connectivity_bound_complete(2, 0.5), n_msg),
        (lambda: connectivity_bound_complete(2, 1.0, n_cap=1), n_msg),
    ]
    for i, (call, message) in enumerate(cases):
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == message, i


def test_bound_never_drops_as_p_rises():
    # the module docstring's monotonicity argument, checked in floating point
    # on adjacent p of random graphs' stats and of the complete route
    rng = random.Random(97)
    ps = sorted({rng.uniform(0.0, 1.0) for _ in range(60)} | {x for k in range(1, 13) for x in (10.0**-k, 1.0 - 10.0**-k)})
    steps = 0
    for _ in range(40):
        n = rng.randrange(3, 60)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, n * (n - 1) // 2)))
        deg_sq = sum_degree_squares(g)
        bounds = [connectivity_bound_from_stats(n, g.m, deg_sq, p).probability_lower_bound for p in ps]
        assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:])), n
        steps += len(bounds) - 1
    for _ in range(40):
        n = int(10 ** rng.uniform(math.log10(3), 5))
        bounds = [connectivity_bound_complete(n, p).probability_lower_bound for p in ps]
        assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:])), n
        steps += len(bounds) - 1
    assert steps > 5000


def test_bound_result_diagnostics_consistent():
    params = ModelParams(complete(5), 0.9)
    res = connectivity_bound(params)
    assert res.mu == pytest.approx(ell_mean(params), rel=1e-15)
    assert res.sigma_squared == pytest.approx(ell_variance(params), rel=1e-15)
    assert res.s_value == pytest.approx(s_value(params), rel=1e-15)
    assert res.numerator / res.denominator == pytest.approx(
        res.probability_lower_bound, rel=1e-12
    )


def _random_cell(rng):
    """(n, m, deg_sq, p, n_cap) with n up to 1e7 and p near 0, near 1 or between.

    n_cap keeps the reference scan short; below n ~ 2e4 it often lies past
    the unconstrained maximiser 1 + y*/L ~ 1.26 n.
    """
    n = int(10 ** rng.uniform(math.log10(3), 7))
    if rng.random() < 0.3:
        m, deg_sq = n * (n - 1) // 2, n * (n - 1) ** 2
    else:
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 30 * n))
        deg_sq = min(n * (n - 1) ** 2, -(-4 * m * m // n) + rng.randint(0, 50 * m))  # degrees of at most n - 1
    u = rng.random()
    if u < 0.3:
        p = 10 ** rng.uniform(-6, -1)
    elif u < 0.7:
        p = 1.0 - 10 ** rng.uniform(-12, -1)
    else:
        p = rng.uniform(0.1, 0.9)
    caps = [rng.randint(2, 20_000)] + ([3 * n] if n < 20_000 else []) + ([DEFAULT_N_CAP] if n < 300 else [])
    return n, m, deg_sq, p, rng.choice(caps)


def test_maximizer_matches_reference_scan():
    rng = random.Random(2024)
    compared = 0
    for _ in range(300):
        n, m, deg_sq, p, n_cap = _random_cell(rng)
        res = connectivity_bound_from_stats(n, m, deg_sq, p, n_cap)
        want, want_n = support.reference_bound(n, m, deg_sq, p, n_cap)
        tol = support.reference_tolerance(n, m, deg_sq, p)
        assert res.probability_lower_bound == pytest.approx(want, rel=tol, abs=1e-12), (n, m, deg_sq, p, n_cap)
        # the draw count is pinned down wherever the reference's winner beats
        # its neighbours by far more than rounding
        neighbours = [
            support.reference_ratio(n, m, deg_sq, p, N)
            for N in (want_n - 1, want_n + 1)
            if 2 <= N <= res.n_search_max
        ]
        if want > 1e-6 and all(want - v > 1e-9 * want for v in neighbours):
            assert res.maximizing_n == want_n, (n, m, deg_sq, p, n_cap)
            compared += 1
    assert compared >= 30


def test_maximizer_degenerate_cells():
    # the complement underflowed to 0 (a long union): b = 0, so every draw
    # count rounds to the clamp at 1 and the first one, N = 2, is reported
    for res in (
        _complete_bound_result(30, 1.0, 0.0, DEFAULT_N_CAP),
        _general_bound_result(30, 435, 30 * 29**2, 1.0, 0.0, DEFAULT_N_CAP),
        _complete_bound_result(9_000_000, 1.0, 0.0, 10**12),
    ):
        assert (res.probability_lower_bound, res.maximizing_n) == (1.0, 2)
    # a denominator that underflows to 0 beside a zero numerator: 0, not NaN
    res = connectivity_bound_from_stats(2**53, 1, 2, 5e-324)
    assert (res.probability_lower_bound, res.maximizing_n, res.denominator) == (0.0, 2, 0.0)
    # vacuous: every ratio is 0, and N = 2 although n_search_max is far above
    res = connectivity_bound_complete(10**6, 0.6)
    assert (res.probability_lower_bound, res.maximizing_n, res.n_search_max) == (0.0, 2, 750_000)
    # n_cap below the unconstrained maximiser: the best N is the cap itself
    res = connectivity_bound_complete(10**7, 0.999)
    assert res.maximizing_n == res.n_search_max == DEFAULT_N_CAP
    assert res.probability_lower_bound == pytest.approx(0.7247378041072873, rel=1e-12)
    res = connectivity_bound(ModelParams(complete(30), 0.99), n_cap=10)
    assert res.maximizing_n == res.n_search_max == 10
    assert res.probability_lower_bound > 0.0


def _shape_corpus(rng):
    """(a, b, E, n) of a cell and a band [lo, hi] of draw counts, for both evaluation shapes.

    p reaches 5e-324 and 1 - 2**-53, and (p, q) = (1, 0) stands for a union
    whose complement underflowed (b = 0); n runs from 3 to 2**53.  Each cell
    brings its own rounding band, the draw counts 2 to 64, and two bands of
    1 to 5000 draw counts placed at random in [2, 10**6].
    """
    ns = [3, 7, 2**53] + [int(10 ** rng.uniform(math.log10(3), 53 * math.log10(2))) for _ in range(45)]
    for n in ns:
        p = rng.choice([5e-324, 1 - 2**-53, 1.0, 10 ** rng.uniform(-300, -1), 1 - 10 ** rng.uniform(-15, -1), rng.uniform(0.05, 0.95)])
        q = 0.0 if p == 1.0 else 1.0 - p
        if rng.random() < 0.5:
            a, b_sq, energy = _complete_terms(n, p, q)
        else:
            m, deg_sq = rng.choice([(n - 1, n * (n - 1)), (n - 1, 4 * n - 6), (n * (n - 1) // 2, n * (n - 1) ** 2)])
            a, b_sq, energy = _general_terms(n, m, deg_sq, p, q)
        b = math.sqrt(b_sq)
        yield a, b, energy, n, _band(a, b, n, _range_limit(a, b, DEFAULT_N_CAP)) or (2, 2)
        yield a, b, energy, n, (2, 64)
        for width in rng.sample([1, 2, 3, _SCALAR_BAND, _SCALAR_BAND + 1, 100, 4097, 5000], 2):
            lo = rng.randint(2, 10**6 - width + 1)
            yield a, b, energy, n, (lo, lo + width - 1)


def test_scalar_and_array_shapes_agree(monkeypatch):
    # _best_in forced through each shape gives the same (N, numerator,
    # denominator, ratio), and the two shapes agree at the first 5000 N of
    # every band; R(N) from math.expm1 instead of np.expm1 would part them
    # where the two differ in the last bit, as they do at about 1% of draw
    # counts on hosts whose numpy has a vectorized expm1
    shapes = collections.Counter()
    for a, b, energy, n, (lo, hi) in _shape_corpus(random.Random(14)):
        case = (a, b, energy, n, lo, hi)
        monkeypatch.setattr(bounds, "_SCALAR_BAND", 0)
        array = _best_in(a, b, energy, n, lo, hi)
        monkeypatch.setattr(bounds, "_SCALAR_BAND", 10**7)
        assert _best_in(a, b, energy, n, lo, hi) == array, case
        ns = range(lo, min(hi, lo + 4999) + 1)
        terms = _ratio_terms(a, b, energy, n, np.array(ns, dtype=float))
        assert [_ratio_at(a, b, energy, n, N) for N in ns] == list(zip(*(t.tolist() for t in terms))), case
        shapes["clamped" if array[3] == 1.0 else "vacuous" if array[3] == 0.0 else "between"] += 1
        shapes["wide"] += hi - lo + 1 > _BAND_CHUNK
    assert min(shapes.values()) >= 5, shapes


def _assert_trace_is_cells(trace, p, cell):
    """Each horizon's trace value is, bit for bit, the cell at its (p_hat, q_hat)."""
    log_q = math.log1p(-p)
    assert [T for T, _ in trace] == list(range(1, len(trace) + 1))
    for T, val in trace:
        p_hat, q_hat = union_edge_probability(p, T), math.exp(T * log_q)
        assert val == cell(p_hat, q_hat).probability_lower_bound, T


def test_t_star_trace_matches_cells_found():
    m, deg_sq = complete_stats(40)
    res = t_star_from_stats(40, m, deg_sq, 0.01, 1e-4)
    assert res.t_star > 1000  # several chunks of horizons
    _assert_trace_is_cells(res.trace, 0.01, lambda ph, qh: _general_bound_result(40, m, deg_sq, ph, qh, DEFAULT_N_CAP))
    assert res.bound_at_t_star == res.trace[-1][1] >= 1 - 1e-4 > res.trace[-2][1]
    # large n with a tight target: many horizons have wide rounding bands
    res = t_star_complete(20_000, 0.05, 1e-6)
    _assert_trace_is_cells(res.trace, 0.05, lambda ph, qh: _complete_bound_result(20_000, ph, qh, DEFAULT_N_CAP))


def test_t_star_trace_matches_cells_not_found():
    with pytest.raises(TStarNotFound) as info:
        t_star_complete(2000, 0.01, 1e-9, t_max=300)
    exc = info.value
    assert len(exc.trace) == 300
    _assert_trace_is_cells(exc.trace, 0.01, lambda ph, qh: _complete_bound_result(2000, ph, qh, DEFAULT_N_CAP))
    assert (exc.best_t, exc.best_bound) == max(exc.trace, key=lambda entry: entry[1])


def test_t_star_stops_where_the_complement_underflows():
    g = complete_minus_cycle(5)
    m, deg_sq = g.m, sum_degree_squares(g)
    with pytest.raises(TStarNotFound) as info:
        t_star(g, 0.5, 0.01, t_max=10**5)
    trace = info.value.trace
    last = len(trace)
    assert math.exp(last * math.log1p(-0.5)) == 0.0 < math.exp((last - 1) * math.log1p(-0.5))
    _assert_trace_is_cells(trace, 0.5, lambda ph, qh: _general_bound_result(5, m, deg_sq, ph, qh, DEFAULT_N_CAP))


def test_t_star_negative_radicand_only_when_reached():
    # impossible stats are rejected before the first horizon, whatever the target or budget
    with pytest.raises(InvalidParameter):
        t_star_from_stats(3, 3, 1, 0.1, 0.5)
    with pytest.raises(InvalidParameter):
        t_star_from_stats(3, 3, 1, 0.1, 0.01, t_max=7)
    with pytest.raises(InvalidParameter):
        t_star_from_stats(3, 3, 1, 0.1, 0.01)


def _t_star_corpus(rng):
    """Seeded union searches: (the cell they scan, p, epsilon, t_max, n_cap, entry points).

    Random templates (trees with chords, complete graphs, complete minus a
    cycle) go to every entry point that takes them; p, epsilon, t_max and
    n_cap are drawn so the corpus holds searches that succeed, that run out
    of t_max, that stop where the complement underflows, and that run under
    a small n_cap.
    """
    for _ in range(48):
        if rng.random() < 0.5:
            p, t_max = 10 ** rng.uniform(-2, math.log10(0.5)), int(10 ** rng.uniform(1, 3))
        else:  # the complement (1 - p)^T underflows at T = 324 to 1075, often within t_max
            p, t_max = rng.uniform(0.5, 0.9), rng.randint(300, 3000)
        epsilon = 10 ** rng.uniform(-6, math.log10(0.5))
        n_cap = rng.choice([DEFAULT_N_CAP, rng.randint(2, 30)])
        family = rng.choice(["graph", "complete", "complete-minus-cycle"])
        if family == "complete":
            n = int(10 ** rng.uniform(math.log10(3), 5))
            cell = partial(_complete_bound_result, n, n_cap=n_cap)
            yield cell, p, epsilon, t_max, n_cap, {"t_star_complete": partial(t_star_complete, n)}
            if n > 40:
                continue
            g = complete(n)  # and through the general route
        elif family == "complete-minus-cycle":
            g = complete_minus_cycle(rng.randint(5, 40))
        else:
            n = rng.randint(3, 40)
            g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
        m, deg_sq = g.m, sum_degree_squares(g)
        cell = partial(_general_bound_result, g.n, m, deg_sq, n_cap=n_cap)
        searches = {"t_star": partial(t_star, g), "t_star_from_stats": partial(t_star_from_stats, g.n, m, deg_sq)}
        yield cell, p, epsilon, t_max, n_cap, searches


def test_t_star_matches_linear_scan_on_a_corpus():
    # every entry point against an ascending scan of every horizon: the same
    # T*, best horizon and bounds bit for bit, the same message and trace
    outcomes = collections.Counter()
    for cell, p, epsilon, t_max, n_cap, searches in _t_star_corpus(random.Random(12)):
        found, want_t, want_bound, want_trace = support.reference_t_star(cell, p, epsilon, t_max)
        for name, search in searches.items():
            case = (name, p, epsilon, t_max, n_cap)
            if found:
                res = search(p, epsilon, t_max=t_max, n_cap=n_cap)
                assert (res.t_star, res.bound_at_t_star) == (want_t, want_bound), case
                trace = res.trace
            else:
                with pytest.raises(TStarNotFound) as info:
                    search(p, epsilon, t_max=t_max, n_cap=n_cap)
                exc = info.value
                assert (exc.best_t, exc.best_bound) == (want_t, want_bound), case
                message = f"no horizon up to {t_max} reaches bound {1.0 - epsilon} (best {want_bound} at T={want_t})"
                assert str(exc) == message, case
                trace = exc.trace
            assert len(trace) == len(want_trace), case
            assert tuple(trace) == want_trace, case
        outcomes["found" if found else "underflow" if len(want_trace) < t_max else "t_max"] += 1
        outcomes["small n_cap"] += n_cap < DEFAULT_N_CAP
    assert min(outcomes.values()) >= 5, outcomes


def _horizon_pair(cell, p):
    """(bound, lower, upper) of a corpus cell: its bound at horizon T as a search reads it, and the closed forms around it."""
    terms = partial(_complete_terms if cell.func is _complete_bound_result else _general_terms, *cell.args)
    n, n_cap, log_q = cell.args[0], cell.keywords["n_cap"], math.log1p(-p)
    return (partial(_horizon_bound, terms, n, log_q, n_cap), *_horizon_bracket(terms, n, log_q, n_cap))


def test_horizon_bracket_holds_every_horizon_a_corpus_search_reads(monkeypatch):
    # the closed forms hold the cell between them at every horizon the
    # linear scan reads and at every horizon the searches read, some of
    # them past T*
    read = []

    def recording_bracket(*args):
        return [lambda T, f=f: read.append(T) or f(T) for f in _horizon_bracket(*args)]

    monkeypatch.setattr(bounds, "_horizon_bracket", recording_bracket)
    checked = 0
    for cell, p, epsilon, t_max, n_cap, searches in _t_star_corpus(random.Random(12)):
        read.clear()
        for search in searches.values():
            try:
                search(p, epsilon, t_max=t_max, n_cap=n_cap)
            except TStarNotFound:
                pass
        bound, lower, upper = _horizon_pair(cell, p)
        horizons = set(read) | {T for T, _ in support.reference_t_star(cell, p, epsilon, t_max)[3]}
        for T in sorted(horizons):
            assert lower(T) <= bound(T) <= upper(T), (p, epsilon, t_max, n_cap, T)
        checked += len(horizons)
    assert checked > 10_000


def _edge_cells(rng):
    """(label, terms, n, n_cap, p, T) of cells at the edges of the bracket's argument."""
    for p in (0.01, 0.3, 0.5, 0.9):  # N_c = 2.8 at n = 3, so g_lo is g(2) or g(3)
        for n_cap in (2, 3, DEFAULT_N_CAP):
            for T in range(1, 70, 3):
                yield "n = 3", partial(_complete_terms, 3), 3, n_cap, p, T
                yield "n = 3", partial(_general_terms, 3, 3, 12), 3, n_cap, p, T
                yield "n = 3", partial(_general_terms, 3, 2, 6), 3, n_cap, p, T  # the path
    for n in (5, 6, 12, 40):  # sparse templates whose cells are vacuous at every horizon
        m, deg_sq = complete_minus_cycle_stats(n) if n < 10 else (n, 4 * n)  # the cycle C_n past 10
        for p in (0.3, 0.7):
            for T in (1, 2, 5, 20, 200):
                yield "sparse", partial(_general_terms, n, m, deg_sq), n, DEFAULT_N_CAP, p, T
    for n in (10**6, 3 * 10**6, 10**7):  # p_hat near 1 widens the band towards n_hi
        for T in range(24, 56, 8):
            yield "large n", partial(_complete_terms, n), n, DEFAULT_N_CAP, 0.5, T
            yield "large n", partial(_general_terms, n, *complete_stats(n)), n, DEFAULT_N_CAP, 0.5, T
    for _ in range(150):  # small n_cap on random templates
        n = rng.randint(3, 40)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
        p = 10 ** rng.uniform(-3, -0.05)
        T = int(10 ** rng.uniform(0, 4))
        yield "small n_cap", partial(_general_terms, n, g.m, sum_degree_squares(g)), n, rng.randint(2, 30), p, T
    for p in (1e-20, 1e-25, 1e-300):  # horizons past 2**63, and past the largest float
        for T in (2**63 + 1, 2**70, 10**30, 2**1030, 10**400):
            yield "past 2**63", partial(_complete_terms, 1000), 1000, DEFAULT_N_CAP, p, T
            yield "past 2**63", partial(_general_terms, 40, *complete_minus_cycle_stats(40)), 40, 7, p, T


def test_horizon_bracket_holds_edge_cells():
    seen = collections.Counter()
    for label, terms, n, n_cap, p, T in _edge_cells(random.Random(26)):
        log_q = math.log1p(-p)
        lower, upper = _horizon_bracket(terms, n, log_q, n_cap)
        value = _horizon_bound(terms, n, log_q, n_cap, T)
        assert lower(T) <= value <= upper(T), (label, n, n_cap, p, T)
        a, b_sq, energy = terms(*bounds._union_probabilities(log_q, T))
        b = math.sqrt(b_sq)
        band = _band(a, b, n, _range_limit(a, b, n_cap))
        seen[label] += 1
        seen["vacuous" if value == 0.0 else "clamped" if value == 1.0 else "between"] += 1
        seen["wide band"] += band is not None and band[1] - band[0] >= _BAND_CHUNK
        try:
            T * log_q
        except OverflowError:
            seen["integer ratio"] += 1
    assert min(seen.values()) >= 5, seen


def _deep_corpus(rng):
    """Seeded searches that reach deep: (the cell they scan, p, epsilon, t_max, n_cap, search).

    p down to 1e-9 puts T* near 1e9, budgets go past 2**63 and epsilon down
    to 1e-12, on the complete and stats routes, some under a small n_cap.
    """
    for _ in range(160):
        p = 10 ** rng.uniform(-9, -0.3)
        epsilon = 10 ** rng.uniform(-12, math.log10(0.5))
        t_max = rng.choice([int(10 ** rng.uniform(1, 9.7)), 2**64 + rng.randrange(10**6)])
        n_cap = rng.choice([DEFAULT_N_CAP, rng.randint(2, 30)])
        family = rng.choice(["complete", "complete stats", "complete-minus-cycle stats", "graph stats"])
        if family == "complete":
            n = int(10 ** rng.uniform(math.log10(3), 7))
            yield partial(_complete_bound_result, n, n_cap=n_cap), p, epsilon, t_max, n_cap, partial(t_star_complete, n)
            continue
        if family == "graph stats":
            n = rng.randint(3, 40)
            g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
            m, deg_sq = g.m, sum_degree_squares(g)
        else:
            n = int(10 ** rng.uniform(math.log10(5), 6))
            m, deg_sq = (complete_stats if family == "complete stats" else complete_minus_cycle_stats)(n)
        yield partial(_general_bound_result, n, m, deg_sq, n_cap=n_cap), p, epsilon, t_max, n_cap, partial(t_star_from_stats, n, m, deg_sq)


def test_t_star_matches_the_gallop_from_zero_on_deep_horizons():
    # the former search, which reads only cells, reaches where the linear
    # scan cannot: the same T*, best horizon, bounds and message
    outcomes = collections.Counter()
    for cell, p, epsilon, t_max, n_cap, search in _deep_corpus(random.Random(26)):
        case = (cell, p, epsilon, t_max)
        found, want_t, want_bound = support.reference_t_star_gallop(cell, p, epsilon, t_max)
        if found:
            res = search(p, epsilon, t_max=t_max, n_cap=n_cap)
            assert (res.t_star, res.bound_at_t_star) == (want_t, want_bound), case
            assert res.trace[-1] == (want_t, want_bound), case
        else:
            with pytest.raises(TStarNotFound) as info:
                search(p, epsilon, t_max=t_max, n_cap=n_cap)
            exc = info.value
            assert (exc.best_t, exc.best_bound) == (want_t, want_bound), case
            assert exc.trace[exc.best_t - 1] == (exc.best_t, exc.best_bound), case
            message = f"no horizon up to {t_max} reaches bound {1.0 - epsilon} (best {want_bound} at T={want_t})"
            assert str(exc) == message, case
        outcomes["found" if found else "not found"] += 1
        outcomes["T* past 1e7"] += found and want_t > 10**7
        outcomes["t_max past 2**63"] += t_max > 2**63
        outcomes["epsilon below 1e-9"] += epsilon < 1e-9
        outcomes["small n_cap"] += n_cap < DEFAULT_N_CAP
    assert min(outcomes.values()) >= 5, outcomes


def test_t_star_not_found_reports_the_bound_at_its_best_horizon():
    # on this plateau the bound jitters in its last bits: the last horizon,
    # 76710, reads ...822, below the ...824 that the best horizon reads
    n, m, deg_sq, p, epsilon = 8, 23, 272, 0.009666665937347189, 2.797220187373536e-11
    cell = partial(_general_bound_result, n, m, deg_sq, n_cap=17)
    found, want_t, want_bound, want_trace = support.reference_t_star(cell, p, epsilon, 2**64)
    assert not found and (want_t, len(want_trace)) == (3820, 76710)
    assert want_bound > want_trace[-1][1]
    with pytest.raises(TStarNotFound) as info:
        t_star_from_stats(n, m, deg_sq, p, epsilon, t_max=18446744073710105435, n_cap=17)
    exc = info.value
    assert (exc.best_t, exc.best_bound) == (want_t, want_bound)
    assert exc.trace[exc.best_t - 1] == (want_t, want_bound)
    assert f"(best {want_bound} at T=3820)" in str(exc)


def _cells_read(monkeypatch, search):
    """The horizons at which search evaluates a cell, in order."""
    read = []
    monkeypatch.setattr(bounds, "_horizon_bound", lambda *args: read.append(args[-1]) or _horizon_bound(*args))
    try:
        search()
    except TStarNotFound:
        pass
    return read


def test_t_star_reads_at_most_three_cells(monkeypatch):
    # the closed forms settle nearly every probe of the search
    # the README's K1000 search read 46 cells when cells alone settled them
    assert len(_cells_read(monkeypatch, lambda: t_star_complete(1000, 1e-6, 0.1, t_max=10**9))) <= 3
    # test_t_star_plateau_breaks_early's search read 13
    assert len(_cells_read(monkeypatch, lambda: t_star(complete_minus_cycle(5), 0.5, 0.01, t_max=10**5))) <= 3
    # the upper bound already certifies the last horizon short of the target
    _, upper = _horizon_bracket(partial(_complete_terms, 2000), 2000, math.log1p(-0.01), DEFAULT_N_CAP)
    assert upper(300) < 1.0 - 1e-9
    assert len(_cells_read(monkeypatch, lambda: t_star_complete(2000, 0.01, 1e-9, t_max=300))) <= 3


def test_trace_is_a_lazy_sequence():
    res = t_star_complete(30, 0.1, 0.05)
    pairs = tuple(res.trace)
    assert len(pairs) == res.t_star and [T for T, _ in pairs] == list(range(1, res.t_star + 1))
    assert res.trace == pairs and res.trace == list(pairs) and res.trace != pairs[:-1]
    assert (res.trace == 5) is False and res.trace != "pairs"  # no sequence of pairs to compare
    assert res.trace == t_star_complete(30, 0.1, 0.05).trace and hash(res.trace) == hash(pairs)
    assert res.trace[-1] == pairs[-1] == (res.t_star, res.bound_at_t_star)
    assert res.trace[2:7:2] == pairs[2:7:2] and res.trace[::-1] == pairs[::-1] and res.trace[5:2] == ()
    assert res.trace.index(pairs[3]) == 3 and pairs[4] in res.trace
    for index in (res.t_star, -res.t_star - 1):
        with pytest.raises(IndexError):
            res.trace[index]
    with pytest.raises(TypeError):
        res.trace[0] = (1, 0.0)
    # it holds its cell and its length, and no store of values it has read
    assert not hasattr(res.trace, "__dict__")


@pytest.mark.parametrize(
    "n, p, epsilon, want",
    [(1000, 1e-6, 0.1, 7_529_970), (100, 1e-6, 1e-3, 16_777_618)],
)
def test_t_star_long_horizons(n, p, epsilon, want):
    # millions of horizons, found in O(log T*) probes that closed forms
    # settle; the trace is read at its two last entries only, never iterated
    res = t_star_complete(n, p, epsilon, t_max=10**8)
    assert res.t_star == want
    assert len(res.trace) == want
    assert res.trace[-1] == (want, res.bound_at_t_star)
    assert res.bound_at_t_star >= 1.0 - epsilon
    T, value = res.trace[-2]
    assert T == want - 1 and value < 1.0 - epsilon
