import math
import random

import numpy as np
import pytest

from conngraph import (
    InvalidParameter,
    TooManyEdges,
    complete,
    complete_minus_cycle,
    coupled_monotonicity_check,
    ell_first_order_lower,
    ell_mean,
    ell_variance,
    empirical_connectivity,
    empirical_ell_min_mean,
    empirical_ell_moments,
    empirical_lambda2_moments,
    exact_connectivity,
    from_edge_list,
    is_connected,
    lambda2_sq_mean_upper,
    ModelParams,
    sample_graph,
    sample_union,
    union_edge_probability,
    wilson_interval,
)
import conngraph.graphs as graphs
from conngraph.graphs import _connected_rows, _edge_arrays
from conngraph.montecarlo import _block_plan, _connected_profile

import support


def test_wilson_known_value():
    # hand-computed from the score interval with z = 1.959963984540054
    low, high = wilson_interval(50, 100, 0.95)
    z = 1.959963984540054
    denom = 1.0 + z * z / 100
    center = (0.5 + z * z / 200) / denom
    half = (z / denom) * math.sqrt(0.25 / 100 + z * z / 40000)
    assert low == pytest.approx(center - half, rel=1e-12)
    assert high == pytest.approx(center + half, rel=1e-12)


def test_wilson_contains_point_and_stays_in_unit_interval():
    rng = random.Random(13)
    cases = [(0, 10), (10, 10), (1, 2)] + [
        (rng.randrange(0, t + 1), t) for t in (rng.randrange(1, 500) for _ in range(30))
    ]
    for successes, trials in cases:
        low, high = wilson_interval(successes, trials, 0.99)
        point = successes / trials
        assert 0.0 <= low <= point <= high <= 1.0


def test_wilson_validation():
    with pytest.raises(InvalidParameter):
        wilson_interval(5, 0)
    with pytest.raises(InvalidParameter):
        wilson_interval(6, 5)
    with pytest.raises(InvalidParameter):
        wilson_interval(1, 10, confidence=1.0)


def test_exact_triangle_closed_form():
    # K3 is connected iff all three edges or exactly two are present
    rng = random.Random(5)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0)
        want = p**3 + 3 * p**2 * (1 - p)
        got = exact_connectivity(complete(3), p)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert got.terms == 4


def test_exact_matches_brute_force_on_random_graphs():
    rng = random.Random(29)
    for _ in range(12):
        n = rng.randrange(2, 6)
        edges = support.random_connected_graph(rng, n, rng.randrange(0, 3))
        g = from_edge_list(n, edges)
        p = rng.uniform(0.1, 0.9)
        want_value, want_count = support.brute_force_connectivity(n, edges, p)
        got = exact_connectivity(g, p)
        assert got.value == pytest.approx(want_value, rel=1e-12)
        assert got.terms == want_count


def test_exact_k4_profile():
    counts = support.connected_count_by_size(4, complete(4).edges)
    assert counts == [0, 0, 0, 16, 15, 6, 1]
    assert _connected_profile(complete(4)) == (0, 0, 0, 16, 15, 6, 1)
    got = exact_connectivity(complete(4), 0.5)
    assert got.value == 38 / 64
    assert got.terms == 38


def test_exact_probability_edges():
    assert exact_connectivity(complete(3), 0.0).value == 0.0
    assert exact_connectivity(complete(3), 1.0).value == 1.0
    assert exact_connectivity(complete(1), 0.5).value == 1.0


def test_exact_enumeration_cap():
    with pytest.raises(TooManyEdges):
        exact_connectivity(complete(8), 0.5)  # m = 28
    with pytest.raises(TooManyEdges):
        exact_connectivity(complete(4), 0.5, cap=5)


def test_exact_enumeration_refuses_more_than_32_edges():
    # subset ids are uint32: a larger cap must not start a 2^36 enumeration
    with pytest.raises(TooManyEdges, match="cap is 32"):
        exact_connectivity(complete(9), 0.5, cap=40)  # m = 36


def test_connected_rows_against_bfs():
    rng = random.Random(37)
    np_rng = np.random.default_rng(37)
    for _ in range(15):
        n = rng.randrange(2, 8)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 4)))
        ei, ej = _edge_arrays(g)
        present = np_rng.random((64, g.m)) < 0.5
        got = _connected_rows(n, ei, ej, present)
        for row in range(64):
            chosen = [e for e, keep in zip(g.edges, present[row]) if keep]
            assert bool(got[row]) == support.bfs_connected(n, chosen)


def assert_kernels_agree(n, edges, present):
    ei = np.array([i for i, _ in edges], dtype=np.intp)
    ej = np.array([j for _, j in edges], dtype=np.intp)
    got = _connected_rows(n, ei, ej, present)
    assert got.dtype == bool and got.shape == (present.shape[0],)
    assert got.tolist() == support.reference_connected_rows(n, ei, ej, present).tolist()


def random_rows(np_rng, rows, m, p):
    """Presence rows at probability p, with one all-present and one empty row."""
    present = np_rng.random((rows, m)) < p
    present[0] = True
    present[1] = False
    return present


def relabeled_path(order, closed):
    ends = order[1:] + order[:1] if closed else order[1:]
    return sorted((min(a, b), max(a, b)) for a, b in zip(order, ends))


def grid_edges(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return sorted(right + down)


def test_connected_rows_paths_and_cycles_match_reference():
    rng = random.Random(41)
    np_rng = np.random.default_rng(41)
    for n in (2, 3, 7, 64, 200):
        for closed in (False, True):
            order = list(range(n))
            rng.shuffle(order)
            edges = relabeled_path(order, closed and n > 2)
            for p in (0.5, 0.9, 0.99):
                assert_kernels_agree(n, edges, random_rows(np_rng, 24, len(edges), p))
    # n = 2000: the reference needs about one pass per vertex of a run whose
    # smallest label is not at its start, so shuffled labels go in only at
    # moderate p; an ascending path gives the kernel its longest hook chains
    # while the reference carries each run's label down it in one pass
    order = list(range(2000))
    rng.shuffle(order)
    for closed in (False, True):
        assert_kernels_agree(2000, relabeled_path(order, closed), random_rows(np_rng, 8, 1999 + closed, 0.6)[1:])
    assert_kernels_agree(2000, relabeled_path(list(range(2000)), False), random_rows(np_rng, 8, 1999, 0.999))


def test_connected_rows_grids_trees_and_complete_graphs_match_reference():
    rng = random.Random(43)
    np_rng = np.random.default_rng(43)
    for rows, cols in ((1, 5), (3, 3), (8, 11), (20, 20)):
        edges = grid_edges(rows, cols)
        for p in (0.5, 0.75, 0.95):
            assert_kernels_agree(rows * cols, edges, random_rows(np_rng, 32, len(edges), p))
    for n, chords in ((10, 3), (100, 10), (400, 40)):
        edges = support.random_connected_graph(rng, n, chords)
        for p in (0.7, 0.95):
            assert_kernels_agree(n, edges, random_rows(np_rng, 32, len(edges), p))
    for n in (4, 20, 60):
        edges = complete(n).edges
        for p in (0.05, 0.1, 0.3):
            assert_kernels_agree(n, edges, random_rows(np_rng, 64, len(edges), p))


def test_connected_rows_degenerate_shapes_match_reference():
    np_rng = np.random.default_rng(47)
    edges = complete(5).edges
    for rows in (0, 1, 5):
        assert_kernels_agree(5, edges, np.ones((rows, 10), dtype=bool))
        assert_kernels_agree(5, edges, np.zeros((rows, 10), dtype=bool))
        assert_kernels_agree(5, edges, np_rng.random((rows, 10)) < 0.5)
        assert_kernels_agree(1, [], np.zeros((rows, 0), dtype=bool))  # n = 1: always connected
        assert_kernels_agree(3, [], np.zeros((rows, 0), dtype=bool))  # m = 0: never, past n = 1
    assert _connected_rows(1, *_edge_arrays(complete(1)), np.zeros((4, 0), dtype=bool)).all()


def test_connected_rows_sub_block_seams(monkeypatch):
    np_rng = np.random.default_rng(53)
    g = complete_minus_cycle(5)  # n = 5, m = 5
    step = graphs._CONN_SLOTS // g.m
    for rows in (step - 1, step, step + 1, 2 * step + 3):
        assert_kernels_agree(g.n, g.edges, np_rng.random((rows, g.m)) < 0.6)
    # with a tiny budget every few rows start a sub-block; no sub-block may
    # hold more (row, edge) slots or (row, vertex) ids than the budget
    seen = []
    kernel = graphs._hook_and_shortcut

    def spy(n, ei, ej, present):
        seen.append(present.shape[0] * max(present.shape[1], n))
        return kernel(n, ei, ej, present)

    monkeypatch.setattr(graphs, "_CONN_SLOTS", 35)
    monkeypatch.setattr(graphs, "_hook_and_shortcut", spy)
    for rows in (1, 6, 7, 8, 50):
        assert_kernels_agree(g.n, g.edges, np_rng.random((rows, g.m)) < 0.6)
    assert max(seen) == 35 and len(seen) == 1 + 1 + 1 + 2 + 8
    seen.clear()
    assert_kernels_agree(9, [], np.zeros((50, 0), dtype=bool))  # n > m: 3 rows per sub-block
    assert max(seen) == 27 and len(seen) == 17


def test_sample_graph_extremes():
    rng = np.random.default_rng(0)
    g = complete(5)
    assert sample_graph(g, 1.0, rng).present == frozenset(g.edges)
    assert sample_graph(g, 0.0, rng).present == frozenset()


def test_sample_graph_edge_frequency():
    g = complete(4)
    rng = np.random.default_rng(21)
    p = 0.3
    draws = 20_000
    counts = {e: 0 for e in g.edges}
    for _ in range(draws):
        for e in sample_graph(g, p, rng).present:
            counts[e] += 1
    tol = 4 * math.sqrt(p * (1 - p) / draws)
    for e in g.edges:
        assert abs(counts[e] / draws - p) < tol


def test_sample_union_is_union_of_layers():
    g = complete(4)
    rng = np.random.default_rng(3)
    u = sample_union(g, 1.0, 3, rng)
    assert u.present == frozenset(g.edges)
    # frequency matches the collapsed probability
    p, T = 0.3, 3
    p_hat = union_edge_probability(p, T)
    draws = 20_000
    hit = 0
    for _ in range(draws):
        if (0, 1) in sample_union(g, p, T, rng).present:
            hit += 1
    assert abs(hit / draws - p_hat) < 4 * math.sqrt(p_hat * (1 - p_hat) / draws)


def test_empirical_connectivity_deterministic():
    g = complete(4)
    a = empirical_connectivity(g, 0.6, trials=5000, seed=42)
    b = empirical_connectivity(g, 0.6, trials=5000, seed=42)
    assert a == b
    c = empirical_connectivity(g, 0.6, trials=5000, seed=43)
    assert c.successes != a.successes  # overwhelmingly likely, and fixed seeds


def test_empirical_connectivity_matches_exact():
    g = complete(4)
    p = 0.55
    exact = exact_connectivity(g, p).value
    est = empirical_connectivity(g, p, trials=20_000, seed=11, confidence=0.99)
    assert est.ci_low <= exact <= est.ci_high
    assert est.successes <= est.trials
    assert est.ci_low <= est.point <= est.ci_high


def test_empirical_connectivity_extremes():
    g = complete(3)
    assert empirical_connectivity(g, 1.0, trials=500, seed=0).point == 1.0
    assert empirical_connectivity(g, 0.0, trials=500, seed=0).point == 0.0


def test_empirical_connectivity_star_beyond_int16_labels():
    # vertex labels past 32767 must not wrap: at p = 1 every trial keeps the star
    star = from_edge_list(40_000, [(0, leaf) for leaf in range(1, 40_000)])
    assert empirical_connectivity(star, 1.0, trials=3, seed=0).point == 1.0


@pytest.mark.parametrize(
    "n, star",
    [(40_000, False), (32_768, True), (32_769, True)],
    ids=["path-40000", "star-32768", "star-32769"],
)
def test_empirical_connectivity_at_scale(n, star):
    # at p = 1 every trial keeps every edge; a long path needs long hook
    # chains, and the stars sit on either side of the old int16 label limit
    # (the star at n = 40000 has its own test above)
    edges = [(0, v) for v in range(1, n)] if star else [(v, v + 1) for v in range(n - 1)]
    est = empirical_connectivity(from_edge_list(n, edges), 1.0, trials=4, seed=0)
    assert est.successes == 4


def test_empirical_connectivity_union_matches_collapsed_probability():
    g = complete(6)
    p, T = 0.3, 3
    exact = exact_connectivity(g, union_edge_probability(p, T)).value
    est = empirical_connectivity(g, p, T=T, trials=20_000, seed=7, confidence=0.99)
    assert est.ci_low <= exact <= est.ci_high


def test_empirical_connectivity_validation():
    g = complete(3)
    with pytest.raises(InvalidParameter):
        empirical_connectivity(g, 1.5)
    with pytest.raises(InvalidParameter):
        empirical_connectivity(g, 0.5, T=0)
    with pytest.raises(InvalidParameter):
        empirical_connectivity(g, 0.5, trials=0)


# each of the five estimators through the one block loop, as (trials, seed) -> call
ESTIMATORS = {
    "connectivity": lambda g, trials, seed: empirical_connectivity(g, 0.5, trials=trials, seed=seed),
    "coupled": lambda g, trials, seed: coupled_monotonicity_check(g, 0.3, 0.6, trials, seed=seed),
    "lambda2": lambda g, trials, seed: empirical_lambda2_moments(g, 0.5, trials, seed=seed),
    "ell": lambda g, trials, seed: empirical_ell_moments(g, 0.5, trials, seed=seed),
    "ell_min": lambda g, trials, seed: empirical_ell_min_mean(g, 0.5, 2, trials, seed=seed),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimators_reject_bad_seed_and_trials(name):
    estimate = ESTIMATORS[name]
    g = complete(4)
    for seed in (-1, -(2**70), 2.5, 3.0, "3", None):
        with pytest.raises(InvalidParameter, match="seed must be a non-negative integer"):
            estimate(g, 10, seed)
    for trials in (2.5, 10.0, "10", None):
        with pytest.raises(InvalidParameter, match="trials must be an integer"):
            estimate(g, trials, 0)
    with pytest.raises(InvalidParameter, match="need at least one trial"):
        estimate(g, 0, -1)  # the trial count is checked first
    estimate(g, np.int64(10), np.uint64(2**63))  # numpy integers are integers


def test_block_plan_covers_trials():
    rng = random.Random(3)
    for _ in range(30):
        trials = rng.randrange(1, 40_000)
        per = rng.randrange(1, 10_000)
        sizes = _block_plan(trials, per)
        assert sum(sizes) == trials
        assert all(s >= 1 for s in sizes)
        assert all(s * per <= (1 << 22) or s == 1 for s in sizes)


def test_lambda2_moments_at_p_one():
    lam = empirical_lambda2_moments(complete(5), 1.0, trials=200, seed=0)
    assert lam.mean == pytest.approx(5.0, abs=1e-9)
    assert lam.mean_sq == pytest.approx(25.0, abs=1e-8)
    assert lam.se_mean == pytest.approx(0.0, abs=1e-9)


def test_lambda2_moments_triangle_distribution():
    # each subset of K3 has weight 1/8 at p = 1/2: the full graph has
    # lambda2 = 3, the three two-edge paths have lambda2 = 1, the rest 0,
    # so E[lambda2] = 3/8 + 3/8 = 0.75 and E[lambda2^2] = 9/8 + 3/8 = 1.5
    lam = empirical_lambda2_moments(complete(3), 0.5, trials=40_000, seed=19)
    assert abs(lam.mean - 0.75) < 4 * lam.se_mean
    assert abs(lam.mean_sq - 1.5) < 4 * lam.se_mean_sq


def test_ell_moments_match_closed_forms():
    params = ModelParams(complete(5), 0.5)
    moments = empirical_ell_moments(complete(5), 0.5, trials=40_000, seed=23)
    assert abs(moments.mean - ell_mean(params)) < 4 * moments.se_mean
    assert moments.variance == pytest.approx(ell_variance(params), rel=0.1)


def test_ell_min_mean_respects_lower_bound():
    params = ModelParams(complete(5), 0.6)
    for independent in (False, True):
        for N in (2, 4):
            mean, se = empirical_ell_min_mean(
                complete(5), 0.6, N, trials=20_000, seed=31, independent_graphs=independent
            )
            assert mean >= ell_first_order_lower(params, N) - 4 * se


def test_coupled_monotonicity():
    res = coupled_monotonicity_check(complete(5), 0.2, 0.8, trials=5000, seed=3)
    assert res.dominance_violations == 0
    assert res.low.point <= res.high.point
    assert res.low.trials == res.high.trials == 5000


def test_coupled_monotonicity_rejects_swapped_levels():
    with pytest.raises(InvalidParameter):
        coupled_monotonicity_check(complete(4), 0.8, 0.2, trials=100)


def test_profile_cache_consistent_for_sparse_template():
    g = complete_minus_cycle(5)
    counts = support.connected_count_by_size(5, g.edges)
    assert list(_connected_profile(g)) == counts
    # C5's complement in K5 is itself a 5-cycle: only the full subset
    # and the four-edge paths are connected
    assert counts == [0, 0, 0, 0, 5, 1]


def test_estimate_half_width():
    est = empirical_connectivity(complete(4), 0.5, trials=1000, seed=1)
    assert est.half_width == pytest.approx((est.ci_high - est.ci_low) / 2.0)
