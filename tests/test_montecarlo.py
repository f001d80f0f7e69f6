import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from conngraph import (
    InvalidParameter,
    TooManyEdges,
    UnderlyingGraph,
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
    SampledGraph,
    sample_ell_first_order_statistic,
    sample_graph,
    sample_union,
    union_edge_probability,
    wilson_interval,
)
import conngraph.graphs as graphs
from conngraph.graphs import _KernelTables, _connected_rows, _edge_arrays
import conngraph.montecarlo as mc
import conngraph.spectral as spectral
from conngraph.montecarlo import _blocks, _connected_profile

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


def test_wilson_holds_its_point_at_every_count():
    # no success starts the interval at exactly 0.0 and all successes end it at
    # exactly 1.0: center - half and center + half would leave a few ulps there
    for trials in range(1, 2001):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0
    for trials in range(1, 200):
        for successes in range(trials + 1):
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high, (successes, trials)


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


def test_exact_cap_must_be_a_nonnegative_integer():
    for cap in (None, "x", float("nan"), 2.0, -1, True):
        with pytest.raises(InvalidParameter, match="cap must be an integer >= 0, got"):
            exact_connectivity(complete(3), 0.5, cap=cap)
    # min(nan, 32) is nan and m > nan is False: nan would start a 2^36 enumeration
    with pytest.raises(InvalidParameter):
        exact_connectivity(complete(9), 0.5, cap=float("nan"))
    assert exact_connectivity(complete(3), 0.5, cap=np.int64(3)).terms == 4
    with pytest.raises(TooManyEdges, match="cap is 0"):
        exact_connectivity(complete(2), 0.5, cap=0)


def test_non_numeric_probability_is_a_typed_error():
    g = complete(4)
    calls = [
        lambda p: exact_connectivity(g, p),
        lambda p: empirical_connectivity(g, p, trials=10),
        lambda p: sample_graph(g, p, np.random.default_rng(0)),
        lambda p: sample_union(g, p, 2, np.random.default_rng(0)),
        lambda p: coupled_monotonicity_check(g, p, 0.9, trials=10),
        lambda p: coupled_monotonicity_check(g, 0.1, p, trials=10),
        lambda p: empirical_lambda2_moments(g, p, trials=10),
        lambda p: empirical_ell_moments(g, p, trials=10),
        lambda p: empirical_ell_min_mean(g, p, 2, trials=10),
    ]
    for p in (None, "0.5", [0.5], object()):
        for call in calls:
            with pytest.raises(InvalidParameter, match=r"must lie in \[0, 1\], got"):
                call(p)


def _checked_profile(g):
    """The profile, after checking it against the vertex-subset recurrence."""
    profile = _connected_profile(g)
    assert list(profile) == support.gilbert_profile(g.n, g.edges), (g.n, g.edges)
    return profile


def _path_star_cycle(n):
    path = [(i, i + 1) for i in range(n - 1)]
    star = [(0, i) for i in range(1, n)]
    return [path, star] + ([path + [(0, n - 1)]] if n >= 3 else [])


def _grid(rows, cols):
    v = lambda i, j: i * cols + j
    right = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    return from_edge_list(rows * cols, right + [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)])


def _ladder(k):
    return from_edge_list(2 * k, [(2 * i, 2 * i + 1) for i in range(k)] + [(i, i + 2) for i in range(2 * k - 2)])


def _hand_built(n, edges):
    """A template built without from_edge_list's checks: edges kept as given, connected or not."""
    degrees = [0] * n
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    return UnderlyingGraph(n, tuple(edges), len(edges), tuple(degrees))


def test_profile_matches_the_recurrence_at_every_density():
    rng = random.Random(41)
    for n in range(2, 9):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            tree = support.random_connected_graph(rng, n, 0)
            rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
            g = from_edge_list(n, tree + rng.sample(rest, m - n + 1))
            # a hand-built template may store an edge as (j, i) with j > i
            assert _checked_profile(_hand_built(n, [(j, i) for i, j in g.edges])) == _checked_profile(g)


def test_profile_closed_forms_on_trees_stars_and_cycles():
    rng = random.Random(43)
    for n in range(1, 13):
        tree = support.random_connected_graph(rng, n, 0)
        for edges in [tree] + (_path_star_cycle(n) if n >= 2 else []):
            counts = _checked_profile(from_edge_list(n, edges))
            # a tree's only connected spanning subset is itself; a cycle's are it and its n paths
            want = [0] * (n - 1) + [1] if len(edges) == n - 1 else [0] * (n - 1) + [n, 1]
            assert list(counts) == want


def test_profile_matches_the_recurrence_on_complete_families():
    for n in range(1, 9):
        _checked_profile(complete(n))
    for n in range(5, 10):
        _checked_profile(complete_minus_cycle(n))
    for g in (complete(6), complete_minus_cycle(7)):
        flipped = UnderlyingGraph(g.n, tuple((j, i) for i, j in g.edges), g.m, g.degrees)
        assert _checked_profile(flipped) == _checked_profile(g)


def test_profile_at_no_edges_and_two_vertices():
    assert _checked_profile(complete(1)) == (1,)
    assert _checked_profile(complete(2)) == (0, 1)
    # two vertices and no edge is disconnected: nothing is counted
    assert _checked_profile(UnderlyingGraph(2, (), 0, (0, 0))) == (0,)


def test_profile_of_a_disconnected_template_is_all_zeros():
    triangle = [(0, 1), (1, 2), (0, 2)]
    for n, edges in [
        (3, [(0, 1)]),  # vertex 2 has no edge
        (4, [(0, 1), (2, 3)]),
        (6, triangle + [(3, 4), (4, 5), (3, 5)]),
        (5, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]),  # vertex 4 alone, and the lowest degree
        (7, [(1, 0), (2, 1), (4, 3), (5, 4), (6, 5), (6, 3)]),
    ]:
        g = _hand_built(n, edges)
        assert _checked_profile(g) == (0,) * (g.m + 1)
        assert exact_connectivity(g, 0.5).value == 0.0


def test_profile_matches_brute_force():
    rng = random.Random(47)
    graphs_ = [complete(5), complete_minus_cycle(6), from_edge_list(10, _path_star_cycle(10)[2])]
    graphs_ += [from_edge_list(n, support.random_connected_graph(rng, n, extra)) for n, extra in [(6, 6), (8, 3), (9, 3), (7, 5)]]
    for g in graphs_:
        assert g.m <= 12
        assert list(_connected_profile(g)) == support.connected_count_by_size(g.n, g.edges)
        p = rng.uniform(0.1, 0.9)
        value, count = support.brute_force_connectivity(g.n, g.edges, p)
        got = exact_connectivity(g, p)
        assert got.value == pytest.approx(value, rel=1e-12)
        assert got.terms == count


def test_complete_totals_match_oeis_a001187():
    # connected labeled graphs on n nodes, OEIS A001187
    a001187 = [1, 1, 4, 38, 728, 26704, 1866256, 251548592]
    assert [sum(_connected_profile(complete(n))) for n in range(1, 9)] == a001187
    # K8 has 28 edges: 2^28 subsets were out of reach by enumeration alone
    got = exact_connectivity(complete(8), 0.5, cap=28)
    assert got.terms == 251548592
    assert got.value == 251548592 / 2**28


def test_profile_of_cycle_complete_and_chorded_cycle():
    chorded = from_edge_list(12, [(i, (i + 1) % 12) for i in range(12)] + [(i, i + 6) for i in range(5)])
    cycle = from_edge_list(14, [(i, (i + 1) % 14) for i in range(14)])
    assert _connected_profile(cycle) == tuple([0] * 13 + [14, 1])
    assert sum(_connected_profile(complete(7))) == 1866256
    assert list(_connected_profile(chorded)) == support.gilbert_profile(12, chorded.edges)


def _spanning_trees(g):
    """Kirchhoff's matrix-tree theorem: any cofactor of the Laplacian."""
    return round(np.linalg.det(graphs.laplacian(g)[1:, 1:]))


def _bridges(g):
    """Edges whose removal disconnects g."""
    return sum(not support.bfs_connected(g.n, [f for f in g.edges if f != e]) for e in g.edges)


def test_profile_reaches_templates_of_up_to_32_edges():
    cycle = from_edge_list(32, [(i, (i + 1) % 32) for i in range(32)])
    assert exact_connectivity(cycle, 0.5, cap=32).terms == 33
    assert _connected_profile(cycle) == tuple([0] * 31 + [32, 1])
    tree = from_edge_list(33, support.random_connected_graph(random.Random(59), 33, 0))
    assert exact_connectivity(tree, 0.5, cap=32).value == 0.5**32
    ladder = _ladder(11)
    assert ladder.m == 31 and list(_connected_profile(ladder)) == support.ladder_profile(11)
    assert exact_connectivity(ladder, 0.5, cap=32).terms == sum(support.ladder_profile(11))
    # the 3 x 5 grid as the vertex-subset recurrence and enumeration both counted it
    assert list(_connected_profile(_grid(3, 5))) == [0] * 14 + [30305, 48404, 37626, 18426, 6174, 1440, 227, 22, 1]
    # the 4 x 5 grid's total took 154.5 s by enumerating its 2^31 edge subsets
    grid = _grid(4, 5)
    profile = _connected_profile(grid)
    assert grid.m == 31 and exact_connectivity(grid, 0.5, cap=31).terms == 38_757_695
    assert profile[: grid.n - 1] == (0,) * (grid.n - 1) and profile[grid.n - 1] == _spanning_trees(grid)
    assert profile[-2:] == (grid.m - _bridges(grid), 1)


def _exact_corpus():
    """Cycles, ladders, grids and trees with chords up to 32 edges, K3-K8 and complete-minus-cycle(5-8)."""
    rng = random.Random(61)
    yield from (from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 33))
    yield from (_ladder(k) for k in range(2, 12))
    yield from (_grid(rows, cols) for rows, last in ((2, 11), (3, 7), (4, 5)) for cols in range(rows, last + 1))
    for n in range(4, 25, 2):
        for chords in (1, 3, 8):
            yield from_edge_list(n, support.random_connected_graph(rng, n, min(chords, 33 - n)))
    yield from (complete(n) for n in range(3, 9))
    yield from (complete_minus_cycle(n) for n in range(5, 9))


EXACT_PS = (0.0, 1e-300, 1e-9, 0.3, 0.5, 0.9, 1 - 1e-9, 1 - 2**-53, 1.0)


def test_exact_values_are_the_reference_sum_bit_for_bit():
    # the cached record is evaluated by the same expression as the sum formed afresh from the profile
    for g in _exact_corpus():
        assert g.m <= 32
        counts = _connected_profile(g)
        for p in EXACT_PS:
            got = exact_connectivity(g, p, cap=32)
            value, terms = support.exact_value(counts, p)
            assert (got.value.hex(), got.terms) == (value.hex(), terms), (g.n, g.edges, p)


def test_exact_record_is_searched_once_per_recent_template(monkeypatch):
    assert not hasattr(_connected_profile, "cache_info")  # only the record is cached
    searched = []

    def spy(parent):
        searched.append(parent)
        return _connected_profile(parent)

    monkeypatch.setattr(mc, "_connected_profile", spy)
    mc._exact_table.cache_clear()
    g = _grid(3, 4)
    values = {exact_connectivity(g, p).value for p in np.linspace(0.05, 0.95, 10)}
    assert len(values) == 10 and searched == [g]
    order = list(range(g.n))
    random.Random(67).shuffle(order)
    relabeled = from_edge_list(g.n, [(order[i], order[j]) for i, j in g.edges])
    assert relabeled != g
    assert exact_connectivity(relabeled, 0.5) == exact_connectivity(g, 0.5)
    assert searched == [g, relabeled]
    # distinct paths on 8 vertices: each permutation that starts at 0 is one path
    others = [from_edge_list(8, list(zip(v, v[1:]))) for v in itertools.islice(itertools.permutations(range(8)), 126)]
    for h in others[:62]:
        exact_connectivity(h, 0.5)
    exact_connectivity(g, 0.5)  # g is still among the 64 most recent templates
    assert searched.count(g) == 1
    for h in others[62:]:
        exact_connectivity(h, 0.5)
    exact_connectivity(g, 0.5)  # 64 other templates since g's last call
    assert searched.count(g) == 2 and len(searched) == 2 + len(others) + 1
    for a in mc._exact_table(g)[:3]:  # every call shares the record's arrays
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_connected_rows_against_bfs():
    rng = random.Random(37)
    np_rng = np.random.default_rng(37)
    for _ in range(15):
        n = rng.randrange(2, 8)
        g = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 4)))
        ei, ej = _edge_arrays(g)
        present = np_rng.random((64, g.m)) < 0.5
        got = _connected_rows(_KernelTables(n, ei, ej), present)
        for row in range(64):
            chosen = [e for e, keep in zip(g.edges, present[row]) if keep]
            assert bool(got[row]) == support.bfs_connected(n, chosen)


def assert_kernels_agree(n, edges, present):
    ei = np.array([i for i, _ in edges], dtype=np.intp)
    ej = np.array([j for _, j in edges], dtype=np.intp)
    got = _connected_rows(_KernelTables(n, ei, ej), present)
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
    assert _connected_rows(_KernelTables(1, *_edge_arrays(complete(1))), np.zeros((4, 0), dtype=bool)).all()


def rows_with_counts(np_rng, m, counts, per_count=6):
    """Presence rows holding exactly k of m edges, per_count random rows for each k in counts."""
    rows = []
    for k in counts:
        for _ in range(per_count):
            row = np.zeros(m, dtype=bool)
            row[np_rng.choice(m, k, replace=False)] = True
            rows.append(row)
    return np.array(rows).reshape(-1, m)


def test_connected_rows_count_rules_match_reference():
    # rows at the counts the rules turn on: n - 2 and fewer are settled as
    # disconnected, n - 1 and m - 1 are hooked, m is hooked once per group
    rng = random.Random(53)
    np_rng = np.random.default_rng(53)
    templates = [
        (8, relabeled_path(list(range(8)), True)),
        (12, grid_edges(3, 4)),
        (30, support.random_connected_graph(rng, 30, 4)),
        (6, complete(6).edges),
    ]
    for n, edges in templates:
        m = len(edges)
        counts = sorted({n - 2, n - 1, m - 1, m})
        present = rows_with_counts(np_rng, m, counts)
        assert_kernels_agree(n, edges, present)
        assert_kernels_agree(n, edges, present[np_rng.permutation(len(present))])
        for k in counts:
            assert_kernels_agree(n, edges, rows_with_counts(np_rng, m, [k], per_count=1))  # one row


def test_connected_rows_all_present_rows_of_a_disconnected_edge_set():
    # two disjoint triangles: the rows holding every edge must still come out False
    n, edges = 6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    np_rng = np.random.default_rng(59)
    present = np.vstack([np.ones((3, 6), dtype=bool), np_rng.random((20, 6)) < 0.8, np.ones((2, 6), dtype=bool)])
    assert_kernels_agree(n, edges, present)
    ei, ej = np.array(edges).T
    assert not _connected_rows(_KernelTables(n, ei, ej), present).any()
    assert not _connected_rows(_KernelTables(n, ei, ej), np.ones((1, 6), dtype=bool)).any()


def test_connected_rows_hooks_only_rows_the_counts_leave_open(monkeypatch):
    hooked = []  # the row count of every group that reaches hook and shortcut
    hook = graphs._hook_and_shortcut

    def spied(tables, present):
        hooked.append(len(present))
        return hook(tables, present)

    monkeypatch.setattr(graphs, "_hook_and_shortcut", spied)
    np_rng = np.random.default_rng(61)
    n, edges = 10, relabeled_path(list(range(10)), True)  # m = 10
    ei, ej = np.array(edges).T
    tables = _KernelTables(n, ei, ej)
    # every row settled by its count: too few edges, or all of them (hooked once)
    few = rows_with_counts(np_rng, 10, [0, 3, 8])
    assert _connected_rows(tables, few).tolist() == [False] * len(few)
    assert hooked == []
    full = np.ones((7, 10), dtype=bool)
    assert _connected_rows(tables, np.vstack([few, full, few])).tolist() == [False] * len(few) + [True] * 7 + [False] * len(few)
    assert hooked == [1]
    # no row settled: n - 1 edges each, so every row is hooked in one group
    hooked.clear()
    open_rows = rows_with_counts(np_rng, 10, [9], per_count=12)
    assert _connected_rows(tables, open_rows).all()  # a cycle less one edge is a path
    assert hooked == [12]
    # n = 1 and m = 0: every row holds all of its no edges, and one is hooked
    hooked.clear()
    assert _connected_rows(_KernelTables(1, ei[:0], ej[:0]), np.zeros((5, 0), dtype=bool)).all()
    assert hooked == [1]
    hooked.clear()
    assert not _connected_rows(_KernelTables(4, ei[:0], ej[:0]), np.zeros((5, 0), dtype=bool)).any()
    assert hooked == []


def test_kernel_tables_serve_groups_of_any_size():
    # one set of tables for a call's groups, rebuilt when a group outgrows them
    np_rng = np.random.default_rng(67)
    g = from_edge_list(9, grid_edges(3, 3))
    ei, ej = _edge_arrays(g)
    tables = _KernelTables(g.n, ei, ej)
    largest = 0
    for rows in (3, 40, 1, 17, 0, 64):
        present = np_rng.random((rows, g.m)) < 0.75
        got = _connected_rows(tables, present)
        assert got.tolist() == support.reference_connected_rows(g.n, ei, ej, present).tolist()
        largest = max(largest, rows)
        assert tables.rows == largest


BUDGET_CASES = {
    "connectivity": lambda: empirical_connectivity(complete(6), 0.4, trials=5000, seed=5),
    "union": lambda: empirical_connectivity(complete_minus_cycle(7), 0.2, T=3, trials=5000, seed=6),
    "sparse": lambda: empirical_connectivity(from_edge_list(40, [(i, i + 1) for i in range(39)]), 0.99, trials=2000),
    "coupled": lambda: coupled_monotonicity_check(complete(6), 0.2, 0.45, 5000, seed=7),
    "lambda2": lambda: empirical_lambda2_moments(complete(6), 0.5, 4000, seed=8),
    "ell": lambda: empirical_ell_moments(complete(5), 0.5, 4000, seed=9),
    "ell_min": lambda: empirical_ell_min_mean(complete(5), 0.6, 3, 3000, seed=10),
    "ell_min_independent": lambda: empirical_ell_min_mean(complete(5), 0.6, 3, 3000, seed=10, independent_graphs=True),
    "sample_union": lambda: sample_union(complete(12), 0.3, 4, np.random.default_rng(4)),
    "sampler": lambda: sample_ell_first_order_statistic(complete(6), 0.5, 2000, np.random.default_rng(5)),
    "sampler_independent": lambda: sample_ell_first_order_statistic(
        complete(6), 0.5, 2000, np.random.default_rng(5), independent_graphs=True
    ),
    "spectrum_check": lambda: spectral._spectrum_mismatches(complete(5)),
    "is_connected": lambda: is_connected(complete(300)),
}


@pytest.mark.parametrize("cells", [50, 100, 1 << 16])
def test_kernel_and_solvers_take_one_group_per_call(monkeypatch, cells):
    # every call of the kernel or of either eigensolver gets rows x cells-per-row
    # within _GROUP_CELLS, or a single row, whoever calls it and however many
    # rows the caller has in all
    monkeypatch.setattr(graphs, "_GROUP_CELLS", cells)
    calls = {}

    def spy(name, call, cells_per_row):
        def spied(*args):
            rows = args[-1].shape[0]
            calls.setdefault(name, []).append(rows)
            assert rows == 1 or rows * cells_per_row(*args) <= cells, (name, rows)
            return call(*args)

        return spied

    kernel = spy("kernel", _connected_rows, lambda tables, present: max(present.shape[1], tables.n))
    for module in (graphs, mc, spectral):
        monkeypatch.setattr(module, "_connected_rows", kernel)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh, lambda stack: stack[0].size))
    jacobi = spy("jacobi", spectral._jacobi_eigenvalues, lambda stack: stack[0].size)
    monkeypatch.setattr(spectral, "_jacobi_eigenvalues", jacobi)
    for case in BUDGET_CASES.values():
        case()
    assert sorted(calls) == ["eigvalsh", "jacobi", "kernel"]
    # the groups fill their budget: some call gets more than one row
    assert max(max(rows) for rows in calls.values()) > 1


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
        with pytest.raises(InvalidParameter, match="seed must be an integer >= 0, got"):
            estimate(g, 10, seed)
    for trials in (2.5, 10.0, "10", None):
        with pytest.raises(InvalidParameter, match="trials must be an integer"):
            estimate(g, trials, 0)
    with pytest.raises(InvalidParameter, match="trials must be an integer >= 1, got 0"):
        estimate(g, 0, -1)  # the trial count is checked first
    estimate(g, np.int64(10), np.uint64(2**63))  # numpy integers are integers


def test_confidence_checked_before_any_trial(monkeypatch):
    def sampled(*args):
        raise AssertionError("a trial was drawn before confidence was checked")

    monkeypatch.setattr("conngraph.montecarlo._connected_rows", sampled)
    g = complete(60)
    for confidence in (1.5, 0.0, 1.0, -0.1, math.nan):
        message = f"confidence must lie in (0, 1), got {confidence}"
        with pytest.raises(InvalidParameter) as info:
            empirical_connectivity(g, 0.1, trials=20_000, confidence=confidence)
        assert str(info.value) == message
        with pytest.raises(InvalidParameter) as info:
            coupled_monotonicity_check(g, 0.1, 0.2, 20_000, confidence=confidence)
        assert str(info.value) == message
    # of two faults the trial count comes first, then the seed, then confidence
    with pytest.raises(InvalidParameter, match="trials must be an integer >= 1, got 0"):
        empirical_connectivity(g, 0.1, trials=0, seed=-1, confidence=1.5)
    with pytest.raises(InvalidParameter, match="seed must be an integer >= 0, got"):
        coupled_monotonicity_check(g, 0.1, 0.2, 10, seed=-1, confidence=1.5)


def test_block_plan_covers_trials():
    rng = random.Random(3)
    for _ in range(30):
        trials = rng.randrange(1, 40_000)
        per = rng.randrange(1, 10_000)
        sizes = [size for size, _ in _blocks(trials, per, 0)]
        assert sum(sizes) == trials
        assert all(s >= 1 for s in sizes)
        assert all(s * per <= (1 << 22) or s == 1 for s in sizes)


def test_blocks_draw_from_the_children_of_one_spawn():
    # each block's child is spawned when the loop reaches it, and the first k
    # are those of one spawn of k, even when the trial count has no end in sight
    blocks = list(itertools.islice(_blocks(10**15, 3, 5), 4))
    assert [size for size, _ in blocks] == [8192] * 4
    children = np.random.SeedSequence(5).spawn(4)
    assert [gen.bit_generator.state for _, gen in blocks] == [np.random.PCG64(c).state for c in children]


def test_first_block_of_a_huge_run_comes_at_once():
    start = time.perf_counter()
    size, _ = next(_blocks(10**15, 3, 0))
    assert size == 8192 and time.perf_counter() - start < 0.5


def test_memory_does_not_grow_with_the_block_count(monkeypatch):
    # one trial per block: 20 blocks and 2000 blocks keep the same few arrays
    monkeypatch.setattr(mc, "_BLOCK", 1)
    peaks = []
    for trials in (20, 20, 2000):  # the first call keeps numpy's set-up out of the count
        tracemalloc.start()
        try:
            empirical_connectivity(complete(4), 0.5, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 4096, peaks


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


@pytest.mark.parametrize(
    "g, p_low, p_high, trials, seed",
    [
        (complete(6), 0.2, 0.45, 5000, 7),
        (complete_minus_cycle(9), 0.3, 0.6, 20001, 3),
        (complete(33), 0.1, 0.2, 7943, 1),
        (from_edge_list(40, [(i, (i + 1) % 40) for i in range(40)]), 0.95, 0.99, 9000, 5),
    ],
    ids=["K6", "complete_minus_cycle_9", "K33", "cycle_40"],
)
def test_coupled_check_is_two_connectivity_runs(g, p_low, p_high, trials, seed):
    # both levels read the same uniforms as a run at that level alone, so at
    # equal trials and seed each side equals that run field for field
    res = coupled_monotonicity_check(g, p_low, p_high, trials, seed=seed)
    assert res.low == empirical_connectivity(g, p_low, trials=trials, seed=seed)
    assert res.high == empirical_connectivity(g, p_high, trials=trials, seed=seed)


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


# Block uniforms stream through one bounded buffer; the results are those of one draw per block.

# _GROUP_CELLS values: the draw buffer holds max(_GROUP_CELLS, m) uniforms
CHUNKS = {
    "1": lambda m: 1,
    "7": lambda m: 7,
    "m-1": lambda m: m - 1,
    "m+1": lambda m: m + 1,
    "50": lambda m: 50,
    "100": lambda m: 100,
    "2^16": lambda m: 1 << 16,
}


def _one_draw_groups(gen, rows, m, levels, group, T=1):
    # the block drawn by one gen.random call, as every estimator drew it before streaming
    u = gen.random((rows, T, m))
    present = np.stack([(u < level).any(axis=1) for level in levels])
    for start in range(0, rows, group):
        yield start, present[:, start : start + group]


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
def test_presence_groups_match_one_draw(monkeypatch, chunk):
    rng = random.Random(61)
    for _ in range(40):
        m, rows, T = rng.randrange(1, 12), rng.randrange(1, 30), rng.randrange(1, 6)
        group = rng.randrange(1, rows + 3)
        levels = tuple(sorted(rng.random() for _ in range(rng.randrange(1, 3))))
        monkeypatch.setattr(graphs, "_GROUP_CELLS", CHUNKS[chunk](m))
        seed = rng.getrandbits(32)
        streamed, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        groups = [(start, present.copy()) for start, present in mc._presence_groups(streamed, rows, m, levels, group, T)]
        want = list(_one_draw_groups(drawn, rows, m, levels, group, T))
        assert [start for start, _ in groups] == [start for start, _ in want]
        for (_, got), (_, expected) in zip(groups, want):
            assert np.array_equal(got, expected)
        assert streamed.random() == drawn.random()  # the stream is where one draw would leave it


def test_presence_groups_without_edges_draw_nothing():
    gen = np.random.default_rng(3)
    groups = list(mc._presence_groups(gen, 5, 0, (0.5,), 2, T=2**70))
    assert [(start, present.shape) for start, present in groups] == [(0, (1, 2, 0)), (2, (1, 2, 0)), (4, (1, 1, 0))]
    assert gen.random() == np.random.default_rng(3).random()


STREAMED_ESTIMATORS = {
    "connectivity": lambda: empirical_connectivity(complete(6), 0.4, trials=300, seed=5),
    "union": lambda: empirical_connectivity(complete_minus_cycle(7), 0.2, T=3, trials=300, seed=6),
    "coupled": lambda: coupled_monotonicity_check(complete(6), 0.2, 0.45, 300, seed=7),
    "lambda2": lambda: empirical_lambda2_moments(complete_minus_cycle(6), 0.5, 200, seed=8),
    "ell": lambda: empirical_ell_moments(complete(5), 0.5, 200, seed=9),
    "ell_min": lambda: empirical_ell_min_mean(complete(5), 0.6, 3, 200, seed=10),
    "ell_min_independent": lambda: empirical_ell_min_mean(complete(5), 0.6, 3, 200, seed=10, independent_graphs=True),
    "sample_union": lambda: (lambda rng: (sample_union(complete(6), 0.3, 4, rng).present, rng.random()))(np.random.default_rng(4)),
    "sampler": lambda: (lambda rng: (sample_ell_first_order_statistic(complete(6), 0.5, 40, rng), rng.random()))(
        np.random.default_rng(5)
    ),
}


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("name", sorted(STREAMED_ESTIMATORS))
def test_streamed_estimators_match_one_draw_per_block(monkeypatch, name, chunk):
    # small blocks, draw buffers, kernel groups and spectral stacks put seams
    # everywhere; the index draws that follow a block must see the stream where
    # one draw leaves it
    monkeypatch.setattr(mc, "_BLOCK", 37)
    estimate = STREAMED_ESTIMATORS[name]
    with monkeypatch.context() as one_draw:
        one_draw.setattr(mc, "_presence_groups", _one_draw_groups)
        one_draw.setattr(mc, "_laplacian_stack", support.reference_laplacian_stack)  # edge by edge
        one_draw.setattr(graphs, "_GROUP_CELLS", 1 << 40)  # one kernel or eigvalsh call per block
        want = estimate()
    monkeypatch.setattr(graphs, "_GROUP_CELLS", CHUNKS[chunk](15))  # K6 has 15 edges
    assert estimate() == want


def test_laplacian_stack_matches_edge_by_edge_sums():
    np_rng = np.random.default_rng(67)
    path = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for g in (complete(1), complete(2), complete(5), complete_minus_cycle(7), path):
        ei, ej = _edge_arrays(g)
        present = np_rng.random((40, g.m)) < 0.3
        present[0] = False  # every vertex isolated
        present[1] = True
        present[2, (ei == 0) | (ej == 0)] = False  # vertex 0 isolated
        want = support.reference_laplacian_stack(g.n, ei, ej, present)
        got = graphs._laplacian_stack(g.n, ei, ej, present)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # +0.0, never -0.0
        # laplacian is the one-row case, for the template and for every realization
        assert graphs.laplacian(g).tobytes() == want[1].tobytes()
        for row, lap in zip(present, want):
            realization = SampledGraph(g, frozenset(e for e, keep in zip(g.edges, row) if keep))
            assert graphs.laplacian(realization).tobytes() == lap.tobytes()


# One call of each estimator whose block fills the 2^22 block budget: K33 has 528 edges (7943
# trials), K30 435 (T = 3, 3214 trials), and K20 190 edges plus 400 Laplacian cells (7109 trials).
BUDGET_CALLS = {
    "connectivity": lambda: empirical_connectivity(complete(33), 0.2, trials=7943, seed=1),
    "union": lambda: empirical_connectivity(complete(30), 0.1, T=3, trials=3214, seed=1),
    "coupled": lambda: coupled_monotonicity_check(complete(33), 0.1, 0.2, 7943, seed=1),
    "lambda2": lambda: empirical_lambda2_moments(complete(20), 0.5, 7109, seed=1),
    "ell": lambda: empirical_ell_moments(complete(20), 0.5, 7109, seed=1),
    "ell_min": lambda: empirical_ell_min_mean(complete(20), 0.5, 4, 7109, seed=1),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CALLS))
def test_block_budget_call_allocates_at_most_8_mib(name):
    BUDGET_CALLS[name]()  # numpy and LAPACK set-up stays out of the count
    tracemalloc.start()
    try:
        BUDGET_CALLS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"


# The same three calls peak at 3.34, 3.40 and 3.40 MiB with edge work arrays of rows x m cells,
# and at 1.84, 2.41 and 2.04 MiB with arrays for the edges a group holds (numpy 2.4, x86-64).
KERNEL_CALLS = {name: BUDGET_CALLS[name] for name in ("connectivity", "union", "coupled")}


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_kernel_edge_arrays_follow_the_present_edges(name):
    KERNEL_CALLS[name]()
    tracemalloc.start()
    try:
        KERNEL_CALLS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2**20, f"{name} peaked at {peak / 2**20:.2f} MiB"


def test_index_draws_do_not_grow_with_N():
    # 100 trials of N index draws each: the draws come a bounded chunk at a time
    peaks = {}
    for N in (2, 2, 20000):  # the first call keeps numpy's set-up out of the count
        tracemalloc.start()
        try:
            empirical_ell_min_mean(complete(4), 0.5, N, 100)
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20000] <= peaks[2] + 2**20, peaks
