import math
import random
import re

import numpy as np
import pytest

from conngraph import (
    DisconnectedTemplate,
    EmptyUnion,
    InvalidEdge,
    InvalidParameter,
    MismatchedParents,
    SampledGraph,
    UnderlyingGraph,
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    from_edge_list,
    is_connected,
    laplacian,
    read_edge_list,
    sum_degree_squares,
    union,
)

from conngraph.graphs import _edge_arrays

import support


def test_complete_small():
    g = complete(3)
    assert g.n == 3
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.degrees == (2, 2, 2)
    assert is_connected(g)


def test_complete_single_vertex():
    g = complete(1)
    assert g.m == 0
    assert is_connected(g)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_complete_rejects_bad_n(bad):
    with pytest.raises(InvalidParameter):
        complete(bad)


def test_from_edge_list_normalizes_and_dedups():
    g = from_edge_list(3, [(1, 0), (0, 1), (2, 1), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.m == 3


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        from_edge_list(3, [(0, 1), (1, 1), (1, 2)])


def test_template_fields_must_agree():
    # K4's m and degrees with a single edge: the bound would read the stated
    # fields and report K4's bound for a graph that is not K4
    with pytest.raises(InvalidParameter) as info:
        UnderlyingGraph(4, ((0, 1),), 6, (3, 3, 3, 3))
    assert str(info.value) == "template fields disagree: n=4 and m=6, but 1 edges and 4 degrees summing to 12"
    for n, edges, m, degrees in [
        (3, ((0, 1),), 1, (1, 1)),  # too few degrees
        (2, ((0, 1),), 1, (1, 2)),  # degrees sum past 2m
        (2, ((0, 1),), True, (1, 1)),  # a bool edge count
        (0, (), 0, ()),  # no vertex
    ]:
        with pytest.raises(InvalidParameter):
            UnderlyingGraph(n, edges, m, degrees)
    assert UnderlyingGraph(2, ((0, 1),), 1, (1, 1)) == from_edge_list(2, [(0, 1)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(InvalidEdge):
        from_edge_list(3, [(0, 1), (1, 3)])
    with pytest.raises(InvalidEdge):
        from_edge_list(3, [(0, 1), (-1, 2)])


def test_hand_built_edges_out_of_range_raise_invalid_edge():
    # the builders check each edge; a hand-built graph is checked where its
    # endpoint arrays are made, instead of indexing past n or wrapping
    cases = [
        UnderlyingGraph(3, ((0, 5), (1, 2)), 2, (1, 2, 1)),
        UnderlyingGraph(3, ((-1, 1), (1, 2)), 2, (1, 2, 1)),
        SampledGraph(complete(3), frozenset({(0, 7)})),  # once read as 7 mod 3
    ]
    for g in cases:
        for check in (is_connected, laplacian, _edge_arrays):
            with pytest.raises(InvalidEdge, match=r"edge \(-?\d+, \d+\) out of range for n=3"):
                check(g)
    flipped = UnderlyingGraph(3, ((1, 0), (2, 1)), 2, (1, 2, 1))  # (j, i) pairs stay accepted
    assert is_connected(flipped)
    assert laplacian(flipped).tolist() == laplacian(from_edge_list(3, [(0, 1), (1, 2)])).tolist()


def test_from_edge_list_rejects_disconnected():
    with pytest.raises(DisconnectedTemplate):
        from_edge_list(4, [(0, 1), (2, 3)])
    # isolated vertex counts as disconnected too
    with pytest.raises(DisconnectedTemplate):
        from_edge_list(3, [(0, 1)])


def test_from_edge_list_too_few_edges_raises_before_allocating():
    # a list of n degrees here would need terabytes; fewer than n - 1 edges never connect
    with pytest.raises(DisconnectedTemplate, match="template on 1000000000000 vertices with 1 edges is not connected"):
        from_edge_list(10**12, [(0, 1)])


def test_complete_minus_cycle_basics():
    g = complete_minus_cycle(5)
    assert g.n == 5
    assert g.m == 5
    assert g.degrees == (2, 2, 2, 2, 2)
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert not cycle & set(g.edges)
    assert is_connected(g)


def test_complete_minus_cycle_small_n():
    with pytest.raises(InvalidParameter):
        complete_minus_cycle(3)
    with pytest.raises(DisconnectedTemplate):
        complete_minus_cycle(4)


@pytest.mark.parametrize("n", range(5, 10))
def test_stats_match_materialized(n):
    g = complete_minus_cycle(n)
    assert complete_minus_cycle_stats(n) == (g.m, sum_degree_squares(g))
    k = complete(n)
    assert complete_stats(n) == (k.m, sum_degree_squares(k))


def test_stats_mirror_constructor_errors():
    with pytest.raises(InvalidParameter):
        complete_minus_cycle_stats(3)
    with pytest.raises(DisconnectedTemplate):
        complete_minus_cycle_stats(4)
    with pytest.raises(InvalidParameter):
        complete_stats(0)


def test_read_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    for data, edges in [
        (b"# a triangle\n\n3\n0 1\n# middle comment\n1 2\r\n0 2\n", ((0, 1), (0, 2), (1, 2))),
        (b"\xef\xbb\xbf3\r\n0 1\r\n1 2\r\n", ((0, 1), (1, 2))),  # UTF-8 byte-order mark and CRLF, as Notepad saves
    ]:
        path.write_bytes(data)
        g = read_edge_list(path)
        assert g.n == 3
        assert g.edges == edges


def test_read_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(InvalidParameter):
        read_edge_list(empty)

    bad_count = tmp_path / "bad.txt"
    bad_count.write_text("three\n0 1\n")
    with pytest.raises(InvalidParameter):
        read_edge_list(bad_count)

    bad_edge = tmp_path / "edge.txt"
    for line in ("0 1 2", "0", "0 x", "0 1.0"):
        bad_edge.write_text(f"3\n{line}\n")
        with pytest.raises(InvalidEdge) as info:
            read_edge_list(bad_edge)
        assert str(info.value) == f"{bad_edge}: edge line must be two integers, got {line!r}"

    disconnected = tmp_path / "disc.txt"
    disconnected.write_text("4\n0 1\n2 3\n")
    with pytest.raises(DisconnectedTemplate):
        read_edge_list(disconnected)

    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe3\n0 1\n")
    with pytest.raises(InvalidParameter, match=f"^{re.escape(str(utf16))}: edge list must be UTF-8 text, "):
        read_edge_list(utf16)

    # the file system's own errors pass through
    with pytest.raises(FileNotFoundError):
        read_edge_list(tmp_path / "missing.txt")
    with pytest.raises(IsADirectoryError):
        read_edge_list(tmp_path)


def test_sampled_graph_connectivity_matches_bfs():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 8)
        parent = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, 4)))
        present = frozenset(e for e in parent.edges if rng.random() < 0.6)
        sg = SampledGraph(parent, present)
        assert is_connected(sg) == support.bfs_connected(n, present)
    for n in (9, 17, 40, 120, 300):
        for _ in range(4):
            parent = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, n)))
            for keep in (0.5, 0.8, 0.95):
                present = frozenset(e for e in parent.edges if rng.random() < keep)
                assert is_connected(SampledGraph(parent, present)) == support.bfs_connected(n, present)


def test_all_present():
    g = complete(4)
    sg = g.all_present()
    assert sg.parent is g
    assert sg.present == frozenset(g.edges)
    assert is_connected(sg)


def test_union_combines_presence():
    g = complete(4)
    a = SampledGraph(g, frozenset({(0, 1), (1, 2)}))
    b = SampledGraph(g, frozenset({(2, 3)}))
    u = union([a, b])
    assert u.present == frozenset({(0, 1), (1, 2), (2, 3)})
    assert is_connected(u)


def test_union_rejects_empty_and_mismatched():
    with pytest.raises(EmptyUnion):
        union([])
    a = SampledGraph(complete(4), frozenset())
    b = SampledGraph(complete(5), frozenset())
    with pytest.raises(MismatchedParents):
        union([a, b])


def test_laplacian_triangle():
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(laplacian(complete(3)), expected)


def test_laplacian_row_sums_zero():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 9)
        g = from_edge_list(n, support.random_connected_graph(rng, n, 2))
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.array_equal(lap, lap.T)


def test_laplacian_of_sample_uses_present_edges_only():
    g = complete(3)
    sg = SampledGraph(g, frozenset({(0, 1)}))
    lap = laplacian(sg)
    assert lap[0, 1] == -1.0
    assert lap[0, 2] == 0.0
    assert lap[2, 2] == 0.0


def test_sum_degree_squares():
    assert sum_degree_squares(complete(4)) == 4 * 9
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert sum_degree_squares(star) == 9 + 3




def test_from_edge_list_matches_bfs():
    rng = random.Random(59)
    for n in (2, 3, 5, 9, 17, 40, 120, 300):
        for _ in range(6):
            # draws on both sides of the connectivity threshold, about (n log n) / 2
            draws = rng.randrange(n // 2, int(n * math.log(n)) + 4)
            pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(draws)}
            if support.bfs_connected(n, pairs):
                assert is_connected(from_edge_list(n, pairs))
            else:
                with pytest.raises(DisconnectedTemplate):
                    from_edge_list(n, pairs)


def test_edge_arrays_match_list_conversion():
    rng = random.Random(3)
    graphs = [complete(1), complete(2), complete(30), complete_minus_cycle(7), SampledGraph(complete(5), frozenset())]
    for n in (3, 12, 60):
        parent = from_edge_list(n, support.random_connected_graph(rng, n, rng.randrange(0, n)))
        graphs += [parent, SampledGraph(parent, frozenset(e for e in parent.edges if rng.random() < 0.5))]
    for g in graphs:
        edges = g.edges if isinstance(g, UnderlyingGraph) else g.present
        want = np.asarray(list(edges), dtype=np.intp).reshape(-1, 2)
        ei, ej = _edge_arrays(g)
        assert ei.dtype == ej.dtype == np.intp
        assert ei.shape == ej.shape == (len(edges),)
        assert ei.tolist() == want[:, 0].tolist() and ej.tolist() == want[:, 1].tolist()


def test_kernel_degenerate_graphs():
    assert is_connected(from_edge_list(1, []))
    assert is_connected(SampledGraph(complete(1), frozenset()))
    assert not is_connected(SampledGraph(complete(4), frozenset()))
    assert is_connected(SampledGraph(complete(2), frozenset({(0, 1)})))


def test_two_large_stars_are_disconnected():
    # 40000 vertices: past the int16 range that once wrapped vertex labels
    n = 40_000
    half = n // 2
    pairs = [(0, v) for v in range(1, half)] + [(half, v) for v in range(half + 1, n)]
    with pytest.raises(DisconnectedTemplate):
        from_edge_list(n, pairs)
    star = from_edge_list(n, pairs + [(0, half)])
    assert is_connected(star)
    assert not is_connected(SampledGraph(star, frozenset(pairs)))
