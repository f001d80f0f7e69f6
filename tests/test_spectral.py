import json
import math
import random
import warnings

import numpy as np
import pytest

from conngraph import (
    InvalidParameter,
    NoConvergence,
    NotSymmetric,
    SampledGraph,
    algebraic_connectivity,
    complete,
    complete_minus_cycle,
    from_edge_list,
    is_connected,
    laplacian,
    sample_ell,
    sample_ell_first_order_statistic,
    sample_graph,
    zero_threshold,
)
from conngraph import graphs, spectral
from conngraph.cli import main
from conngraph.spectral import _jacobi_eigenvalues, eigenvalues_symmetric

import support


def test_single_edge_eigenvalues():
    g = from_edge_list(2, [(0, 1)])
    spec = eigenvalues_symmetric(laplacian(g))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complete_graph_spectrum(n):
    # K_n Laplacian: one zero eigenvalue, n with multiplicity n - 1
    spec = eigenvalues_symmetric(laplacian(complete(n)))
    expected = [0.0] + [float(n)] * (n - 1)
    assert np.allclose(spec.eigenvalues, expected, atol=1e-9)


def test_star_spectrum():
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    spec = eigenvalues_symmetric(laplacian(star))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-9)


def test_two_by_two_against_closed_form():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rng.uniform(-5, 5) for _ in range(3))
        got = eigenvalues_symmetric(np.array([[a, b], [b, c]])).eigenvalues
        want = support.sym2_eigenvalues(a, b, c)
        assert np.allclose(got, want, atol=1e-10)


def test_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(5)
    for n in (3, 5, 8, 12):
        for _ in range(10):
            raw = rng.normal(size=(n, n))
            sym = (raw + raw.T) / 2.0
            got = eigenvalues_symmetric(sym).eigenvalues
            want = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(got - want)) < 1e-8


def test_matches_lapack_on_sampled_laplacians():
    rng = np.random.default_rng(17)
    g = complete(6)
    for _ in range(25):
        present = frozenset(e for e in g.edges if rng.random() < 0.5)
        lap = laplacian(SampledGraph(g, present))
        got = eigenvalues_symmetric(lap).eigenvalues
        want = np.linalg.eigvalsh(lap)
        assert np.max(np.abs(got - want)) < 1e-8


def test_huge_rotation_angle_does_not_overflow():
    # a[0, 1] is so small that theta = (a11 - a00) / (2 a01) squares past the
    # float range; the rotation must still be taken without a warning
    m = np.array([[1.0, 1e-170, 1.0], [1e-170, 2.0, 0.0], [1.0, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigenvalues_symmetric(m).eigenvalues
    assert np.max(np.abs(got - np.linalg.eigvalsh(m))) < 1e-12


def test_huge_entries_are_solved_scaled_by_a_power_of_two():
    # squares of entries past 1.3e154 overflow the Frobenius norms, and the
    # symmetrized sum (a + a.T) overflows from about 9e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e160, 1e300):
            assert eigenvalues_symmetric([[s, s], [s, s]]).eigenvalues.tolist() == [0.0, 2 * s]
        assert eigenvalues_symmetric([[1e308, 0.0], [0.0, 1e308]]).eigenvalues.tolist() == [1e308, 1e308]


def test_eigenvalues_past_the_float_range_raise():
    # solved scaled down, their eigenvalue 2e308 cannot be scaled back
    for s in (1e308, -1e308):
        with pytest.raises(InvalidParameter, match="eigenvalue past the float range"):
            eigenvalues_symmetric([[s, s], [s, s]])


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(7, 7))
    vals = eigenvalues_symmetric((raw + raw.T) / 2.0).eigenvalues
    assert np.all(np.diff(vals) >= 0)


def test_diagonal_matrix_unchanged():
    spec = eigenvalues_symmetric(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(spec.eigenvalues, [-1.0, 2.0, 3.0])


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # just over the elementwise tolerance
    with pytest.raises(NotSymmetric):
        eigenvalues_symmetric(np.array([[0.0, 1.0 + 1e-11], [1.0, 0.0]]))
    # just under it is accepted and symmetrized
    spec = eigenvalues_symmetric(np.array([[0.0, 1.0 + 1e-13], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-9)


def test_rejects_non_square_and_empty():
    with pytest.raises(NotSymmetric):
        eigenvalues_symmetric(np.zeros((2, 3)))
    with pytest.raises(InvalidParameter):
        eigenvalues_symmetric(np.zeros((0, 0)))


def test_rejects_non_numeric_and_non_finite_matrices():
    # typed before the symmetry check, which would warn on inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for matrix in ([["a"]], [[1j]], [[math.inf, 1.0], [1.0, 1.0]], [[math.nan]], [[1.0, -math.inf], [-math.inf, 1.0]]):
            with pytest.raises(InvalidParameter):
                eigenvalues_symmetric(matrix)


def test_bool_among_numbers_is_refused():
    # numpy would read True as 1.0 beside floats, and as 1 beside ints; ragged
    # rows and an object that is no number are refused with the same message
    for matrix in (
        [[True]], [[True, 0.0], [0.0, 1.0]], [[1, False], [False, 1]], np.array([[True, 0.0]], dtype=object),
        [[1.0, 0.0], [0.0]], [[object(), 0.0], [0.0, 1.0]],
    ):
        with pytest.raises(InvalidParameter) as info:
            eigenvalues_symmetric(matrix)
        assert str(info.value) == "matrix entries must be real numbers"


def _random_symmetric(rng, count, n):
    raw = rng.normal(size=(count, n, n))
    return (raw + raw.transpose(0, 2, 1)) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 17, 24, 39, 40])
def test_batched_solver_matches_lapack(n):
    stack = _random_symmetric(np.random.default_rng(n), 6, n)
    got = _jacobi_eigenvalues(stack)
    want = np.linalg.eigvalsh(stack)
    for row, expected, matrix in zip(got, want, stack):
        assert np.max(np.abs(row - expected)) <= 1e-8 * np.linalg.norm(matrix)


def test_batched_rows_equal_solo_solves():
    # matrices that converge at once or need no rotation share a stack with
    # ones that need many sweeps; each row is that matrix's own spectrum
    rng = np.random.default_rng(8)
    huge_theta = np.zeros((6, 6))
    huge_theta[:3, :3] = [[1.0, 1e-170, 1.0], [1e-170, 2.0, 0.0], [1.0, 0.0, 3.0]]
    huge_theta[3:, 3:] = _random_symmetric(rng, 1, 3)[0]
    subnormal = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    subnormal[0, 1] = subnormal[1, 0] = 1e-320  # theta = (a_qq - a_pp) / (2 a_pq) overflows
    subnormal[2, 5] = subnormal[5, 2] = 1.0
    stack = np.stack([
        np.diag([3.0, -1.0, 2.0, 2.0, 0.0, 7.0]),
        np.zeros((6, 6)),
        huge_theta,
        subnormal,
        laplacian(complete(6)),
        *_random_symmetric(rng, 4, 6),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _jacobi_eigenvalues(stack)
        for row, matrix in zip(got, stack):
            alone = _jacobi_eigenvalues(matrix[None])[0]
            assert np.max(np.abs(row - alone)) <= 1e-12 * max(np.linalg.norm(matrix), 1.0)
            assert np.max(np.abs(row - np.linalg.eigvalsh(matrix))) <= 1e-12 * max(np.linalg.norm(matrix), 1.0)
    assert np.array_equal(got[0], [-1.0, 0.0, 2.0, 2.0, 3.0, 7.0])
    assert np.array_equal(got[1], np.zeros(6))


def test_no_convergence_within_the_sweep_budget(monkeypatch):
    monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
    matrix = _random_symmetric(np.random.default_rng(4), 1, 8)[0]
    with pytest.raises(NoConvergence):
        eigenvalues_symmetric(matrix)
    # one matrix left over fails the whole stack, even beside one that converged
    with pytest.raises(NoConvergence):
        _jacobi_eigenvalues(np.stack([np.eye(8), matrix]))
    monkeypatch.undo()
    assert eigenvalues_symmetric(matrix).eigenvalues.shape == (8,)


@pytest.mark.parametrize(
    "family, build, n", [("complete", complete, 4), ("complete", complete, 5), ("complete-minus-cycle", complete_minus_cycle, 5)]
)
def test_spectrum_check_matches_per_subgraph_loop(capsys, family, build, n):
    graph = build(n)
    threshold = zero_threshold(n)
    mismatches = 0
    for mask in range(1 << graph.m):
        sub = SampledGraph(graph, frozenset(e for i, e in enumerate(graph.edges) if mask >> i & 1))
        if (algebraic_connectivity(sub) > threshold) != is_connected(sub):
            mismatches += 1
    assert main(["spectrum-check", f"--{family}", str(n), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "spectrum-check",
        "family": family,
        "n": n,
        "subgraphs": 1 << graph.m,
        "mismatches": mismatches,
        "threshold": threshold,
        "ok": mismatches == 0,
    }


def test_large_matrix_converges():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(30, 30))
    sym = (raw + raw.T) / 2.0
    got = eigenvalues_symmetric(sym).eigenvalues
    assert np.max(np.abs(got - np.linalg.eigvalsh(sym))) < 1e-7


def test_algebraic_connectivity_values():
    assert algebraic_connectivity(complete(3)) == pytest.approx(3.0, abs=1e-10)
    g = complete(4)
    disconnected = SampledGraph(g, frozenset({(0, 1)}))
    assert abs(algebraic_connectivity(disconnected)) < zero_threshold(4)


def test_algebraic_connectivity_needs_two_vertices():
    with pytest.raises(InvalidParameter):
        algebraic_connectivity(complete(1))


def test_zero_threshold_scales_with_n():
    assert zero_threshold(10) == pytest.approx(1e-7)
    assert zero_threshold(3) == pytest.approx(3e-8)


def test_sample_ell_triangle_is_constant():
    # K3 spectrum is (0, 3, 3); any nontrivial index gives 3
    rng = np.random.default_rng(0)
    sg = complete(3).all_present()
    for _ in range(20):
        assert sample_ell(sg, rng) == pytest.approx(3.0, abs=1e-10)


def test_sample_ell_hits_every_nontrivial_index():
    # path on 4 vertices has distinct nontrivial eigenvalues
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    rng = np.random.default_rng(1)
    seen = {round(sample_ell(g.all_present(), rng), 6) for _ in range(300)}
    assert len(seen) == 3


def test_ell_first_order_statistic_shared_graph():
    rng = np.random.default_rng(4)
    vals = [sample_ell_first_order_statistic(complete(4), 0.7, 5, rng) for _ in range(50)]
    assert all(v >= -1e-12 for v in vals)
    # same seed reproduces the run
    rng2 = np.random.default_rng(4)
    vals2 = [sample_ell_first_order_statistic(complete(4), 0.7, 5, rng2) for _ in range(50)]
    assert vals == vals2


def test_ell_first_order_statistic_independent_graphs():
    rng = np.random.default_rng(9)
    v = sample_ell_first_order_statistic(complete(4), 0.7, 3, rng, independent_graphs=True)
    assert v >= -1e-12


def test_ell_first_order_statistic_n_one_is_plain_draw():
    rng1 = np.random.default_rng(12)
    rng2 = np.random.default_rng(12)
    a = sample_ell_first_order_statistic(complete(5), 0.6, 1, rng1)
    b = sample_ell(sample_graph(complete(5), 0.6, rng2), rng2)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "parent",
    [complete(3), complete(6), complete_minus_cycle(7), from_edge_list(9, [(i, i + 1) for i in range(8)] + [(0, 5), (2, 7)])],
    ids=["K3", "K6", "K7-C7", "path9+2"],
)
def test_independent_graphs_equal_one_sample_ell_per_draw(parent):
    # one stacked solve gives the minimum of N separate sample_ell calls on the same stream; the
    # default reading gives that of one sample_graph and one draw of N indices.  Both leave the
    # stream where their reference leaves it.
    for seed in range(6):
        for N, p in [(1, 0.5), (2, 0.3), (5, 0.9), (13, 0.1)]:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_ell_first_order_statistic(parent, p, N, rng, independent_graphs=True)
            want = min(sample_ell(sample_graph(parent, p, ref), ref) for _ in range(N))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (seed, N, p)
            assert rng.random() == ref.random()

            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_ell_first_order_statistic(parent, p, N, rng)
            w = eigenvalues_symmetric(laplacian(sample_graph(parent, p, ref))).eigenvalues
            want = float(w[ref.integers(1, parent.n, size=N)].min())
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (seed, N, p)
            assert rng.random() == ref.random()


def test_independent_graphs_span_several_stacks(monkeypatch):
    # two K5 Laplacians per stack, so 7 draws take four solves
    monkeypatch.setattr(graphs, "_GROUP_CELLS", 50)
    parent = complete_minus_cycle(5)
    for seed in range(4):
        got = sample_ell_first_order_statistic(parent, 0.7, 7, np.random.default_rng(seed), independent_graphs=True)
        rng = np.random.default_rng(seed)
        assert got == min(sample_ell(sample_graph(parent, 0.7, rng), rng) for _ in range(7))
