"""Malformed arguments at every public entry point raise a typed error.

One table row per public callable of ``conngraph`` (several for some),
with a call that succeeds and the names of its numeric, graph and model
parameters.  Each malformed value in turn replaces one of them, and the
call must raise a ConnGraphError subclass: never a bare TypeError or
ValueError, and never a result.  A completeness check keeps the table in
step with ``__all__``.
"""

import inspect
import json
import math
import tempfile
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import conngraph
from conngraph import (
    ConnGraphError,
    InvalidEdge,
    InvalidParameter,
    ModelParams,
    UnderlyingGraph,
    algebraic_connectivity,
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    connectivity_bound,
    connectivity_bound_at_N,
    connectivity_bound_complete,
    connectivity_bound_from_stats,
    coupled_monotonicity_check,
    eigenvalues_symmetric,
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
    lambda2_mean_lower,
    lambda2_sq_mean_upper,
    laplacian,
    n_search_max,
    r_factor,
    read_edge_list,
    s_value,
    sample_ell,
    sample_ell_first_order_statistic,
    sample_graph,
    sample_union,
    sum_degree_squares,
    t_star,
    t_star_complete,
    t_star_from_stats,
    union,
    union_edge_probability,
    wilson_interval,
    zero_threshold,
)
from conngraph.cli import main

MALFORMED = (None, "0.5", True, math.nan, math.inf, 2.5, -1)
# (row, parameter): the values of MALFORMED that the parameter accepts
ACCEPTED = {
    # any finite real number is a matrix entry
    ("eigenvalues_symmetric", "entry"): (2.5, -1),
}

K4 = complete(4)
PARAMS = ModelParams(K4, 0.5)


def _rng():
    return np.random.default_rng(0)


def _read_edge_list(count, endpoint):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "template.txt"
        path.write_text(f"{count}\n0 1\n1 {endpoint}\n")
        return read_edge_list(path)


# (public name, call, keyword arguments of a call that succeeds, numeric parameters)
ROWS = [
    ("UnderlyingGraph", UnderlyingGraph, dict(n=2, edges=((0, 1),), m=1, degrees=(1, 1)), ("n", "m")),
    ("from_edge_list", from_edge_list, dict(n=3, pairs=[(0, 1), (1, 2)]), ("n", "pairs")),
    (
        "from_edge_list",
        lambda edge, endpoint: from_edge_list(3, [(0, 1), edge, (0, endpoint)]),
        dict(edge=(1, 2), endpoint=2),
        ("edge", "endpoint"),
    ),
    ("read_edge_list", _read_edge_list, dict(count=3, endpoint=2), ("count", "endpoint")),
    ("complete", complete, dict(n=3), ("n",)),
    ("complete_minus_cycle", complete_minus_cycle, dict(n=5), ("n",)),
    ("complete_stats", complete_stats, dict(n=3), ("n",)),
    ("complete_minus_cycle_stats", complete_minus_cycle_stats, dict(n=5), ("n",)),
    ("ModelParams", ModelParams, dict(graph=K4, p=0.5), ("graph", "p")),
    ("r_factor", r_factor, dict(N=2, n=4), ("N", "n")),
    ("ell_mean", ell_mean, dict(params=PARAMS), ("params",)),
    ("s_value", s_value, dict(params=PARAMS), ("params",)),
    ("ell_variance", ell_variance, dict(params=PARAMS), ("params",)),
    ("lambda2_sq_mean_upper", lambda2_sq_mean_upper, dict(params=PARAMS), ("params",)),
    ("ell_first_order_lower", ell_first_order_lower, dict(params=PARAMS, N=2), ("params", "N")),
    ("lambda2_mean_lower", lambda2_mean_lower, dict(params=PARAMS, N=2), ("params", "N")),
    ("connectivity_bound_at_N", connectivity_bound_at_N, dict(params=PARAMS, N=2), ("params", "N")),
    ("n_search_max", n_search_max, dict(params=PARAMS, n_cap=10), ("params", "n_cap")),
    ("connectivity_bound", connectivity_bound, dict(params=PARAMS, n_cap=10), ("params", "n_cap")),
    (
        "connectivity_bound_from_stats",
        connectivity_bound_from_stats,
        dict(n=4, m=6, deg_sq=36, p=0.5, n_cap=10),
        ("n", "m", "deg_sq", "p", "n_cap"),
    ),
    ("connectivity_bound_complete", connectivity_bound_complete, dict(n=4, p=0.5, n_cap=10), ("n", "p", "n_cap")),
    ("union_edge_probability", union_edge_probability, dict(p=0.5, T=2), ("p", "T")),
    (
        "t_star",
        t_star,
        dict(graph=K4, p=0.5, epsilon=0.5, t_max=100, n_cap=10),
        ("graph", "p", "epsilon", "t_max", "n_cap"),
    ),
    (
        "t_star_from_stats",
        t_star_from_stats,
        dict(n=4, m=6, deg_sq=36, p=0.5, epsilon=0.5, t_max=100, n_cap=10),
        ("n", "m", "deg_sq", "p", "epsilon", "t_max", "n_cap"),
    ),
    (
        "t_star_complete",
        t_star_complete,
        dict(n=4, p=0.5, epsilon=0.5, t_max=100, n_cap=10),
        ("n", "p", "epsilon", "t_max", "n_cap"),
    ),
    ("wilson_interval", wilson_interval, dict(successes=1, trials=2, confidence=0.9), ("successes", "trials", "confidence")),
    ("sample_graph", lambda parent, p: sample_graph(parent, p, _rng()), dict(parent=K4, p=0.5), ("parent", "p")),
    (
        "sample_union",
        lambda parent, p, T: sample_union(parent, p, T, _rng()),
        dict(parent=K4, p=0.5, T=2),
        ("parent", "p", "T"),
    ),
    (
        "empirical_connectivity",
        empirical_connectivity,
        dict(parent=K4, p=0.5, T=1, trials=5, seed=0, confidence=0.9),
        ("parent", "p", "T", "trials", "seed", "confidence"),
    ),
    ("exact_connectivity", exact_connectivity, dict(parent=K4, p=0.5, cap=10), ("parent", "p", "cap")),
    (
        "empirical_lambda2_moments",
        empirical_lambda2_moments,
        dict(parent=K4, p=0.5, trials=5, seed=0),
        ("parent", "p", "trials", "seed"),
    ),
    (
        "empirical_ell_moments",
        empirical_ell_moments,
        dict(parent=K4, p=0.5, trials=5, seed=0),
        ("parent", "p", "trials", "seed"),
    ),
    (
        "empirical_ell_min_mean",
        empirical_ell_min_mean,
        dict(parent=K4, p=0.5, N=2, trials=5, seed=0),
        ("parent", "p", "N", "trials", "seed"),
    ),
    (
        "coupled_monotonicity_check",
        coupled_monotonicity_check,
        dict(parent=K4, p_low=0.2, p_high=0.8, trials=5, seed=0, confidence=0.9),
        ("parent", "p_low", "p_high", "trials", "seed", "confidence"),
    ),
    # the entry sits among numbers, which numpy would read a bool beside as 0 or 1
    (
        "eigenvalues_symmetric",
        lambda entry: eigenvalues_symmetric([[entry, 0.0], [0.0, 1.0]]),
        dict(entry=2.0),
        ("entry",),
    ),
    ("zero_threshold", zero_threshold, dict(n=4), ("n",)),
    (
        "sample_ell_first_order_statistic",
        lambda parent, p, N: sample_ell_first_order_statistic(parent, p, N, _rng()),
        dict(parent=K4, p=0.5, N=2),
        ("parent", "p", "N"),
    ),
    # graph arguments alone
    ("is_connected", is_connected, dict(g=K4), ("g",)),
    ("union", union, dict(gs=[K4.all_present()]), ("gs",)),
    ("laplacian", laplacian, dict(g=K4), ("g",)),
    ("sum_degree_squares", sum_degree_squares, dict(g=K4), ("g",)),
    ("algebraic_connectivity", algebraic_connectivity, dict(g=K4.all_present()), ("g",)),
    ("sample_ell", lambda g: sample_ell(g, _rng()), dict(g=K4.all_present()), ("g",)),
]

# Public callables with no numeric, graph or model parameter of their own, and why.
NO_NUMERIC_PARAMETER = {
    **{name: "exception type" for name in conngraph.errors.__all__},
    **{
        name: "result record, built by the package from checked values"
        for name in (
            "BoundResult", "TStarResult", "EmpiricalEstimate", "ExactProbability",
            "Lambda2Moments", "EllMoments", "CoupledCheck", "Spectrum",
        )
    },
    "SampledGraph": "a template and a set of its edges",
}


def _cases():
    for name, call, valid, numeric in ROWS:
        for param in numeric:
            for bad in MALFORMED:
                if bad in ACCEPTED.get((name, param), ()):
                    continue
                yield pytest.param(call, valid, param, bad, id=f"{name}-{param}-{bad!r}")


def test_every_public_callable_has_a_row():
    public = {name for name in conngraph.__all__ if callable(getattr(conngraph, name))}
    rows = {name for name, *_ in ROWS}
    assert not rows & set(NO_NUMERIC_PARAMETER)
    assert rows | set(NO_NUMERIC_PARAMETER) == public


@pytest.mark.parametrize("name, call, valid, numeric", ROWS, ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)])
def test_rows_name_real_parameters_and_succeed(name, call, valid, numeric):
    # the row calls the public callable itself when it can, so its names are the real ones
    if call is getattr(conngraph, name):
        assert set(numeric) <= set(inspect.signature(call).parameters)
    call(**valid)


@pytest.mark.parametrize("call, valid, param, bad", _cases())
def test_malformed_argument_raises_a_typed_error(call, valid, param, bad):
    with pytest.raises(ConnGraphError):
        call(**{**valid, param: bad})


def test_argument_messages():
    # the two formats, with the parameter's own name
    cases = [
        (lambda: union_edge_probability(0.5, True), "T must be an integer >= 1, got True"),
        (lambda: connectivity_bound_from_stats(10, 20, 100, None), "p must lie in (0, 1), got None"),
        (lambda: t_star_complete(5, 0.5, "x"), "epsilon must lie in (0, 1), got 'x'"),
        (lambda: empirical_connectivity(K4, 0.5, trials=True), "trials must be an integer >= 1, got True"),
        (lambda: wilson_interval(1, 2.5), "trials must be an integer >= 1, got 2.5"),
        (lambda: connectivity_bound_complete(5, "0.5"), "p must lie in (0, 1), got '0.5'"),
        (lambda: exact_connectivity(K4, "0.5"), "p must lie in [0, 1], got '0.5'"),
        (lambda: coupled_monotonicity_check(K4, 0.2, math.nan, 5), "p_high must lie in [0, 1], got nan"),
        (lambda: sample_union(K4, 0.5, 0, _rng()), "T must be an integer >= 1, got 0"),
        (lambda: from_edge_list(0, []), "n must be an integer >= 1, got 0"),
        (lambda: complete_minus_cycle(3), "n must be an integer >= 4, got 3"),
    ]
    for i, (call, message) in enumerate(cases):
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == message, i


def _two_fault_cases():
    # each call gets two faults at once; the first check in the estimators' order names its own
    p, n = "p must lie in [0, 1], got 2.0", "n must be an integer >= 2, got 1"
    parent = "parent must be an UnderlyingGraph, got None"
    N, trials = "N must be an integer >= 1, got 0", "trials must be an integer >= 1, got 0"
    for moments in (empirical_lambda2_moments, empirical_ell_moments):
        yield moments, (K4, 2.0, 0), {}, p
        yield moments, (None, 2.0, 0), {}, p
        yield moments, (None, 0.5, 0), {}, parent
        yield moments, (complete(1), 0.5, 0), {}, n
        yield moments, (K4, 0.5, 0, -1), {}, trials
    for reading in ({"independent_graphs": False}, {"independent_graphs": True}):
        yield empirical_ell_min_mean, (K4, 2.0, 0, 10), reading, p
        yield empirical_ell_min_mean, (None, 0.5, 0, 10), reading, parent
        yield empirical_ell_min_mean, (complete(1), 0.5, 0, 10), reading, n
        yield empirical_ell_min_mean, (K4, 0.5, 0, 0), reading, N
        yield empirical_ell_min_mean, (K4, 0.5, 2, 0, -1), reading, trials
        yield sample_ell_first_order_statistic, (None, 2.0, 0, _rng()), reading, parent
        yield sample_ell_first_order_statistic, (complete(1), 2.0, 0, _rng()), reading, n
        yield sample_ell_first_order_statistic, (K4, 2.0, 0, _rng()), reading, N
        yield sample_ell_first_order_statistic, (K4, 2.0, 2, None), reading, p


def test_order_of_argument_checks():
    for i, (call, args, reading, message) in enumerate(_two_fault_cases()):
        with pytest.raises(InvalidParameter) as info:
            call(*args, **reading)
        assert str(info.value) == message, (i, call.__name__, reading)


SAMPLERS = {
    "sample_graph": lambda rng: sample_graph(K4, 0.5, rng),
    "sample_union": lambda rng: sample_union(K4, 0.5, 2, rng),
    "sample_ell": lambda rng: sample_ell(K4.all_present(), rng),
    "sample_ell_first_order_statistic": lambda rng: sample_ell_first_order_statistic(K4, 0.5, 3, rng),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("bad", [None, 5, np.random.RandomState(0), "x"], ids=["None", "5", "RandomState", "'x'"])
def test_rng_must_be_a_generator(name, bad):
    with pytest.raises(InvalidParameter) as info:
        SAMPLERS[name](bad)
    assert str(info.value) == f"rng must be a numpy.random.Generator, got {bad!r}"


TOO_SMALL = [
    (lambda: ModelParams(complete(2), 0.5), 3, 2),
    (lambda: t_star(complete(2), 0.5, 0.1), 3, 2),
    (lambda: algebraic_connectivity(complete(1)), 2, 1),
    (lambda: sample_ell(complete(1).all_present(), _rng()), 2, 1),
    (lambda: sample_ell_first_order_statistic(complete(1), 0.5, 2, _rng()), 2, 1),
    (lambda: empirical_lambda2_moments(complete(1), 0.5, 5), 2, 1),
    (lambda: empirical_ell_moments(complete(1), 0.5, 5), 2, 1),
    (lambda: empirical_ell_min_mean(complete(1), 0.5, 2, 5), 2, 1),
]


@pytest.mark.parametrize("call, minimum, n", TOO_SMALL)
def test_too_small_templates(call, minimum, n):
    with pytest.raises(InvalidParameter) as info:
        call()
    assert str(info.value) == f"n must be an integer >= {minimum}, got {n}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum-check", "--complete", "1"], "n must be an integer >= 2, got 1"),
    ],
)
def test_cli_too_small_templates(capsys, argv, message):
    # the library's own check, with no pre-check of the command's
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


BIG = 2**1100  # past the largest float, which a count cannot be converted to
HUGE_N = 10**160

OVERSIZED = [
    (lambda: connectivity_bound_complete(HUGE_N, 0.5), "n", HUGE_N, "vertices"),
    (lambda: connectivity_bound_from_stats(HUGE_N, HUGE_N - 1, 4 * HUGE_N - 6, 0.5), "n", HUGE_N, "vertices"),
    (lambda: t_star_complete(HUGE_N, 0.5, 0.1), "n", HUGE_N, "vertices"),
    (lambda: t_star_from_stats(HUGE_N, HUGE_N - 1, 4 * HUGE_N - 6, 0.5, 0.1), "n", HUGE_N, "vertices"),
    (lambda: r_factor(2, BIG), "n", BIG, "vertices"),
    (lambda: r_factor(BIG, 4), "N", BIG, "draws"),
    (lambda: r_factor(2**53 + 1, 4), "N", 2**53 + 1, "draws"),
    (lambda: ell_first_order_lower(PARAMS, BIG), "N", BIG, "draws"),
    (lambda: lambda2_mean_lower(PARAMS, BIG), "N", BIG, "draws"),
    (lambda: connectivity_bound_at_N(PARAMS, BIG), "N", BIG, "draws"),
    (lambda: connectivity_bound_at_N(PARAMS, 2**53 + 1), "N", 2**53 + 1, "draws"),
]


@pytest.mark.parametrize("call, name, value, unit", OVERSIZED)
def test_oversized_counts(call, name, value, unit):
    # refused before a float is formed from them: past 2**53 floats skip
    # integers, and past about 1.8e308 the conversion overflows
    with pytest.raises(InvalidParameter) as info:
        call()
    assert str(info.value) == f"bounds need {name} <= 2**53 = {2**53} {unit}, got {value}"


TRIALS_PAST_2_53 = f"estimates need trials <= 2**53 = {2**53}, got {BIG}"
OVERSIZED_TRIALS = {
    "wilson_interval": lambda: wilson_interval(1, BIG),
    "empirical_connectivity": lambda: empirical_connectivity(K4, 0.5, trials=BIG, seed=-1, confidence=1.5),
    "coupled_monotonicity_check": lambda: coupled_monotonicity_check(K4, 0.1, 0.2, BIG, seed=-1, confidence=1.5),
    "empirical_lambda2_moments": lambda: empirical_lambda2_moments(K4, 0.5, BIG, seed=-1),
    "empirical_ell_moments": lambda: empirical_ell_moments(K4, 0.5, BIG, seed=-1),
    "empirical_ell_min_mean": lambda: empirical_ell_min_mean(K4, 0.5, 2, BIG, seed=-1),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_TRIALS))
def test_trials_past_2_53(name):
    # every estimate divides by its trial count as a float: refused before
    # anything is drawn, and before the seed and the confidence are checked
    with pytest.raises(InvalidParameter) as info:
        OVERSIZED_TRIALS[name]()
    assert str(info.value) == TRIALS_PAST_2_53


def test_wilson_interval_up_to_2_53_trials():
    # with no success the interval is [0, z^2 / (trials + z^2)], at 2**53 trials as at 10
    z_sq = NormalDist().inv_cdf(0.975) ** 2
    for trials in (10, 2**53):
        assert wilson_interval(0, trials) == (0.0, pytest.approx(z_sq / (trials + z_sq), rel=1e-14))
    with pytest.raises(InvalidParameter, match=r"^estimates need trials <= 2\*\*53 = 9007199254740992, got 9007199254740993$"):
        wilson_interval(0, 2**53 + 1)


NO_SIMPLE_GRAPH = [
    (lambda: connectivity_bound_from_stats(10, 10**200, 10**400, 0.5), f"statistics n=10, m={10**200} describe no simple graph: m > n(n-1)/2 = 45"),
    (lambda: connectivity_bound_from_stats(10, 46, 200, 0.5), "statistics n=10, m=46 describe no simple graph: m > n(n-1)/2 = 45"),
    (lambda: connectivity_bound_from_stats(10, 45, 811, 0.5), "statistics n=10, deg_sq=811 describe no simple graph: deg_sq > n(n-1)^2 = 810"),
    (lambda: t_star_from_stats(10, 10**200, 10**400, 0.5, 0.1), f"statistics n=10, m={10**200} describe no simple graph: m > n(n-1)/2 = 45"),
    (lambda: t_star_from_stats(4, 6, 10**400, 0.5, 0.1), f"statistics n=4, deg_sq={10**400} describe no simple graph: deg_sq > n(n-1)^2 = 36"),
]


@pytest.mark.parametrize(
    "call, message", NO_SIMPLE_GRAPH, ids=["bound-m-10**200", "bound-m-46", "bound-deg_sq-811", "tstar-m-10**200", "tstar-deg_sq-10**400"]
)
def test_statistics_of_no_simple_graph(call, message):
    # refused on the integers, before a float overflows on them; K10 itself is accepted
    with pytest.raises(InvalidParameter) as info:
        call()
    assert str(info.value) == message
    assert connectivity_bound_from_stats(10, 45, 810, 0.5) == connectivity_bound(ModelParams(complete(10), 0.5))


TOO_MANY_LAYER_DRAWS = f"a union of T={2**70} layers of m=6 edges needs T*m < 2**63 uniforms per trial"


@pytest.mark.parametrize(
    "call",
    [
        lambda: empirical_connectivity(K4, 0.5, T=2**70, trials=5),
        lambda: sample_union(K4, 0.5, 2**70, _rng()),
        lambda: empirical_connectivity(K4, 0.5, T=-(-(2**63) // 6), trials=5),  # the least T refused
    ],
    ids=["empirical_connectivity", "sample_union", "empirical_connectivity-least-T"],
)
def test_unions_past_2_63_uniforms_per_trial(call):
    # refused before anything is drawn: with no array sized by T, numpy would no longer stop them
    with pytest.raises(InvalidParameter, match=r"needs T\*m < 2\*\*63 uniforms per trial"):
        call()


def test_union_of_no_edges_draws_nothing_whatever_T():
    assert empirical_connectivity(complete(1), 0.5, T=2**70, trials=5).successes == 5


def test_cli_union_past_2_63_uniforms(capsys):
    assert main(["simulate", "--complete", "4", "--p", "0.5", "--T", str(2**70), "--trials", "5"]) == 2
    assert capsys.readouterr().err == f"error: {TOO_MANY_LAYER_DRAWS}\n"


def test_horizon_past_the_largest_float():
    # T log(1 - p) is formed without converting T to a float
    assert union_edge_probability(0.1, BIG) == 1.0
    assert union_edge_probability(0.0, BIG) == 0.0
    # p = 2**-1074, so T p = 2**-44 at T = 2**1030 and the union is not yet sure
    assert union_edge_probability(5e-324, 2**1030) == -math.expm1(-(2.0**-44))
    assert union_edge_probability(5e-324, BIG) == 1.0
    # a search whose complement underflows only past the largest float
    res = t_star_complete(5, 5e-324, 0.1, t_max=BIG)
    assert 2**1024 < res.t_star < BIG and res.bound_at_t_star >= 0.9


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["bound", "--complete", str(HUGE_N), "--p", "0.5"], 2, f"error: bounds need n <= 2**53 = {2**53} vertices, got {HUGE_N}\n"),
        (["tstar", "--complete", str(HUGE_N), "--p", "0.5", "--epsilon", "0.1"], 2, f"error: bounds need n <= 2**53 = {2**53} vertices, got {HUGE_N}\n"),
        (["bound", "--complete", "5", "--p", "0.5", "--T", str(BIG), "--json"], 0, ""),
        (["exact", "--complete", "4", "--p", "0.5", "--T", str(BIG), "--json"], 0, ""),
        (["simulate", "--complete", "4", "--p", "0.5", "--trials", str(BIG)], 2, f"error: {TRIALS_PAST_2_53}\n"),
    ],
)
def test_cli_oversized_counts(capsys, argv, code, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        assert json.loads(captured.out)["p_hat"] == 1.0


CONFIDENCE_NEAR_ONE = 0.9999999999999999  # 1 - 2**-53: (1 + c) / 2 rounds to 1.0


def test_confidence_at_the_largest_float_below_one(capsys):
    # z is minus the lower (1 - c) / 2 quantile there, about 8.2924; with no
    # success the high end is z^2 / (trials + z^2)
    high = wilson_interval(0, 5, CONFIDENCE_NEAR_ONE)[1]
    assert math.sqrt(5 * high / (1.0 - high)) == pytest.approx(8.2924, abs=1e-4)
    assert high > wilson_interval(0, 5, 1.0 - 2.0**-52)[1]
    for estimate in (
        empirical_connectivity(K4, 0.5, trials=5, confidence=CONFIDENCE_NEAR_ONE),
        coupled_monotonicity_check(K4, 0.2, 0.8, 5, confidence=CONFIDENCE_NEAR_ONE).low,
    ):
        assert estimate.confidence == CONFIDENCE_NEAR_ONE and 0.0 <= estimate.ci_low < estimate.ci_high <= 1.0
    argv = ["simulate", "--complete", "4", "--p", "0.5", "--trials", "5", "--confidence", repr(CONFIDENCE_NEAR_ONE), "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["confidence"] == CONFIDENCE_NEAR_ONE


def test_edge_errors():
    for pairs, message in [
        (None, "edges must be a collection of vertex pairs, got None"),
        ([(0, 1), (1, 2, 0)], "edge (1, 2, 0) is not a vertex pair"),
        ([(0, 1), (1, 2.0)], "edge (1, 2.0) has non-integer endpoints"),
        ([(0, 1), (1, True)], "edge (1, True) has non-integer endpoints"),
    ]:
        with pytest.raises(InvalidEdge) as info:
            from_edge_list(3, pairs)
        assert str(info.value) == message
    with pytest.raises(InvalidEdge, match="edge line must be two integers, got '1 x'"):
        _read_edge_list(3, "x")


def test_graph_and_path_arguments():
    for call, message in [
        (lambda: read_edge_list(None), "path must be a str or os.PathLike, got None"),
        (lambda: union(None), "gs must be a collection of SampledGraph realizations, got None"),
        (lambda: union([None]), "gs must hold SampledGraph realizations, got None"),
        (lambda: union([K4.all_present(), K4]), f"gs must hold SampledGraph realizations, got {K4!r}"),
        (lambda: laplacian(None), "g must be an UnderlyingGraph or a SampledGraph, got None"),
        (lambda: is_connected(None), "g must be an UnderlyingGraph or a SampledGraph, got None"),
        (lambda: is_connected("K4"), "g must be an UnderlyingGraph or a SampledGraph, got 'K4'"),
        (lambda: algebraic_connectivity(None), "g must be an UnderlyingGraph or a SampledGraph, got None"),
        (lambda: sample_ell(K4, _rng()), f"g must be a SampledGraph, got {K4!r}"),
        (lambda: sum_degree_squares(K4.all_present()), f"g must be an UnderlyingGraph, got {K4.all_present()!r}"),
        (lambda: ModelParams(None, 0.5), "graph must be an UnderlyingGraph, got None"),
        (lambda: t_star(None, 0.5, 0.1), "graph must be an UnderlyingGraph, got None"),
        (lambda: sample_graph(None, 0.5, _rng()), "parent must be an UnderlyingGraph, got None"),
        (lambda: exact_connectivity(K4.all_present(), 0.5), f"parent must be an UnderlyingGraph, got {K4.all_present()!r}"),
        (lambda: empirical_connectivity("K4", 0.5), "parent must be an UnderlyingGraph, got 'K4'"),
        (lambda: ell_mean(None), "params must be a ModelParams, got None"),
        (lambda: connectivity_bound(None), "params must be a ModelParams, got None"),
        (lambda: n_search_max("x"), "params must be a ModelParams, got 'x'"),
        (lambda: lambda2_mean_lower(K4, 2), f"params must be a ModelParams, got {K4!r}"),
    ]:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == message


# Each command with a valid argument list, and the flags that take a number.
CLI_ROWS = {
    "bound": (["--complete", "4", "--p", "0.5"], ("--complete", "--p", "--T", "--n-cap")),
    "tstar": (["--complete", "4", "--p", "0.5", "--epsilon", "0.5"], ("--complete", "--p", "--epsilon", "--t-max", "--n-cap")),
    "simulate": (
        ["--complete", "4", "--p", "0.5", "--trials", "5"],
        ("--complete", "--p", "--T", "--trials", "--seed", "--confidence", "--n-cap"),
    ),
    "exact": (["--complete", "4", "--p", "0.5"], ("--complete", "--p", "--T")),
    "sweep": (
        ["--family", "complete", "--n-values", "4", "--p-values", "0.5", "--simulate", "--trials", "5"],
        ("--n-values", "--p-values", "--T", "--trials", "--seed", "--confidence", "--n-cap"),
    ),
    "spectrum-check": (["--complete", "3"], ("--complete",)),
}
# every value here is wrong for every flag: 0.5 would be a valid probability
CLI_MALFORMED = ("None", "True", "nan", "inf", "2.5", "-1", "x")
# the flags that take a comma-separated list also reject an empty one
CLI_LIST_MALFORMED = CLI_MALFORMED + (",", "4,x")


def _set_flag(argv, flag, value):
    if flag in argv:
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        return argv
    return [*argv, flag, value]


def _cli_cases():
    for command, (argv, flags) in CLI_ROWS.items():
        for flag in flags:
            bad_values = CLI_LIST_MALFORMED if flag in ("--n-values", "--p-values") else CLI_MALFORMED
            for bad in bad_values:
                yield pytest.param([command, *_set_flag(argv, flag, bad)], id=f"{command}{flag}={bad}")


def test_cli_rows_succeed(capsys):
    for command, (argv, _) in CLI_ROWS.items():
        assert main([command, *argv]) == 0, command
        capsys.readouterr()


@pytest.mark.parametrize("argv", _cli_cases())
def test_cli_malformed_flag_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, ""), captured.err
    assert captured.err
