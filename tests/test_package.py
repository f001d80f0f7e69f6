import ast
import pickle
import re
import runpy
from pathlib import Path

import pytest

import conngraph

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = Path(__file__).resolve().parents[1] / "README.md"

# The package exports each module's __all__; this is the whole public API.
PUBLIC_NAMES = [
    "BoundResult", "ConnGraphError", "CoupledCheck", "DEFAULT_CONFIDENCE",
    "DEFAULT_ENUMERATION_CAP", "DEFAULT_N_CAP", "DEFAULT_T_MAX", "DisconnectedTemplate",
    "EllMoments", "EmpiricalEstimate", "EmptyUnion", "ExactProbability", "InvalidEdge",
    "InvalidParameter", "Lambda2Moments", "MismatchedParents", "ModelParams",
    "NoConvergence", "NotSymmetric", "SampledGraph", "Spectrum", "TStarNotFound", "TStarResult",
    "TooManyEdges", "UnderlyingGraph", "__version__", "algebraic_connectivity", "complete",
    "complete_minus_cycle", "complete_minus_cycle_stats", "complete_stats", "connectivity_bound",
    "connectivity_bound_at_N", "connectivity_bound_complete", "connectivity_bound_from_stats",
    "coupled_monotonicity_check", "eigenvalues_symmetric", "ell_first_order_lower", "ell_mean",
    "ell_variance", "empirical_connectivity", "empirical_ell_min_mean", "empirical_ell_moments",
    "empirical_lambda2_moments", "exact_connectivity", "from_edge_list", "is_connected",
    "lambda2_mean_lower", "lambda2_sq_mean_upper", "laplacian", "n_search_max", "r_factor",
    "read_edge_list", "s_value", "sample_ell", "sample_ell_first_order_statistic", "sample_graph",
    "sample_union", "sum_degree_squares", "t_star", "t_star_complete", "t_star_from_stats", "union",
    "union_edge_probability", "wilson_interval", "zero_threshold",
]


def test_public_api_snapshot():
    assert sorted(conngraph.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(conngraph, name) is not None
    namespace = {}
    exec("from conngraph import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_cli_imports_only_public_names_from_bounds_montecarlo_and_spectral():
    # the CLI renders what the library computes; its private imports are the
    # bound cores that take the exact complement q_hat, the horizon search
    # that tstar runs over an exact probability for n <= 2, and the spectrum check
    tree = ast.parse(Path(conngraph.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    allowed = {
        "bounds": set(conngraph.bounds.__all__)
        | {"_complete_bound_result", "_general_bound_result", "_union_probabilities", "_check_search", "_t_star_scan"},
        "montecarlo": set(conngraph.montecarlo.__all__),
        "spectral": set(conngraph.spectral.__all__) | {"_spectrum_mismatches"},
    }
    imported = {name: set() for name in allowed}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module if node.level else (node.module or "").removeprefix("conngraph.")
            if module in allowed:
                imported[module] |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not {alias.name for alias in node.names} & {f"conngraph.{module}" for module in allowed}
    for module, names in imported.items():
        assert names and names <= allowed[module], (module, sorted(names - allowed[module]))


def test_every_error_round_trips_through_pickle():
    # a worker process hands its exception back pickled, attributes and all
    for name in conngraph.errors.__all__:
        kind = getattr(conngraph, name)
        if kind is conngraph.TStarNotFound:
            with pytest.raises(kind) as info:
                conngraph.t_star_complete(50, 0.01, 1e-9, t_max=5)
            exc = info.value
        else:
            exc = kind(f"{name} message")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is kind
        assert str(copy) == str(exc)
        assert vars(copy) == vars(exc), name


@pytest.mark.parametrize(
    "demo", ["bound_vs_truth.py", "desk_scale_sweep.py", "eigensolver_checks.py", "union_horizon.py"]
)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 3


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
