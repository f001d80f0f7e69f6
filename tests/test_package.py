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


# Every private name a module imports from a sibling: the package's whole
# internal boundary, so that a new leak across modules edits this table.
# errors holds the argument checks that every module shares; graphs the
# kernel and Laplacian builders; montecarlo the sampling the spectral
# sampler reuses; bounds the union cell and horizon search that the CLI
# renders, which take the exact complement that p alone cannot carry; and
# spectral the spectrum check behind the CLI's spectrum-check.
PRIVATE_IMPORTS = {
    "bounds": {"errors": {"_check_count", "_check_fraction"}, "graphs": {"_check_graph"}},
    "cli": {
        "bounds": {"_union_cell", "_union_search"},
        "errors": {"_check_count", "_check_fraction"},
        "spectral": {"_spectrum_mismatches"},
    },
    "graphs": {"errors": {"_check_count"}},
    "montecarlo": {
        "errors": {"_check_count", "_check_fraction", "_check_rng"},
        "graphs": {"_check_graph", "_connected_rows", "_edge_arrays", "_group_rows", "_KernelTables", "_laplacian_stack"},
    },
    "spectral": {
        "errors": {"_check_count", "_check_fraction", "_check_rng"},
        "graphs": {
            "_check_graph", "_connected_rows", "_edge_arrays", "_group_rows", "_KernelTables", "_laplacian_stack",
            "_subset_rows", "_vertices_and_edges",
        },
        "montecarlo": {"_index_minima", "_presence_groups"},
    },
}


def _sibling_imports(module: str) -> dict[str, set[str]]:
    """The names a package module imports from each sibling module, by the sibling's name."""
    tree = ast.parse(Path(conngraph.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # siblings are imported relatively, never by the package's name
            assert node.module.split(".")[0] != "conngraph", module
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "conngraph" for alias in node.names), module
    return imported


def test_modules_import_exactly_the_private_names_in_the_table():
    for path in sorted(Path(conngraph.__file__).parent.glob("*.py")):
        module = path.stem
        private = {
            sibling: found
            for sibling, names in _sibling_imports(module).items()
            if sibling and (found := {name for name in names if name.startswith("_") and not name.startswith("__")})
        }
        assert private == PRIVATE_IMPORTS.get(module, {}), module


def test_cli_imports_only_public_names_from_bounds_montecarlo_and_spectral():
    # the CLI renders what the library computes; past each module's __all__
    # it may import only that module's row of PRIVATE_IMPORTS
    imported = _sibling_imports("cli")
    for module in ("bounds", "montecarlo", "spectral"):
        allowed = set(getattr(conngraph, module).__all__) | PRIVATE_IMPORTS["cli"].get(module, set())
        names = imported.get(module, set())
        assert names and names <= allowed, (module, sorted(names - allowed))


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
