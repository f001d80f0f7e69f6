"""Command-line interface: bounds, horizon search, simulation, enumeration, sweeps.

Subcommands
    bound           closed-form connectivity lower bound for one template
    tstar           smallest union horizon reaching a bound target
    simulate        Monte Carlo estimate next to the bound, with a verdict
    exact           exhaustive enumeration of the connectivity probability
    sweep           bound (and optionally MC) grids over n and p, CSV or JSON
    spectrum-check  eigensolver-vs-enumeration cross-validation

Exit codes: 0 ok, 2 usage, 3 disconnected template, 4 horizon target not
reached, 5 enumeration cap exceeded.  Defaults for trials, confidence,
t_max, and N_cap can be overridden by CONNGRAPH_TRIALS, CONNGRAPH_CONFIDENCE,
CONNGRAPH_T_MAX, and CONNGRAPH_N_CAP.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .bounds import (
    DEFAULT_N_CAP,
    DEFAULT_T_MAX,
    BoundResult,
    t_star_complete,
    t_star_from_stats,
)
from .bounds import _complete_bound_result, _general_bound_result  # internal cores
from .errors import (
    ConnGraphError,
    DisconnectedTemplate,
    InvalidParameter,
    TooManyEdges,
    TStarNotFound,
)
from .graphs import (
    UnderlyingGraph,
    SampledGraph,
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    is_connected,
    read_edge_list,
    sum_degree_squares,
)
from .montecarlo import (
    DEFAULT_CONFIDENCE,
    empirical_connectivity,
    empirical_lambda2_moments,
    exact_connectivity,
)
from .spectral import algebraic_connectivity, zero_threshold

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_TSTAR_NOT_FOUND = 4
EXIT_ENUMERATION_CAP = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

CSV_COLUMNS = ("family", "n", "p", "T", "p_hat", "bound", "n_star", "estimate", "ci_low", "ci_high")

DEFAULT_TRIALS = 10_000
# sweep MC columns are skipped above this; bound columns have no size limit
MC_SWEEP_N_CAP = 1000
# spectrum-check walks 2^m subgraphs through the dense eigensolver
SPECTRUM_CHECK_EDGE_CAP = 15


class _UsageError(Exception):
    pass


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get("CONNGRAPH_" + name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"CONNGRAPH_{name} must be an integer, got {raw!r}")


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get("CONNGRAPH_" + name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"CONNGRAPH_{name} must be a number, got {raw!r}")


def _csv_ints(text: str) -> list[int]:
    try:
        values = [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
    return values


def _csv_floats(text: str) -> list[float]:
    try:
        values = [float(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
    return values


def _check_open_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidParameter(f"p must lie strictly inside (0, 1), got {p}")
    return p


def _check_positive(value: int, name: str) -> int:
    if value < 1:
        raise InvalidParameter(f"{name} must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# template resolution


@dataclass
class _TemplateSpec:
    family: str
    n: int
    m: int
    deg_sq: int
    graph: UnderlyingGraph | None


def _family_stats(family: str, n: int) -> tuple[int, int]:
    if family == "complete":
        return complete_stats(n)
    return complete_minus_cycle_stats(n)


def _family_graph(family: str, n: int) -> UnderlyingGraph:
    if family == "complete":
        return complete(n)
    return complete_minus_cycle(n)


def _resolve_template(args, need_graph: bool) -> _TemplateSpec:
    if getattr(args, "edge_list", None):
        g = read_edge_list(args.edge_list)
        return _TemplateSpec("edge-list", g.n, g.m, sum_degree_squares(g), g)
    if getattr(args, "complete", None) is not None:
        family, n = "complete", args.complete
    elif getattr(args, "complete_minus_cycle", None) is not None:
        family, n = "complete-minus-cycle", args.complete_minus_cycle
    else:
        family, n = "complete", 5  # spectrum-check default template
    m, deg_sq = _family_stats(family, n)
    graph = _family_graph(family, n) if need_graph else None
    return _TemplateSpec(family, n, m, deg_sq, graph)


def _effective_pair(p: float, T: int | None) -> tuple[float, float, float | None]:
    """Collapsed (p_eff, complement, p_hat column value) for an optional horizon.

    The complement is carried as exp(T log(1-p)) so huge horizons stay exact
    even after p_hat itself rounds to 1.0.
    """
    if T is None:
        return p, 1.0 - p, None
    log_q = math.log1p(-p)
    p_hat = -math.expm1(T * log_q)
    return p_hat, math.exp(T * log_q), p_hat


def _bound_for(tpl: _TemplateSpec, pe: float, qe: float, n_cap: int) -> BoundResult:
    if tpl.family == "complete":
        return _complete_bound_result(tpl.n, pe, qe, n_cap)
    return _general_bound_result(tpl.n, tpl.m, tpl.deg_sq, pe, qe, n_cap)


def _tiny_exact(n: int, pe: float) -> float:
    # one vertex is always connected; two vertices need their single edge
    return 1.0 if n == 1 else pe


# ---------------------------------------------------------------------------
# output plumbing


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv_rows(target, rows: list[dict]) -> None:
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(col)) for col in CSV_COLUMNS])


def _emit_csv(path: str, rows: list[dict]) -> None:
    if path == "-":
        _write_csv_rows(sys.stdout, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv_rows(handle, rows)


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _print_kv(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        if isinstance(value, float):
            value = "%.12g" % value
        print(f"{key:<{width}}  {value}")


def _stdout_mode(args) -> str:
    # --csv - claims stdout for the dataset, so the report is suppressed
    if getattr(args, "csv", None) == "-":
        if getattr(args, "json", False):
            raise InvalidParameter("--json cannot be combined with --csv -")
        return "csv-stdout"
    return "json" if getattr(args, "json", False) else "text"


# ---------------------------------------------------------------------------
# subcommands


def cmd_bound(args) -> int:
    tpl = _resolve_template(args, need_graph=False)
    p = _check_open_p(args.p)
    if args.T is not None:
        _check_positive(args.T, "T")
    mode = _stdout_mode(args)
    pe, qe, p_hat = _effective_pair(p, args.T)

    row = {"family": tpl.family, "n": tpl.n, "p": p, "T": args.T, "p_hat": p_hat}
    if tpl.n <= 2:
        value = _tiny_exact(tpl.n, pe)
        row.update({"bound": value, "n_star": None})
        payload = {
            "command": "bound",
            "family": tpl.family,
            "n": tpl.n,
            "p": p,
            "T": args.T,
            "p_hat": p_hat,
            "exact": True,
            "bound": value,
        }
        text = [("template", f"{tpl.family} n={tpl.n}"), ("p", p)]
        if args.T is not None:
            text += [("T", args.T), ("p_hat", pe)]
        text += [("probability", value), ("note", "exact (closed form for n <= 2)")]
    else:
        res = _bound_for(tpl, pe, qe, args.n_cap)
        row.update({"bound": res.probability_lower_bound, "n_star": res.maximizing_n})
        payload = {
            "command": "bound",
            "family": tpl.family,
            "n": tpl.n,
            "p": p,
            "T": args.T,
            "p_hat": p_hat,
            "exact": False,
            "bound": res.probability_lower_bound,
            "n_star": res.maximizing_n,
            "n_search_max": res.n_search_max,
            "mu": res.mu,
            "sigma_squared": res.sigma_squared,
            "s_value": res.s_value,
            "numerator": res.numerator,
            "denominator": res.denominator,
            "n_cap": args.n_cap,
        }
        text = [("template", f"{tpl.family} n={tpl.n}"), ("p", p)]
        if args.T is not None:
            text += [("T", args.T), ("p_hat", pe)]
        text += [
            ("bound", res.probability_lower_bound),
            ("maximizing N", res.maximizing_n),
            ("N range", f"2..{res.n_search_max}"),
            ("mu", res.mu),
            ("sigma^2", res.sigma_squared),
            ("S", res.s_value),
        ]

    if args.csv and args.csv != "-":
        _emit_csv(args.csv, [row])
    if mode == "csv-stdout":
        _emit_csv("-", [row])
    elif mode == "json":
        _emit_json(payload)
    else:
        _print_kv(text)
    return EXIT_OK


def _trace_rows(tpl: _TemplateSpec, p: float, trace) -> list[dict]:
    rows = []
    for T, value in trace:
        _, _, p_hat = _effective_pair(p, T)
        rows.append(
            {"family": tpl.family, "n": tpl.n, "p": p, "T": T, "p_hat": p_hat, "bound": value}
        )
    return rows


def cmd_tstar(args) -> int:
    tpl = _resolve_template(args, need_graph=False)
    p = _check_open_p(args.p)
    mode = _stdout_mode(args)
    if tpl.n <= 2:
        raise InvalidParameter("horizon search needs a template with n >= 3")
    try:
        if tpl.family == "complete":
            res = t_star_complete(tpl.n, p, args.epsilon, args.t_max, args.n_cap)
        else:
            res = t_star_from_stats(
                tpl.n, tpl.m, tpl.deg_sq, p, args.epsilon, args.t_max, args.n_cap
            )
    except TStarNotFound as exc:
        # still emit the full scan trace; the search itself is complete
        if args.csv:
            _emit_csv(args.csv, _trace_rows(tpl, p, exc.trace))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TSTAR_NOT_FOUND

    if args.csv and args.csv != "-":
        _emit_csv(args.csv, _trace_rows(tpl, p, res.trace))
    if mode == "csv-stdout":
        _emit_csv("-", _trace_rows(tpl, p, res.trace))
    elif mode == "json":
        _emit_json(
            {
                "command": "tstar",
                "family": tpl.family,
                "n": tpl.n,
                "p": p,
                "epsilon": res.epsilon,
                "t_max": args.t_max,
                "t_star": res.t_star,
                "bound_at_t_star": res.bound_at_t_star,
                "trace_length": len(res.trace),
            }
        )
    else:
        _print_kv(
            [
                ("template", f"{tpl.family} n={tpl.n}"),
                ("p", p),
                ("epsilon", res.epsilon),
                ("T*", res.t_star),
                ("bound at T*", res.bound_at_t_star),
            ]
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    tpl = _resolve_template(args, need_graph=True)
    p = _check_open_p(args.p)
    _check_positive(args.trials, "trials")
    if args.T is not None:
        _check_positive(args.T, "T")
    mode = _stdout_mode(args)
    pe, qe, p_hat = _effective_pair(p, args.T)

    est = empirical_connectivity(
        tpl.graph, p, T=args.T or 1, trials=args.trials, seed=args.seed, confidence=args.confidence
    )
    if tpl.n <= 2:
        bound_value, n_star, exact_bound = _tiny_exact(tpl.n, pe), None, True
    else:
        res = _bound_for(tpl, pe, qe, args.n_cap)
        bound_value, n_star, exact_bound = res.probability_lower_bound, res.maximizing_n, False

    half_width = (est.ci_high - est.ci_low) / 2.0
    allowance = est.point + 4.0 * half_width
    sound = bound_value <= allowance

    lam = None
    if args.lambda2_moments:
        lam = empirical_lambda2_moments(tpl.graph, pe, trials=args.trials, seed=args.seed)

    row = {
        "family": tpl.family,
        "n": tpl.n,
        "p": p,
        "T": args.T,
        "p_hat": p_hat,
        "bound": bound_value,
        "n_star": n_star,
        "estimate": est.point,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
    }
    if args.csv and args.csv != "-":
        _emit_csv(args.csv, [row])
    if mode == "csv-stdout":
        _emit_csv("-", [row])
        return EXIT_OK

    if mode == "json":
        payload = {
            "command": "simulate",
            "family": tpl.family,
            "n": tpl.n,
            "p": p,
            "T": args.T,
            "p_hat": p_hat,
            "trials": est.trials,
            "seed": args.seed,
            "confidence": est.confidence,
            "successes": est.successes,
            "estimate": est.point,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "bound": bound_value,
            "exact_bound": exact_bound,
            "allowance": allowance,
            "sound": sound,
        }
        if lam is not None:
            payload["lambda2"] = {
                "mean": lam.mean,
                "mean_sq": lam.mean_sq,
                "se_mean": lam.se_mean,
                "se_mean_sq": lam.se_mean_sq,
                "trials": lam.trials,
            }
        _emit_json(payload)
    else:
        verdict = "SOUND" if sound else "UNSOUND"
        text = [
            ("template", f"{tpl.family} n={tpl.n}"),
            ("p", p),
        ]
        if args.T is not None:
            text += [("T", args.T), ("p_hat", pe)]
        text += [
            ("trials", est.trials),
            ("seed", args.seed),
            ("estimate", est.point),
            (f"{int(round(est.confidence * 100))}% CI", f"{est.ci_low:.12g} .. {est.ci_high:.12g}"),
            ("bound", bound_value),
            ("verdict", f"{verdict} (bound <= estimate + 4 half-widths)"),
        ]
        if lam is not None:
            text += [
                ("lambda2 mean", lam.mean),
                ("lambda2 mean sq", lam.mean_sq),
            ]
        _print_kv(text)
    return EXIT_OK


def cmd_exact(args) -> int:
    tpl = _resolve_template(args, need_graph=True)
    p = _check_open_p(args.p)
    if args.T is not None:
        _check_positive(args.T, "T")
    mode = _stdout_mode(args)
    pe, _, p_hat = _effective_pair(p, args.T)

    result = exact_connectivity(tpl.graph, pe)
    total = 1 << tpl.m

    row = {
        "family": tpl.family,
        "n": tpl.n,
        "p": p,
        "T": args.T,
        "p_hat": p_hat,
        "estimate": result.value,
    }
    if args.csv and args.csv != "-":
        _emit_csv(args.csv, [row])
    if mode == "csv-stdout":
        _emit_csv("-", [row])
    elif mode == "json":
        _emit_json(
            {
                "command": "exact",
                "family": tpl.family,
                "n": tpl.n,
                "p": p,
                "T": args.T,
                "p_hat": p_hat,
                "probability": result.value,
                "connected_subsets": result.terms,
                "total_subsets": total,
            }
        )
    else:
        text = [("template", f"{tpl.family} n={tpl.n}"), ("p", p)]
        if args.T is not None:
            text += [("T", args.T), ("p_hat", pe)]
        text += [
            ("probability", result.value),
            ("connected", f"{result.terms} of {total} edge subsets"),
        ]
        _print_kv(text)
    return EXIT_OK


def _monotonicity_notes(rows: list[dict]) -> list[str]:
    """Flag bound decreases along increasing p within each (family, n) group."""
    notes = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("bound") is None:
            continue
        groups.setdefault((row["family"], row["n"]), []).append(row)
    for (family, n), cells in groups.items():
        cells = sorted(cells, key=lambda r: r["p"])
        for prev, cur in zip(cells, cells[1:]):
            if prev["bound"] > cur["bound"] + 1e-12 * max(1.0, prev["bound"]):
                notes.append(
                    f"NOTE: bound not monotone for {family} n={n}: "
                    f"bound(p={prev['p']:.12g})={prev['bound']:.12g} > "
                    f"bound(p={cur['p']:.12g})={cur['bound']:.12g}"
                )
    return notes


def cmd_sweep(args) -> int:
    p_values = args.p_values
    for p in p_values:
        _check_open_p(p)
    if args.T is not None:
        _check_positive(args.T, "T")
    _check_positive(args.trials, "trials")
    mode = _stdout_mode(args)

    if args.edge_list:
        if args.n_values is not None:
            raise InvalidParameter("--n-values cannot be combined with --edge-list")
        graph = read_edge_list(args.edge_list)
        cells = [("edge-list", graph.n, graph.m, sum_degree_squares(graph), graph)]
    else:
        if args.n_values is None:
            raise InvalidParameter("--n-values is required with --family")
        cells = []
        for n in args.n_values:
            m, deg_sq = _family_stats(args.family, n)
            graph = None
            if args.simulate and n <= MC_SWEEP_N_CAP:
                graph = _family_graph(args.family, n)
            cells.append((args.family, n, m, deg_sq, graph))

    rows = []
    for family, n, m, deg_sq, graph in cells:
        tpl = _TemplateSpec(family, n, m, deg_sq, graph)
        for p in p_values:
            pe, qe, p_hat = _effective_pair(p, args.T)
            if n <= 2:
                bound_value, n_star = _tiny_exact(n, pe), None
            else:
                res = _bound_for(tpl, pe, qe, args.n_cap)
                bound_value, n_star = res.probability_lower_bound, res.maximizing_n
            row = {
                "family": family,
                "n": n,
                "p": p,
                "T": args.T,
                "p_hat": p_hat,
                "bound": bound_value,
                "n_star": n_star,
            }
            if args.simulate and graph is not None:
                est = empirical_connectivity(
                    graph,
                    p,
                    T=args.T or 1,
                    trials=args.trials,
                    seed=args.seed,
                    confidence=args.confidence,
                )
                row.update({"estimate": est.point, "ci_low": est.ci_low, "ci_high": est.ci_high})
            rows.append(row)

    notes = _monotonicity_notes(rows)
    if mode == "json":
        json_rows = [{col: row.get(col) for col in CSV_COLUMNS} for row in rows]
        _emit_json({"command": "sweep", "rows": json_rows, "monotonicity_notes": notes})
    else:
        if args.csv:
            _emit_csv(args.csv, rows)
        else:
            _emit_csv("-", rows)
        for note in notes:
            print(note, file=sys.stderr)
    return EXIT_OK


def cmd_spectrum_check(args) -> int:
    tpl = _resolve_template(args, need_graph=True)
    graph = tpl.graph
    if graph.n < 2:
        raise InvalidParameter("spectrum check needs at least 2 vertices")
    if graph.m > SPECTRUM_CHECK_EDGE_CAP:
        raise TooManyEdges(
            f"spectrum check enumerates 2^m subgraphs; m={graph.m} exceeds cap "
            f"{SPECTRUM_CHECK_EDGE_CAP}"
        )
    threshold = zero_threshold(graph.n)
    total = 1 << graph.m
    mismatches = 0
    for mask in range(total):
        present = frozenset(e for i, e in enumerate(graph.edges) if mask >> i & 1)
        sub = SampledGraph(graph, present)
        spectral_connected = algebraic_connectivity(sub) > threshold
        if spectral_connected != is_connected(sub):
            mismatches += 1
    ok = mismatches == 0
    if getattr(args, "json", False):
        _emit_json(
            {
                "command": "spectrum-check",
                "family": tpl.family,
                "n": graph.n,
                "subgraphs": total,
                "mismatches": mismatches,
                "threshold": threshold,
                "ok": ok,
            }
        )
    else:
        verdict = "OK" if ok else "MISMATCH"
        print(
            f"checked {total} subgraphs of {tpl.family} n={graph.n}: "
            f"{verdict} ({mismatches} mismatches, threshold {threshold:.3g})"
        )
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_template_group(sub, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--complete", type=int, metavar="N", help="complete template on N vertices")
    group.add_argument(
        "--complete-minus-cycle",
        type=int,
        metavar="N",
        dest="complete_minus_cycle",
        help="complete template minus a Hamiltonian cycle (N >= 5)",
    )
    group.add_argument("--edge-list", metavar="PATH", dest="edge_list", help="template from an edge-list file")


def _add_output_flags(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--csv", metavar="PATH", help="also write CSV rows ('-' for stdout)")


def _build_parser(trials_default: int, confidence_default: float, t_max_default: int, n_cap_default: int):
    parser = argparse.ArgumentParser(
        prog="conngraph",
        description="Connectivity bounds for randomly subsampled graphs and their unions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="closed-form connectivity lower bound")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="edge retention probability, in (0, 1)")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon; bound evaluated at p_hat(T)")
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("tstar", help="smallest union horizon reaching bound 1 - epsilon")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="per-sample edge probability, in (0, 1)")
    sp.add_argument("--epsilon", type=float, required=True, help="target gap, in (0, 1)")
    sp.add_argument("--t-max", type=int, default=t_max_default, dest="t_max", help="largest horizon scanned")
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_tstar)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate next to the bound")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="edge retention probability, in (0, 1)")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon (default: single sample)")
    sp.add_argument("--trials", type=int, default=trials_default, help="Monte Carlo trials")
    sp.add_argument("--seed", type=int, default=0, help="random seed (runs are bit-reproducible)")
    sp.add_argument("--confidence", type=float, default=confidence_default, help="CI confidence level")
    sp.add_argument(
        "--lambda2-moments",
        action="store_true",
        dest="lambda2_moments",
        help="also estimate first and second moments of the algebraic connectivity",
    )
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("exact", help="exhaustive enumeration of the connectivity probability")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="edge retention probability, in (0, 1)")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon; enumerates at p_hat(T)")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("sweep", help="bound (and optionally MC) grid over n and p")
    family = sp.add_mutually_exclusive_group(required=True)
    family.add_argument(
        "--family", choices=("complete", "complete-minus-cycle"), help="parametric template family"
    )
    family.add_argument("--edge-list", metavar="PATH", dest="edge_list", help="single template from a file")
    sp.add_argument("--n-values", type=_csv_ints, dest="n_values", metavar="LIST", help="vertex counts, e.g. 10,50,100")
    sp.add_argument("--p-values", type=_csv_floats, dest="p_values", metavar="LIST", required=True, help="probabilities, e.g. 0.8,0.9,0.99")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon applied to every cell")
    sp.add_argument("--simulate", action="store_true", help="append Monte Carlo estimate columns")
    sp.add_argument("--trials", type=int, default=trials_default, help="Monte Carlo trials per cell")
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--confidence", type=float, default=confidence_default, help="CI confidence level")
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum-check", help="eigensolver vs enumeration cross-validation")
    _add_template_group(sp, required=False)
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.set_defaults(func=cmd_spectrum_check)

    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser(
            _env_int("TRIALS", DEFAULT_TRIALS),
            _env_float("CONFIDENCE", DEFAULT_CONFIDENCE),
            _env_int("T_MAX", DEFAULT_T_MAX),
            _env_int("N_CAP", DEFAULT_N_CAP),
        )
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except DisconnectedTemplate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except TooManyEdges as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION_CAP
    except TStarNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TSTAR_NOT_FOUND
    except BrokenPipeError:
        raise
    except (ConnGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`conngraph sweep ... | head`): stop
        # quietly, with stdout on devnull so the interpreter's last flush is too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
