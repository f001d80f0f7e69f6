"""Command-line interface: bounds, horizon search, simulation, enumeration, sweeps.

Subcommands
    bound           closed-form connectivity lower bound for one template
    tstar           smallest union horizon reaching a bound target
    simulate        Monte Carlo estimate next to the bound, with a verdict
    exact           exhaustive enumeration of the connectivity probability
    sweep           bound (and optionally MC) grids over n and p, CSV or JSON
    spectrum-check  eigensolver-vs-enumeration cross-validation

Each command builds one report (JSON payload, CSV rows, text lines) from one
set of values; `main` checks the shared flags first and `_emit` writes the
report as the flags ask.

Exit codes: 0 ok, 1 spectrum-check mismatch, 2 usage, 3 disconnected
template, 4 horizon target not reached, 5 enumeration cap exceeded, 141
stdout closed by its reader.  Defaults for trials, confidence, t_max, and
N_cap can be overridden by CONNGRAPH_TRIALS, CONNGRAPH_CONFIDENCE,
CONNGRAPH_T_MAX, and CONNGRAPH_N_CAP.

`main` can be called any number of times in one process.  It reads and
checks the four variables on every call, so a changed or malformed value
takes effect on the next call; the parser itself is built once for each set
of defaults they give.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import (
    DEFAULT_N_CAP,
    DEFAULT_T_MAX,
    BoundResult,
    t_star_complete,
    t_star_from_stats,
)
# The internal cores take the exact complement q_hat = exp(T log(1-p)), which
# the public API (p only) cannot carry once p_hat rounds to 1.0.
from .bounds import _complete_bound_result, _general_bound_result, _union_probabilities
from .errors import (
    ConnGraphError,
    DisconnectedTemplate,
    InvalidParameter,
    TooManyEdges,
    TStarNotFound,
    _check_count,
    _check_fraction,
)
from .graphs import (
    UnderlyingGraph,
    _connected_rows,
    _edge_arrays,
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    read_edge_list,
    sum_degree_squares,
)
from .montecarlo import (
    DEFAULT_CONFIDENCE,
    _laplacian_stack,
    empirical_connectivity,
    empirical_lambda2_moments,
    exact_connectivity,
)
from .spectral import _STACK_CELLS, _jacobi_eigenvalues, zero_threshold

EXIT_OK = 0
EXIT_SPECTRUM_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_TSTAR_NOT_FOUND = 4
EXIT_ENUMERATION_CAP = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Errors with their own exit code, looked up in order; every other
# ConnGraphError, ValueError or OSError is a usage or input error.
_EXIT_CODES = (
    (DisconnectedTemplate, EXIT_DISCONNECTED),
    (TooManyEdges, EXIT_ENUMERATION_CAP),
    (TStarNotFound, EXIT_TSTAR_NOT_FOUND),
)

CSV_COLUMNS = ("family", "n", "p", "T", "p_hat", "bound", "n_star", "estimate", "ci_low", "ci_high")

DEFAULT_TRIALS = 10_000
# sweep MC columns are skipped above this; bound columns have no size limit
MC_SWEEP_N_CAP = 1000
# spectrum-check walks 2^m subgraphs through the dense eigensolver
SPECTRUM_CHECK_EDGE_CAP = 15


def _exit_code(exc: Exception) -> int:
    return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_USAGE)


def _env(name: str, cast, fallback, kind: str):
    raw = os.environ.get("CONNGRAPH_" + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise InvalidParameter(f"CONNGRAPH_{name} must be {kind}, got {raw!r}")


def _csv_list(cast, kind: str):
    """An argparse type: a nonempty comma-separated list of `kind`."""

    def parse(text: str) -> list:
        try:
            values = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
        return values

    return parse


def _check_flags(args) -> None:
    """Reject bad shared flags before a command reads or builds anything."""
    for p in [args.p] if "p" in args else getattr(args, "p_values", []):
        _check_fraction(p, "p")
    for name in ("T", "trials"):
        value = getattr(args, name, None)
        if value is not None:
            _check_count(value, name, 1)
    if "n_cap" in args:
        _check_count(args.n_cap, "n_cap", 2)
    # --csv - claims stdout for the dataset, so the report is suppressed
    if getattr(args, "csv", None) == "-" and args.json:
        raise InvalidParameter("--json cannot be combined with --csv -")
    if "confidence" in args:
        _check_fraction(args.confidence, "confidence")


# ---------------------------------------------------------------------------
# templates and cells


@dataclass
class _TemplateSpec:
    family: str
    n: int
    m: int
    deg_sq: int
    graph: UnderlyingGraph | None


def _family_template(family: str, n: int, need_graph: bool) -> _TemplateSpec:
    if family == "complete":
        stats, build = complete_stats, complete
    else:
        stats, build = complete_minus_cycle_stats, complete_minus_cycle
    m, deg_sq = stats(n)
    return _TemplateSpec(family, n, m, deg_sq, build(n) if need_graph else None)


def _resolve_template(args, need_graph: bool) -> _TemplateSpec:
    if getattr(args, "edge_list", None):
        g = read_edge_list(args.edge_list)
        return _TemplateSpec("edge-list", g.n, g.m, sum_degree_squares(g), g)
    if getattr(args, "complete", None) is not None:
        return _family_template("complete", args.complete, need_graph)
    if getattr(args, "complete_minus_cycle", None) is not None:
        return _family_template("complete-minus-cycle", args.complete_minus_cycle, need_graph)
    return _family_template("complete", 5, need_graph)  # spectrum-check default template


def _collapse(p: float, T: int | None) -> tuple[float, float]:
    """(p_hat, complement) of a union of T samples; T None is a single sample.

    The complement is carried as exp(T log(1-p)) so huge horizons stay exact
    even after p_hat itself rounds to 1.0.
    """
    if T is None:
        return p, 1.0 - p
    return _union_probabilities(math.log1p(-p), T)


def _row(tpl: _TemplateSpec, p: float, T: int | None, **values) -> dict:
    """A CSV row, template and horizon first; those five also head JSON payloads."""
    p_hat = None if T is None else _collapse(p, T)[0]
    return {"family": tpl.family, "n": tpl.n, "p": p, "T": T, "p_hat": p_hat, **values}


def _cell(tpl: _TemplateSpec, p: float, T: int | None, n_cap: int) -> tuple[dict, BoundResult | None]:
    """One bound cell: its CSV row and its BoundResult.

    For n <= 2 the result is None and the row holds the exact probability:
    one vertex is always connected, two vertices need their single edge.
    """
    pe, qe = _collapse(p, T)
    if tpl.n <= 2:
        return _row(tpl, p, T, bound=1.0 if tpl.n == 1 else pe, n_star=None), None
    if tpl.family == "complete":
        res = _complete_bound_result(tpl.n, pe, qe, n_cap)
    else:
        res = _general_bound_result(tpl.n, tpl.m, tpl.deg_sq, pe, qe, n_cap)
    return _row(tpl, p, T, bound=res.probability_lower_bound, n_star=res.maximizing_n), res


def _mc_columns(row: dict, graph: UnderlyingGraph, args):
    """Monte Carlo estimate at the row's p and horizon, added to the row and returned."""
    est = empirical_connectivity(
        graph, row["p"], T=args.T or 1, trials=args.trials, seed=args.seed, confidence=args.confidence
    )
    row.update({"estimate": est.point, "ci_low": est.ci_low, "ci_high": est.ci_high})
    return est


def _header(tpl: _TemplateSpec, p: float, T: int | None = None, p_hat: float | None = None) -> list[tuple]:
    """The first text lines of a report: template, p and, for a union, T and p_hat."""
    lines = [("template", f"{tpl.family} n={tpl.n}"), ("p", p)]
    if T is not None:
        lines += [("T", T), ("p_hat", p_hat)]
    return lines


# ---------------------------------------------------------------------------
# reports and their one emitter


@dataclass
class _Report:
    """One command's result, ready for `_emit` in each output form."""

    payload: dict | None  # the --json document
    rows: Iterable[dict]  # the --csv rows, read at most once
    text: list[tuple] | str | None  # label/value lines, or one line
    notes: list[str] = field(default_factory=list)  # written to stderr
    status: int = EXIT_OK


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(target, rows: Iterable[dict]) -> None:
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(col)) for col in CSV_COLUMNS])


def _emit(report: _Report, args) -> None:
    path = getattr(args, "csv", None)
    if path and path != "-":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, report.rows)
    if path == "-":
        _write_csv(sys.stdout, report.rows)
    elif args.json:
        if report.payload is not None:
            json.dump({"command": args.command, **report.payload}, sys.stdout, indent=2)
            sys.stdout.write("\n")
    elif isinstance(report.text, str):
        print(report.text)
    elif report.text:
        width = max(len(key) for key, _ in report.text)
        for key, value in report.text:
            if isinstance(value, float):
                value = "%.12g" % value
            print(f"{key:<{width}}  {value}")
    for note in report.notes:
        print(note, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bound(args) -> _Report:
    tpl = _resolve_template(args, need_graph=False)
    row, res = _cell(tpl, args.p, args.T, args.n_cap)
    payload = {
        **_row(tpl, args.p, args.T),
        "exact": res is None,
        "bound": row["bound"],
    }
    text = _header(tpl, args.p, args.T, row["p_hat"])
    if res is None:
        text += [("probability", row["bound"]), ("note", "exact (closed form for n <= 2)")]
    else:
        payload.update(
            n_star=res.maximizing_n,
            n_search_max=res.n_search_max,
            mu=res.mu,
            sigma_squared=res.sigma_squared,
            s_value=res.s_value,
            numerator=res.numerator,
            denominator=res.denominator,
            n_cap=args.n_cap,
        )
        text += [
            ("bound", res.probability_lower_bound),
            ("maximizing N", res.maximizing_n),
            ("N range", f"2..{res.n_search_max}"),
            ("mu", res.mu),
            ("sigma^2", res.sigma_squared),
            ("S", res.s_value),
        ]
    return _Report(payload, [row], text)


def _trace_rows(tpl: _TemplateSpec, p: float, trace) -> Iterable[dict]:
    # lazy: each trace pair is a bound cell evaluated when read, and most reports never write them
    return (_row(tpl, p, T, bound=value) for T, value in trace)


def cmd_tstar(args) -> _Report:
    tpl = _resolve_template(args, need_graph=False)
    try:
        if tpl.family == "complete":
            res = t_star_complete(tpl.n, args.p, args.epsilon, args.t_max, args.n_cap)
        else:
            res = t_star_from_stats(
                tpl.n, tpl.m, tpl.deg_sq, args.p, args.epsilon, args.t_max, args.n_cap
            )
    except TStarNotFound as exc:
        # still emit the trace of every horizon up to where the search stopped
        return _Report(None, _trace_rows(tpl, args.p, exc.trace), None, [f"error: {exc}"], _exit_code(exc))

    payload = {
        "family": tpl.family,
        "n": tpl.n,
        "p": args.p,
        "epsilon": res.epsilon,
        "t_max": args.t_max,
        "t_star": res.t_star,
        "bound_at_t_star": res.bound_at_t_star,
        "trace_length": res.t_star,  # the trace holds horizons 1 .. T*, however many that is
    }
    text = _header(tpl, args.p) + [
        ("epsilon", res.epsilon),
        ("T*", res.t_star),
        ("bound at T*", res.bound_at_t_star),
    ]
    return _Report(payload, _trace_rows(tpl, args.p, res.trace), text)


def cmd_simulate(args) -> _Report:
    tpl = _resolve_template(args, need_graph=True)
    row, res = _cell(tpl, args.p, args.T, args.n_cap)
    est = _mc_columns(row, tpl.graph, args)

    allowance = est.point + 4.0 * est.half_width
    sound = row["bound"] <= allowance
    payload = {
        **_row(tpl, args.p, args.T),
        "trials": est.trials,
        "seed": args.seed,
        "confidence": est.confidence,
        "successes": est.successes,
        "estimate": est.point,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "bound": row["bound"],
        "exact_bound": res is None,
        "allowance": allowance,
        "sound": sound,
    }
    verdict = "SOUND" if sound else "UNSOUND"
    text = _header(tpl, args.p, args.T, row["p_hat"]) + [
        ("trials", est.trials),
        ("seed", args.seed),
        ("estimate", est.point),
        (f"{int(round(est.confidence * 100))}% CI", f"{est.ci_low:.12g} .. {est.ci_high:.12g}"),
        ("bound", row["bound"]),
        ("verdict", f"{verdict} (bound <= estimate + 4 half-widths)"),
    ]
    # `--csv -` prints only the CSV row, which has no lambda2 columns, so the
    # moments are skipped there; below 2 vertices the call still runs, to
    # raise its typed error under every renderer
    if args.lambda2_moments and (args.csv != "-" or tpl.n < 2):
        pe, _ = _collapse(args.p, args.T)
        lam = empirical_lambda2_moments(tpl.graph, pe, trials=args.trials, seed=args.seed)
        payload["lambda2"] = {
            "mean": lam.mean,
            "mean_sq": lam.mean_sq,
            "se_mean": lam.se_mean,
            "se_mean_sq": lam.se_mean_sq,
            "trials": lam.trials,
        }
        text += [
            ("lambda2 mean", lam.mean),
            ("lambda2 mean sq", lam.mean_sq),
        ]
    return _Report(payload, [row], text)


def cmd_exact(args) -> _Report:
    tpl = _resolve_template(args, need_graph=True)
    pe, _ = _collapse(args.p, args.T)
    result = exact_connectivity(tpl.graph, pe)
    total = 1 << tpl.m

    head = _row(tpl, args.p, args.T)
    payload = {
        **head,
        "probability": result.value,
        "connected_subsets": result.terms,
        "total_subsets": total,
    }
    text = _header(tpl, args.p, args.T, head["p_hat"]) + [
        ("probability", result.value),
        ("connected", f"{result.terms} of {total} edge subsets"),
    ]
    return _Report(payload, [{**head, "estimate": result.value}], text)


def _monotonicity_notes(rows: list[dict]) -> list[str]:
    """Flag bound decreases along increasing p within each (family, n) group."""
    notes = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
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


def cmd_sweep(args) -> _Report:
    if args.edge_list:
        if args.n_values is not None:
            raise InvalidParameter("--n-values cannot be combined with --edge-list")
        templates = [_resolve_template(args, need_graph=True)]
    else:
        if args.n_values is None:
            raise InvalidParameter("--n-values is required with --family")
        templates = [
            _family_template(args.family, n, args.simulate and n <= MC_SWEEP_N_CAP)
            for n in args.n_values
        ]

    rows = []
    for tpl in templates:
        for p in args.p_values:
            row, _ = _cell(tpl, p, args.T, args.n_cap)
            if args.simulate and tpl.graph is not None:
                _mc_columns(row, tpl.graph, args)
            rows.append(row)

    notes = _monotonicity_notes(rows)
    json_rows = [{col: row.get(col) for col in CSV_COLUMNS} for row in rows]
    payload = {"rows": json_rows, "monotonicity_notes": notes}
    if not (args.json or args.csv):
        args.csv = "-"  # the grid itself is sweep's text report
    return _Report(payload, rows, None, [] if args.json else notes)


def cmd_spectrum_check(args) -> _Report:
    tpl = _resolve_template(args, need_graph=True)
    graph = tpl.graph
    if graph.m > SPECTRUM_CHECK_EDGE_CAP:
        raise TooManyEdges(
            f"spectrum check enumerates 2^m subgraphs; m={graph.m} exceeds cap "
            f"{SPECTRUM_CHECK_EDGE_CAP}"
        )
    _check_count(graph.n, "n", 2)  # lambda_2 needs two vertices, as in algebraic_connectivity
    threshold = zero_threshold(graph.n)
    total = 1 << graph.m
    edges = _edge_arrays(graph)
    # one presence row per edge subset; one kernel call gives every combinatorial verdict
    present = (np.arange(total)[:, None] >> np.arange(graph.m) & 1).astype(bool)
    connected = _connected_rows(graph.n, *edges, present)
    mismatches = 0
    step = max(1, _STACK_CELLS // (graph.n * graph.n))
    for start in range(0, total, step):
        laplacians = _laplacian_stack(graph.n, *edges, present[start : start + step])
        spectral = _jacobi_eigenvalues(laplacians)[:, 1] > threshold
        mismatches += int(np.count_nonzero(spectral != connected[start : start + step]))
    ok = mismatches == 0
    payload = {
        "family": tpl.family,
        "n": graph.n,
        "subgraphs": total,
        "mismatches": mismatches,
        "threshold": threshold,
        "ok": ok,
    }
    verdict = "OK" if ok else "MISMATCH"
    text = (
        f"checked {total} subgraphs of {tpl.family} n={graph.n}: "
        f"{verdict} ({mismatches} mismatches, threshold {threshold:.3g})"
    )
    return _Report(payload, [], text, status=EXIT_OK if ok else EXIT_SPECTRUM_MISMATCH)


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


# One parser per set of environment defaults: `main` reads the environment on
# every call and rebuilding the argparse tree would cost more than most commands.
@functools.lru_cache(maxsize=8)
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
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("tstar", help="smallest union horizon reaching bound 1 - epsilon")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="per-sample edge probability, in (0, 1)")
    sp.add_argument("--epsilon", type=float, required=True, help="target gap, in (0, 1)")
    sp.add_argument("--t-max", type=int, default=t_max_default, dest="t_max", help="largest horizon scanned")
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
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
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("exact", help="exhaustive enumeration of the connectivity probability")
    _add_template_group(sp)
    sp.add_argument("--p", type=float, required=True, help="edge retention probability, in (0, 1)")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon; enumerates at p_hat(T)")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("sweep", help="bound (and optionally MC) grid over n and p")
    family = sp.add_mutually_exclusive_group(required=True)
    family.add_argument(
        "--family", choices=("complete", "complete-minus-cycle"), help="parametric template family"
    )
    family.add_argument("--edge-list", metavar="PATH", dest="edge_list", help="single template from a file")
    sp.add_argument("--n-values", type=_csv_list(int, "integers"), dest="n_values", metavar="LIST", help="vertex counts, e.g. 10,50,100")
    sp.add_argument("--p-values", type=_csv_list(float, "numbers"), dest="p_values", metavar="LIST", required=True, help="probabilities, e.g. 0.8,0.9,0.99")
    sp.add_argument("--T", type=int, metavar="N", help="union horizon applied to every cell")
    sp.add_argument("--simulate", action="store_true", help="append Monte Carlo estimate columns")
    sp.add_argument("--trials", type=int, default=trials_default, help="Monte Carlo trials per cell")
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--confidence", type=float, default=confidence_default, help="CI confidence level")
    sp.add_argument("--n-cap", type=int, default=n_cap_default, dest="n_cap", help="cap on the draw count N")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum-check", help="eigensolver vs enumeration cross-validation")
    _add_template_group(sp, required=False)
    sp.set_defaults(func=cmd_spectrum_check)

    # output flags come last in every command's --help
    for name, sp in sub.choices.items():
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if name != "spectrum-check":
            sp.add_argument("--csv", metavar="PATH", help="also write CSV rows ('-' for stdout)")
    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser(
            _env("TRIALS", int, DEFAULT_TRIALS, "an integer"),
            _env("CONFIDENCE", float, DEFAULT_CONFIDENCE, "a number"),
            _env("T_MAX", int, DEFAULT_T_MAX, "an integer"),
            _env("N_CAP", int, DEFAULT_N_CAP, "an integer"),
        )
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if not exc.code else EXIT_USAGE
        _check_flags(args)
        report = args.func(args)
        _emit(report, args)
    except BrokenPipeError:
        raise
    except (ConnGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return report.status


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
