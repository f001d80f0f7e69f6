"""Command-line interface: bounds, horizon search, simulation, enumeration, sweeps.

Subcommands
    bound           closed-form connectivity lower bound for one template
    tstar           smallest union horizon reaching a bound target
    simulate        Monte Carlo estimate next to the bound, with a verdict
    exact           exact connectivity probability by frontier-based search
    sweep           bound (and optionally MC) grids over n and p, CSV or JSON
    spectrum-check  eigensolver-vs-enumeration cross-validation

Each command builds one report: an ordered list of fields, each a JSON key,
a text label and one value, next to its CSV rows.  `_emit` renders the keyed
fields as the --json document and the labelled ones as aligned text lines, so
a value both show is spelled once; `main` checks the shared flags first.
Every cell and horizon search, n <= 2 included, comes from `bounds`, whose
`_union_cell` and `_union_search` decide the route; commands only render.

Exit codes: 0 ok, 1 spectrum-check mismatch, 2 usage, 3 disconnected
template, 4 horizon target not reached, 5 enumeration cap exceeded, 141
stdout closed by its reader.  Defaults for trials, confidence, t_max, and
N_cap can be overridden by CONNGRAPH_TRIALS, CONNGRAPH_CONFIDENCE,
CONNGRAPH_T_MAX, and CONNGRAPH_N_CAP.

`main` can be called any number of times in one process.  It reads and
checks the four variables on every call, so a changed or malformed value
takes effect on the next call, and fills in from them the options left unset
after parsing.  The parser is built once per process, and each call is parsed
once, by its command's own parser; the top-level parser sees only help,
version, an unknown command and tokens the command leaves over, whose text
only it can word.  One encoder, built with the module, writes every --json
document.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from decimal import Decimal

from . import __version__
from .bounds import DEFAULT_N_CAP, DEFAULT_T_MAX, BoundResult, union_edge_probability
# a union's cell and horizon search, on the exact complement that p alone loses once p_hat rounds to 1.0
from .bounds import _union_cell, _union_search
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
    complete,
    complete_minus_cycle,
    complete_minus_cycle_stats,
    complete_stats,
    read_edge_list,
    sum_degree_squares,
)
from .montecarlo import (
    DEFAULT_CONFIDENCE,
    empirical_connectivity,
    empirical_lambda2_moments,
    exact_connectivity,
)
from .spectral import _spectrum_mismatches, zero_threshold

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

# the bytes of json.dump(document, indent=2), from one encoder and one write
_JSON_ENCODER = json.JSONEncoder(indent=2)


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


def _row(tpl: _TemplateSpec, p: float, T: int | None, pe: float | None, **values) -> dict:
    """A CSV row, template and horizon first; pe, p collapsed over the horizon, is p_hat for a union only."""
    return {"family": tpl.family, "n": tpl.n, "p": p, "T": T, "p_hat": None if T is None else pe, **values}


def _cell(tpl: _TemplateSpec, p: float, T: int | None, n_cap: int) -> tuple[dict, BoundResult | None]:
    """One bound cell: its CSV row and its BoundResult, None for n <= 2, where the row holds the exact probability."""
    pe, bound, res = _union_cell(tpl.n, tpl.m, tpl.deg_sq, tpl.family == "complete", p, T, n_cap)
    return _row(tpl, p, T, pe, bound=bound, n_star=None if res is None else res.maximizing_n), res


def _mc_columns(row: dict, graph: UnderlyingGraph, args):
    """Monte Carlo estimate at the row's p and horizon, added to the row and returned."""
    est = empirical_connectivity(
        graph, row["p"], T=args.T or 1, trials=args.trials, seed=args.seed, confidence=args.confidence
    )
    row.update({"estimate": est.point, "ci_low": est.ci_low, "ci_high": est.ci_high})
    return est


def _head(tpl: _TemplateSpec, p: float, *horizon) -> list[tuple]:
    """The fields that open a report: template, p and the horizon (T, p_hat), if given.

    JSON carries family and n and always both horizon keys, null for a single
    sample; text names the template in one line and shows T and p_hat for a
    union only.
    """
    fields = [
        ("family", None, tpl.family),
        ("n", None, tpl.n),
        (None, "template", f"{tpl.family} n={tpl.n}"),
        ("p", "p", p),
    ]
    if horizon:
        union = horizon[0] is not None
        fields += [(key, key if union else None, value) for key, value in zip(("T", "p_hat"), horizon)]
    return fields


# ---------------------------------------------------------------------------
# reports and their one emitter


@dataclass
class _Report:
    """One command's result, ready for `_emit` in each output form.

    Each field is (JSON key, text label, value), in the order both show them;
    a None key keeps the field out of the JSON document and a None label out
    of the text lines.  A one-line text report goes in `line` instead, and a
    None field list means neither a document nor text.
    """

    fields: list[tuple] | None
    rows: Iterable[dict]  # the --csv rows, read at most once
    line: str | None = None
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
    elif report.fields is None:
        pass  # no result to show: the command's error is among the notes
    elif args.json:
        document = {"command": args.command} | {key: value for key, _, value in report.fields if key is not None}
        sys.stdout.write(_JSON_ENCODER.encode(document) + "\n")
    elif report.line is not None:
        print(report.line)
    else:
        lines = [(label, value) for _, label, value in report.fields if label is not None]
        width = max((len(label) for label, _ in lines), default=0)
        for label, value in lines:
            if isinstance(value, float):
                value = "%.12g" % value
            print(f"{label:<{width}}  {value}")
    for note in report.notes:
        print(note, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bound(args) -> _Report:
    tpl = _resolve_template(args, need_graph=False)
    row, res = _cell(tpl, args.p, args.T, args.n_cap)
    exact = res is None
    fields = _head(tpl, args.p, args.T, row["p_hat"]) + [
        ("exact", None, exact),
        ("bound", "probability" if exact else "bound", row["bound"]),
    ]
    if exact:
        fields.append((None, "note", "exact (closed form for n <= 2)"))
    else:
        fields += [
            ("n_star", "maximizing N", res.maximizing_n),
            ("n_search_max", None, res.n_search_max),
            (None, "N range", f"2..{res.n_search_max}"),
            ("mu", "mu", res.mu),
            ("sigma_squared", "sigma^2", res.sigma_squared),
            ("s_value", "S", res.s_value),
            ("numerator", None, res.numerator),
            ("denominator", None, res.denominator),
            ("n_cap", None, args.n_cap),
        ]
    return _Report(fields, [row])


def _trace_rows(tpl: _TemplateSpec, p: float, trace) -> Iterable[dict]:
    # lazy: each trace pair is a bound cell evaluated when read, and most reports never write them
    return (_row(tpl, p, T, union_edge_probability(p, T), bound=value) for T, value in trace)


def cmd_tstar(args) -> _Report:
    tpl = _resolve_template(args, need_graph=False)
    try:
        res = _union_search(tpl.n, tpl.m, tpl.deg_sq, tpl.family == "complete", args.p, args.epsilon, args.t_max, args.n_cap)
    except TStarNotFound as exc:
        # still emit the trace of every horizon up to where the search stopped
        return _Report(None, _trace_rows(tpl, args.p, exc.trace), notes=[f"error: {exc}"], status=_exit_code(exc))

    fields = _head(tpl, args.p) + [
        ("epsilon", "epsilon", res.epsilon),
        ("t_max", None, args.t_max),
        ("t_star", "T*", res.t_star),
        ("bound_at_t_star", "bound at T*", res.bound_at_t_star),
        ("trace_length", None, res.t_star),  # the trace holds horizons 1 .. T*, however many that is
    ]
    return _Report(fields, _trace_rows(tpl, args.p, res.trace))


def cmd_simulate(args) -> _Report:
    tpl = _resolve_template(args, need_graph=True)
    row, res = _cell(tpl, args.p, args.T, args.n_cap)
    est = _mc_columns(row, tpl.graph, args)

    allowance = est.point + 4.0 * est.half_width
    sound = row["bound"] <= allowance
    # every digit of the confidence's shortest repr, as a percentage
    percent = format(Decimal(repr(est.confidence)).scaleb(2).normalize(), "f")
    fields = _head(tpl, args.p, args.T, row["p_hat"]) + [
        ("trials", "trials", est.trials),
        ("seed", "seed", args.seed),
        ("confidence", None, est.confidence),
        ("successes", None, est.successes),
        ("estimate", "estimate", est.point),
        ("ci_low", None, est.ci_low),
        ("ci_high", None, est.ci_high),
        (None, f"{percent}% CI", f"{est.ci_low:.12g} .. {est.ci_high:.12g}"),
        ("bound", "bound", row["bound"]),
        ("exact_bound", None, res is None),
        ("allowance", None, allowance),
        ("sound", None, sound),
        (None, "verdict", f"{'SOUND' if sound else 'UNSOUND'} (bound <= estimate + 4 half-widths)"),
    ]
    # `--csv -` prints only the CSV row, which has no lambda2 columns, so the
    # moments are skipped there; below 2 vertices the call still runs, to
    # raise its typed error under every renderer
    if args.lambda2_moments and (args.csv != "-" or tpl.n < 2):
        pe = args.p if args.T is None else row["p_hat"]
        lam = empirical_lambda2_moments(tpl.graph, pe, trials=args.trials, seed=args.seed)
        fields += [
            ("lambda2", None, asdict(lam)),
            (None, "lambda2 mean", lam.mean),
            (None, "lambda2 mean sq", lam.mean_sq),
        ]
    return _Report(fields, [row])


def cmd_exact(args) -> _Report:
    tpl = _resolve_template(args, need_graph=True)
    pe = args.p if args.T is None else union_edge_probability(args.p, args.T)
    result = exact_connectivity(tpl.graph, pe)
    total = 1 << tpl.m

    row = _row(tpl, args.p, args.T, pe, estimate=result.value)
    fields = _head(tpl, args.p, args.T, row["p_hat"]) + [
        ("probability", "probability", result.value),
        ("connected_subsets", None, result.terms),
        ("total_subsets", None, total),
        (None, "connected", f"{result.terms} of {total} edge subsets"),
    ]
    return _Report(fields, [row])


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
    def simulated(n: int) -> bool:
        # the one place the MC cap is checked: family graphs above it are never built
        return args.simulate and n <= MC_SWEEP_N_CAP

    if args.edge_list:
        if args.n_values is not None:
            raise InvalidParameter("--n-values cannot be combined with --edge-list")
        templates = [_resolve_template(args, need_graph=True)]
    else:
        if args.n_values is None:
            raise InvalidParameter("--n-values is required with --family")
        templates = [_family_template(args.family, n, simulated(n)) for n in args.n_values]

    rows = []
    for tpl in templates:
        for p in args.p_values:
            row, _ = _cell(tpl, p, args.T, args.n_cap)
            if simulated(tpl.n):
                _mc_columns(row, tpl.graph, args)
            rows.append(row)

    notes = _monotonicity_notes(rows)
    json_rows = [{col: row.get(col) for col in CSV_COLUMNS} for row in rows]
    if not (args.json or args.csv):
        args.csv = "-"  # the grid itself is sweep's text report
    fields = [("rows", None, json_rows), ("monotonicity_notes", None, notes)]
    return _Report(fields, rows, notes=[] if args.json else notes)


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
    mismatches = _spectrum_mismatches(graph)
    ok = mismatches == 0
    fields = [
        ("family", None, tpl.family),
        ("n", None, graph.n),
        ("subgraphs", None, total),
        ("mismatches", None, mismatches),
        ("threshold", None, threshold),
        ("ok", None, ok),
    ]
    line = (
        f"checked {total} subgraphs of {tpl.family} n={graph.n}: "
        f"{'OK' if ok else 'MISMATCH'} ({mismatches} mismatches, threshold {threshold:.3g})"
    )
    return _Report(fields, [], line, status=EXIT_OK if ok else EXIT_SPECTRUM_MISMATCH)


# ---------------------------------------------------------------------------
# parser


# Built once per process: `main` fills in the environment's defaults after
# parsing, and rebuilding the argparse tree would cost more than most commands.
# `main` parses a call once, with the parser in `commands` that its first token
# names; the top-level parser handles only help, version, an unknown command
# and tokens the command leaves over, the argv whose text only it can word.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # every option once; the four the environment can default stay None until `main` fills them in
    options = {
        "--complete": dict(type=int, metavar="N", help="complete template on N vertices"),
        "--complete-minus-cycle": dict(type=int, metavar="N",
                                       help="complete template minus a Hamiltonian cycle (N >= 5)"),
        "--edge-list": dict(metavar="PATH", help="template from an edge-list file"),
        "--family": dict(choices=("complete", "complete-minus-cycle"), help="parametric template family"),
        "--n-values": dict(type=_csv_list(int, "integers"), metavar="LIST", help="vertex counts, e.g. 10,50,100"),
        "--p": dict(type=float, required=True, help="edge retention probability, in (0, 1)"),
        "--p-values": dict(type=_csv_list(float, "numbers"), metavar="LIST", required=True,
                           help="probabilities, e.g. 0.8,0.9,0.99"),
        "--epsilon": dict(type=float, required=True, help="target gap, in (0, 1)"),
        "--T": dict(type=int, metavar="N", help="union horizon (default: single sample)"),
        "--t-max": dict(type=int, help="largest horizon scanned"),
        "--simulate": dict(action="store_true",
                           help=f"append Monte Carlo estimate columns (left empty above n = {MC_SWEEP_N_CAP})"),
        "--trials": dict(type=int, help="Monte Carlo trials"),
        "--seed": dict(type=int, default=0, help="random seed (runs are bit-reproducible)"),
        "--confidence": dict(type=float, help="CI confidence level"),
        "--lambda2-moments": dict(action="store_true",
                                  help="also estimate first and second moments of the algebraic connectivity"),
        "--n-cap": dict(type=int, help="cap on the draw count N"),
        "--json": dict(action="store_true", help="emit JSON instead of text"),
        "--csv": dict(metavar="PATH", help="also write CSV rows ('-' for stdout)"),
    }
    # a tuple is a mutually exclusive group, required except by spectrum-check (which defaults to K5)
    template = ("--complete", "--complete-minus-cycle", "--edge-list")
    mc, out = ("--trials", "--seed", "--confidence"), ("--json", "--csv")
    commands = {
        "bound": (cmd_bound, "closed-form connectivity lower bound", [template, "--p", "--T", "--n-cap", *out]),
        "tstar": (cmd_tstar, "smallest union horizon reaching bound 1 - epsilon",
                  [template, "--p", "--epsilon", "--t-max", "--n-cap", *out]),
        "simulate": (cmd_simulate, "Monte Carlo estimate next to the bound",
                     [template, "--p", "--T", *mc, "--lambda2-moments", "--n-cap", *out]),
        "exact": (cmd_exact, "exact connectivity probability by frontier-based search", [template, "--p", "--T", *out]),
        "sweep": (cmd_sweep, "bound (and optionally MC) grid over n and p",
                  [("--family", "--edge-list"), "--n-values", "--p-values", "--T", "--simulate", *mc, "--n-cap", *out]),
        "spectrum-check": (cmd_spectrum_check, "eigensolver vs enumeration cross-validation", [template, "--json"]),
    }

    parser = argparse.ArgumentParser(
        prog="conngraph",
        description="Connectivity bounds for randomly subsampled graphs and their unions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's name -> its own parser
    for name, (func, summary, flags) in commands.items():
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        for item in flags:
            if isinstance(item, tuple):
                target = sp.add_mutually_exclusive_group(required=name != "spectrum-check")
            else:
                target, item = sp, (item,)
            for flag in item:
                target.add_argument(flag, **options[flag])
    return parser


def main(argv=None) -> int:
    try:
        defaults = {
            "trials": _env("TRIALS", int, DEFAULT_TRIALS, "an integer"),
            "confidence": _env("CONFIDENCE", float, DEFAULT_CONFIDENCE, "a number"),
            "t_max": _env("T_MAX", int, DEFAULT_T_MAX, "an integer"),
            "n_cap": _env("N_CAP", int, DEFAULT_N_CAP, "an integer"),
        }
        parser = _build_parser()
        argv = sys.argv[1:] if argv is None else list(argv)
        command = parser.commands.get(argv[0]) if argv else None
        try:
            if command is not None:
                # what the top-level parser does with a command: name it, then hand every later token to its parser
                args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if command is None or rest:  # help, version, an unknown command or leftover tokens
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if not exc.code else EXIT_USAGE
        for name, value in defaults.items():
            if name in args and getattr(args, name) is None:  # the command takes it and the user left it unset
                setattr(args, name, value)
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
