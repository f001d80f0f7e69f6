"""Spans around the benchmark's calls into each layer, and the per-layer
metrics derived from them.

Tracing is done from the benchmark's side: while a traced pass runs, the
public functions of each program module (plus the two bound cores the CLI
calls directly) are replaced by wrappers that record a span, so a call made
by the benchmark, by the CLI or by one layer into another each gets one.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("graphs", "bounds", "montecarlo", "spectral", "cli")
# Private functions that a layer calls across a boundary, not through the
# public API: the CLI evaluates bound cells through these two cores.
EXTRA = {"bounds": ("_general_bound_result", "_complete_bound_result")}

BUILDERS = {"graphs.complete", "graphs.complete_minus_cycle", "graphs.from_edge_list", "graphs.read_edge_list"}
CELLS = {
    "bounds.connectivity_bound",
    "bounds.connectivity_bound_from_stats",
    "bounds.connectivity_bound_complete",
    "bounds._general_bound_result",
    "bounds._complete_bound_result",
}
TSTARS = {"bounds.t_star", "bounds.t_star_from_stats", "bounds.t_star_complete"}
MOMENTS = {"montecarlo.empirical_lambda2_moments", "montecarlo.empirical_ell_moments", "montecarlo.empirical_ell_min_mean"}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    op: int | None = None
    round: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


def _counts(name: str, arg, result, seen: set) -> dict:
    """Work counts recorded at a span, from its arguments and result."""
    if name in BUILDERS:
        return {"m": getattr(result, "m", 0)}
    if name in CELLS:
        params = arg("params")
        return {"n": params.n if params is not None else arg("n")}
    if name in TSTARS:
        trace = getattr(result, "trace", None)
        return {"horizons": len(trace) if trace is not None else 0}
    if name in ("montecarlo.empirical_connectivity", "montecarlo.coupled_monotonicity_check"):
        g = arg("parent")
        return {"trials": arg("trials"), "T": arg("T", 1), "m": g.m, "n": g.n, "dense": 2 * g.m >= g.n * (g.n - 1) / 2}
    if name == "montecarlo.exact_connectivity":
        g = arg("parent")
        if isinstance(result, BaseException):  # over the cap: nothing enumerated
            return {"m": g.m, "ok": False}
        key = (g.n, g.edges)
        cold = key not in seen
        seen.add(key)
        return {"m": g.m, "terms": result.terms, "cold": cold, "ok": True}
    if name in MOMENTS:
        return {"trials": arg("trials")}
    if name == "spectral.eigenvalues_symmetric":
        return {"n": len(arg("matrix"))}
    if name == "spectral.sample_ell_first_order_statistic":
        return {"N": arg("N")}
    if name == "cli.main":
        argv = arg("argv") or []
        return {"command": argv[0] if argv else ""}
    return {}


def _arg_reader(fn):
    """A cheap stand-in for inspect.Signature.bind: reads one argument by name."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}

    def read(args, kwargs):
        def arg(name, fallback=None):
            if name in kwargs:
                return kwargs[name]
            i = index.get(name)
            if i is not None and i < len(args):
                return args[i]
            return defaults.get(name, fallback)

        return arg

    return read


class Tracer:
    """Records spans while ``recording`` is set; checks run with it cleared."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.recording = False
        self.op: int | None = None
        self.round: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._seen_exact: set = set()

    # spans -----------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), op=self.op, round=self.round)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        reader = _arg_reader(fn)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                raise
            finally:
                tracer.close(span)
                span.counts = _counts(name, reader(args, kwargs), result, tracer._seen_exact)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Replace each layer's functions by traced wrappers, everywhere they are bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            names = [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n, None))]
            if layer == "cli":
                names = ["main"]
            for fname in list(names) + list(EXTRA.get(layer, ())):
                fn = getattr(module, fname, None)
                if inspect.isfunction(fn) and getattr(fn, "__module__", "") == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {"id": s.sid, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, "op": s.op, "round": s.round}
                if s.counts:
                    record["counts"] = s.counts
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: list[int], op_failures: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of a traced pass over ``rounds``.

    Times are over every traced round; counts are those of the first traced
    round, so a fixed seed repeats them exactly.
    """
    n_rounds = max(1, len(rounds))
    first = rounds[0] if rounds else None
    by_id = {s.sid: s for s in spans}
    spans = [s for s in spans if s.round in rounds]
    # self times count the timed ops only, not the building of a round's inputs
    selfs = self_times([s for s in spans if s.op is not None])

    def named(names, pool=spans):
        return [s for s in pool if s.name in names]

    def outer(s: Span, layer: str) -> bool:
        parent = by_id.get(s.parent) if s.parent is not None else None
        return parent is None or parent.layer != layer

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_round"] = sum(t for sid, t in selfs.items() if by_id[sid].layer == layer) * 1e3 / n_rounds

    builds = [s for s in named(BUILDERS) if not (s.parent is not None and by_id[s.parent].name in BUILDERS)]
    m["graphs.build_ms"] = sum(s.dur for s in builds) * 1e3 / n_rounds
    m["graphs.build_edges"] = sum(s.counts.get("m", 0) for s in builds if s.round == first)

    cells = [s for s in named(CELLS) if outer(s, "bounds")]
    m["bounds.cell_calls"] = sum(1 for s in cells if s.round == first)
    m["bounds.cell_us_p50_small"] = _p50([s.dur * 1e6 for s in cells if s.counts["n"] <= 10**4])
    m["bounds.cell_us_p50_large"] = _p50([s.dur * 1e6 for s in cells if s.counts["n"] >= 10**5])
    tstars = named(TSTARS)
    m["bounds.tstar_calls"] = sum(1 for s in tstars if s.round == first)
    m["bounds.tstar_horizons"] = sum(s.counts["horizons"] for s in tstars if s.round == first)
    m["bounds.tstar_us_per_horizon"] = _rate(sum(s.dur for s in tstars) * 1e6, sum(s.counts["horizons"] for s in tstars))

    conn = named({"montecarlo.empirical_connectivity"})
    coupled = named({"montecarlo.coupled_monotonicity_check"})
    m["montecarlo.conn_trials"] = sum(s.counts["trials"] for s in conn + coupled if s.round == first)
    for label, dense in (("dense", True), ("sparse", False)):
        sel = [s for s in conn if s.counts["T"] == 1 and s.counts["dense"] == dense]
        m[f"montecarlo.conn_ns_per_trial_edge_{label}"] = _rate(sum(s.dur for s in sel) * 1e9, sum(s.counts["trials"] * s.counts["m"] for s in sel))
    unions = [s for s in conn if s.counts["T"] > 1]
    m["montecarlo.union_ns_per_trial_layer_edge"] = _rate(
        sum(s.dur for s in unions) * 1e9, sum(s.counts["trials"] * s.counts["T"] * s.counts["m"] for s in unions)
    )
    m["montecarlo.coupled_ns_per_trial_edge"] = _rate(sum(s.dur for s in coupled) * 1e9, sum(s.counts["trials"] * s.counts["m"] for s in coupled))
    moments = named(MOMENTS)
    m["montecarlo.spectral_us_per_trial"] = _rate(sum(s.dur for s in moments) * 1e6, sum(s.counts["trials"] for s in moments))

    exact = [s for s in named({"montecarlo.exact_connectivity"}) if s.counts["ok"]]
    cold = [s for s in exact if s.counts["cold"]]
    warm = [s for s in exact if not s.counts["cold"]]
    m["montecarlo.exact_cold_ns_per_subset"] = _rate(sum(s.dur for s in cold) * 1e9, sum(2 ** s.counts["m"] for s in cold))
    m["montecarlo.exact_cold_ms_total"] = sum(s.dur for s in cold) * 1e3 / n_rounds
    m["montecarlo.exact_warm_us_p50"] = _p50([s.dur * 1e6 for s in warm])
    cold_first = [s for s in cold if s.round == first]
    exact_first = [s for s in exact if s.round == first]
    m["montecarlo.exact_subsets"] = sum(2 ** s.counts["m"] for s in cold_first)
    m["montecarlo.exact_warm_share"] = _rate(sum(1 for s in exact_first if not s.counts["cold"]), len(exact_first))
    m["montecarlo.exact_connected_share"] = _rate(sum(s.counts["terms"] for s in cold_first), m["montecarlo.exact_subsets"])
    m["montecarlo.ops_failed"] = op_failures.get("montecarlo", 0)

    jacobi = named({"spectral.eigenvalues_symmetric"})
    m["spectral.jacobi_calls"] = sum(1 for s in jacobi if s.round == first)
    m["spectral.jacobi_us_p50_small"] = _p50([s.dur * 1e6 for s in jacobi if s.counts["n"] <= 12])
    m["spectral.jacobi_us_p50_large"] = _p50([s.dur * 1e6 for s in jacobi if s.counts["n"] > 12])
    ell = named({"spectral.sample_ell_first_order_statistic"})
    m["spectral.ell_sampler_ms_per_draw"] = _rate(sum(s.dur for s in ell) * 1e3, sum(s.counts["N"] for s in ell))

    mains = named({"cli.main"})
    for command in ("bound", "tstar", "sweep", "simulate", "exact", "spectrum-check"):
        key = command.replace("-", "_")
        m[f"cli.{key}_ms_p50"] = _p50([s.dur * 1e3 for s in mains if s.counts["command"] == command])
    bound_child = {s.sid: 0.0 for s in mains}
    for s in spans:
        if s.parent in bound_child and s.layer == "bounds":
            bound_child[s.parent] += s.dur
    m["cli.overhead_ms_p50"] = _p50([(s.dur - bound_child[s.sid]) * 1e3 for s in mains if s.counts["command"] == "bound"])
    return m

