"""bound-grid: closed-form bound cells and union-horizon (T*) searches.

The bounds layer does nearly all of the work; Monte Carlo and enumeration do
none.  A single cell and a horizon scan use the same bound core in two ways,
one call against thousands, so a faster core shows in both op_p50_ms (small
cells) and wall_s / op_p90_ms (large cells and the deep T* search).
"""

from __future__ import annotations

import math
import random

from harness import (
    Context,
    Op,
    Round,
    build_template,
    cli_call,
    cli_json,
    close,
    first_error,
    log_uniform_int,
    mismatch,
    template_stats,
    unexpected,
)

NAME = "bound-grid"

# Ops per round.  Small cells (n <= 1e3, flat cost) are ~2/3 of the ops so
# op_p50_ms sits inside them, and large cells (n >= 1e6, where the N scan
# runs to its cap) cover the 90th percentile.
SLOTS = {
    "cell.small": 60,
    "cell.mid": 8,
    "cell.large": 14,
    "cli.bound": 4,
    "cli.bound.underflow": 2,
    "tstar.graph": 1,
    "tstar.stats": 1,
    "tstar.complete": 1,
    "tstar.deep": 1,
    "tstar.notfound": 1,
    "cli.tstar": 1,
    "cli.tstar.notfound": 1,
    "cli.sweep": 1,
}

POOL_SIZES = {
    "cell.small": 400,
    "cell.mid": 40,
    "cell.large": 80,
    "cli.bound": 40,
    "cli.bound.underflow": 20,
    "tstar.graph": 12,
    "tstar.stats": 12,
    "tstar.complete": 12,
    "tstar.deep": 8,
    "tstar.notfound": 8,
    "cli.tstar": 12,
    "cli.tstar.notfound": 8,
    "cli.sweep": 12,
}

# T* bands for the horizon searches, chosen from the calibration: about
# 0.1 ms per horizon at the seed, so the deep band costs about a second.
BANDS = {
    "tstar.graph": (10, 40),
    "tstar.stats": (100, 400),
    "tstar.complete": (1200, 1600),
    "tstar.deep": (9500, 10500),
    "cli.tstar": (20, 300),
}

NAIVE_N_MAX = 10**4


def naive_tolerance(case: dict) -> float:
    """Relative tolerance against tests/support.reference_bound.

    The naive scan forms S^2 by cancelling terms as large as 4 m^2 p^2, so
    its own rounding error grows with their ratio to S^2; near p = 1 on
    dense templates that ratio reaches 1e11.  The pinned seed outputs are
    held to 1e-12 regardless.
    """
    n, m, deg_sq, p = case["n"], case["m"], case["deg_sq"], case["p"]
    terms = 2 * m * p * (n - 1) * (2 - p) + p * p * (n - 1) * deg_sq + 4 * m * m * p * p
    s_sq = abs(2 * m * p * (n - 1) * (2 - p) + p * p * (n - 1) * deg_sq - 4 * m * m * p * p)
    return 1e-9 + 1e-15 * terms / max(s_sq, 1e-300)


# ---------------------------------------------------------------------------
# pool (inputs only; pin.py computes the outputs at the seed commit)


def _p_value(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.2:
        return 10 ** rng.uniform(-6, -2)
    if u < 0.4:
        return 1.0 - 10 ** rng.uniform(-9, -3)
    return rng.uniform(0.05, 0.95)


def _p_value_large(rng: random.Random) -> float:
    """Large templates are asked mostly where their bound is not vacuous."""
    u = rng.random()
    if u < 0.1:
        return 10 ** rng.uniform(-6, -2)
    return 1.0 - 10 ** rng.uniform(-9, math.log10(0.5))


def _irregular_stats(rng: random.Random, n: int) -> tuple[int, int]:
    """(m, deg_sq) of a hub-and-leaf degree sequence: n // 50 hubs."""
    hubs = max(1, n // 50)
    low = rng.randint(2, max(2, min(40, n - 1)))
    high = min(n - 1, low * rng.randint(2, 30))
    total = hubs * high + (n - hubs) * low
    deg_sq = hubs * high * high + (n - hubs) * low * low
    if total % 2:
        total += 1
        deg_sq += 2 * low + 1
    return total // 2, deg_sq


def _family_stats(family: str, n: int) -> tuple[int, int]:
    if family == "complete":
        return n * (n - 1) // 2, n * (n - 1) ** 2
    return n * (n - 3) // 2, n * (n - 3) ** 2


def _graph_spec(rng: random.Random, n: int) -> dict:
    family = rng.choice(["complete", "complete-minus-cycle", "tree"])
    if family == "complete-minus-cycle":
        n = max(n, 5)
    if family == "tree":
        return {"family": "tree", "n": n, "chords": rng.randint(0, n), "tree_seed": rng.getrandbits(32)}
    return {"family": family, "n": n}


def _cell(rng: random.Random, slot: str, lo: float, hi: float, allow_graph: bool) -> dict:
    n = log_uniform_int(rng, lo, hi)
    route = rng.choice(["stats", "stats", "graph", "complete"] if allow_graph else ["stats", "stats", "complete"])
    case = {"slot": slot, "route": route, "p": _p_value_large(rng) if slot == "cell.large" else _p_value(rng)}
    if route == "graph":
        spec = _graph_spec(rng, min(n, 100))
        case["template"] = spec
        case["n"], case["m"], case["deg_sq"] = template_stats(spec)
    elif route == "complete":
        case["n"] = n
        case["m"], case["deg_sq"] = _family_stats("complete", n)
    else:
        family = rng.choice(["complete", "complete-minus-cycle", "irregular"])
        if family == "complete-minus-cycle":
            n = max(n, 5)
        case["family"] = family
        case["n"] = n
        if family == "irregular":
            case["m"], case["deg_sq"] = _irregular_stats(rng, n)
        else:
            case["m"], case["deg_sq"] = _family_stats(family, n)
    return case


def _cli_bound(rng: random.Random, slot: str) -> dict:
    family = rng.choice(["complete", "complete-minus-cycle"])
    n = max(5, log_uniform_int(rng, 5, 10**4))
    p = rng.uniform(0.01, 0.9)
    if slot == "cli.bound.underflow":
        # (1 - p)^T underflows to 0.0, so p_hat rounds to exactly 1
        T = int(math.ceil(800.0 / -math.log1p(-p) * rng.uniform(1.0, 3.0)))
    else:
        T = rng.choice([1, rng.randint(2, 20), rng.randint(20, 500)])
    return {"slot": slot, "family": family, "n": n, "p": p, "T": T}


def _search_for(api, case: dict, template=None):
    route = case["route"]
    if route == "graph":
        return lambda p, t_max=api.DEFAULT_T_MAX: api.t_star(template, p, case["eps"], t_max)
    if route == "stats":
        return lambda p, t_max=api.DEFAULT_T_MAX: api.t_star_from_stats(
            case["n"], case["m"], case["deg_sq"], p, case["eps"], t_max
        )
    return lambda p, t_max=api.DEFAULT_T_MAX: api.t_star_complete(case["n"], p, case["eps"], t_max)


def _p_for_band(api, search, lo: int, hi: int, rng: random.Random):
    """Edge probability whose T* lands in [lo, hi], or None.

    The bound depends on p only through the union's complement (1-p)^T, so
    the complement that first clears the target is located at two
    probabilities and then spread over the requested horizon.
    """
    try:
        t1 = search(0.5).t_star
        log_q = (t1 - 0.5) * math.log(0.5)
        p2 = -math.expm1(log_q / 200.0)
        t2 = search(p2).t_star
    except api.TStarNotFound:
        return None
    log_q = (t2 - 0.5) * math.log1p(-p2)
    p = -math.expm1(log_q / rng.uniform(lo, hi))
    t = search(p).t_star
    return p if lo <= t <= hi else None


def _tstar_case(api, rng: random.Random, slot: str) -> dict | None:
    eps = 10 ** rng.uniform(-4, -1)
    template = None
    if slot == "tstar.graph":
        spec = _graph_spec(rng, log_uniform_int(rng, 5, 60))
        case = {"route": "graph", "template": spec}
        template = build_template(api, spec)
    elif slot in ("tstar.stats", "tstar.notfound"):
        n = log_uniform_int(rng, 5, 10**4)
        family = rng.choice(["complete-minus-cycle", "irregular"])
        m, deg_sq = _irregular_stats(rng, n) if family == "irregular" else _family_stats(family, max(n, 5))
        case = {"route": "stats", "n": max(n, 5), "m": m, "deg_sq": deg_sq}
    else:
        case = {"route": "complete", "n": log_uniform_int(rng, 5, 1000)}
    case.update({"slot": slot, "eps": eps})
    lo, hi = BANDS["tstar.stats" if slot == "tstar.notfound" else slot]
    search = _search_for(api, case, template)
    p = _p_for_band(api, search, lo, hi, rng)
    if p is None:
        return None
    case["p"] = p
    if slot == "tstar.notfound":
        case["t_max"] = max(1, search(p).t_star // 2)
    return case


def _cli_tstar_case(api, rng: random.Random, slot: str) -> dict | None:
    family = rng.choice(["complete", "complete-minus-cycle"])
    n = max(5, log_uniform_int(rng, 5, 10**4))
    eps = 10 ** rng.uniform(-4, -1)
    if family == "complete":
        search = lambda p: api.t_star_complete(n, p, eps)  # noqa: E731
    else:
        m, deg_sq = _family_stats(family, n)
        search = lambda p: api.t_star_from_stats(n, m, deg_sq, p, eps)  # noqa: E731
    p = _p_for_band(api, search, *BANDS["cli.tstar"], rng)
    if p is None:
        return None
    case = {"slot": slot, "family": family, "n": n, "p": p, "eps": eps}
    if slot == "cli.tstar.notfound":
        case["t_max"] = max(1, search(p).t_star // 2)
    return case


def _cli_sweep_case(rng: random.Random) -> dict:
    family = rng.choice(["complete", "complete-minus-cycle"])
    n_values = sorted({max(5, log_uniform_int(rng, 5, 10**6)) for _ in range(5)})
    p_values = [round(_p_value(rng), 12) for _ in range(4)]
    T = rng.choice([None, rng.randint(2, 50)])
    return {"slot": "cli.sweep", "family": family, "n_values": n_values, "p_values": p_values, "T": T}


def pool(ctx: Context, seed: int) -> list[dict]:
    api = ctx.api
    rng = random.Random(f"{NAME}:pool:{seed}")
    cases: list[dict] = []
    ranges = {"cell.small": (3, 10**3), "cell.mid": (10**3, 10**6), "cell.large": (10**6, 10**7)}
    for slot, (lo, hi) in ranges.items():
        cases += [_cell(rng, slot, lo, hi, slot == "cell.small") for _ in range(POOL_SIZES[slot])]
    for slot in ("cli.bound", "cli.bound.underflow"):
        cases += [_cli_bound(rng, slot) for _ in range(POOL_SIZES[slot])]
    for slot in ("tstar.graph", "tstar.stats", "tstar.complete", "tstar.deep", "tstar.notfound"):
        made = []
        while len(made) < POOL_SIZES[slot]:
            case = _tstar_case(api, rng, slot)
            if case is not None:
                made.append(case)
        cases += made
    for slot in ("cli.tstar", "cli.tstar.notfound"):
        made = []
        while len(made) < POOL_SIZES[slot]:
            case = _cli_tstar_case(api, rng, slot)
            if case is not None:
                made.append(case)
        cases += made
    cases += [_cli_sweep_case(rng) for _ in range(POOL_SIZES["cli.sweep"])]
    return cases


# ---------------------------------------------------------------------------
# argv builders and calls shared by pinning and the timed ops


def _bound_argv(case: dict) -> list[str]:
    return ["bound", f"--{case['family']}", str(case["n"]), "--p", repr(case["p"]), "--T", str(case["T"]), "--json"]


def _tstar_argv(case: dict) -> list[str]:
    argv = ["tstar", f"--{case['family']}", str(case["n"]), "--p", repr(case["p"]), "--epsilon", repr(case["eps"])]
    if "t_max" in case:
        argv += ["--t-max", str(case["t_max"])]
    return argv + ["--json"]


def _sweep_argv(case: dict) -> list[str]:
    argv = [
        "sweep",
        "--family",
        case["family"],
        "--n-values",
        ",".join(str(n) for n in case["n_values"]),
        "--p-values",
        ",".join(repr(p) for p in case["p_values"]),
    ]
    if case["T"] is not None:
        argv += ["--T", str(case["T"])]
    return argv + ["--json"]


def _cell_call(api, case: dict, template):
    if case["route"] == "graph":
        return lambda: api.connectivity_bound(api.ModelParams(template, case["p"]))
    if case["route"] == "complete":
        return lambda: api.connectivity_bound_complete(case["n"], case["p"])
    return lambda: api.connectivity_bound_from_stats(case["n"], case["m"], case["deg_sq"], case["p"])


def _tstar_call(api, case: dict, template):
    search = _search_for(api, case, template)
    if "t_max" in case:
        return lambda: search(case["p"], case["t_max"])
    return lambda: search(case["p"])


def pin(case: dict, api, ctx: Context) -> dict:
    """Outputs of the program for one case, recorded at the seed commit."""
    slot = case["slot"]
    template = build_template(api, case["template"]) if "template" in case else None
    if slot.startswith("cell."):
        res = _cell_call(api, case, template)()
        out = {"bound": res.probability_lower_bound, "maximizing_n": res.maximizing_n}
        if case["n"] <= NAIVE_N_MAX:
            naive, _ = ctx.support.reference_bound(case["n"], case["m"], case["deg_sq"], case["p"])
            if not close(naive, res.probability_lower_bound, rel=naive_tolerance(case), abs_tol=1e-12):
                raise AssertionError(f"seed bound disagrees with the naive scan on {case}")
            out["naive"] = naive
        return out
    if slot == "tstar.notfound":
        try:
            _tstar_call(api, case, template)()
        except api.TStarNotFound as exc:
            return {"trace_length": len(exc.trace), "best_t": exc.best_t, "best_bound": exc.best_bound}
        raise AssertionError(f"expected TStarNotFound on {case}")
    if slot.startswith("tstar."):
        res = _tstar_call(api, case, template)()
        return {"t_star": res.t_star, "bound_at_t_star": res.bound_at_t_star, "trace_length": len(res.trace)}
    if slot.startswith("cli.bound"):
        payload, err = cli_json(cli_call(ctx, _bound_argv(case)))
        if err:
            raise AssertionError(err)
        return {"bound": payload["bound"], "n_star": payload["n_star"]}
    if slot == "cli.tstar.notfound":
        _, err = cli_json(cli_call(ctx, _tstar_argv(case)), want_code=4)
        if err:
            raise AssertionError(err)
        return {}
    if slot == "cli.tstar":
        payload, err = cli_json(cli_call(ctx, _tstar_argv(case)))
        if err:
            raise AssertionError(err)
        return {k: payload[k] for k in ("t_star", "bound_at_t_star", "trace_length")}
    if slot == "cli.sweep":
        payload, err = cli_json(cli_call(ctx, _sweep_argv(case)))
        if err:
            raise AssertionError(err)
        return {"rows": [[row["bound"], row["n_star"]] for row in payload["rows"]]}
    raise ValueError(slot)


# ---------------------------------------------------------------------------
# checks


def _check_cell(case: dict):
    want = case["out"]

    def check(res) -> str | None:
        err = unexpected(res)
        if err:
            return err
        got = res.probability_lower_bound
        if not close(got, want["bound"]):
            return mismatch("bound", got, want["bound"])
        if res.maximizing_n != want["maximizing_n"]:
            return mismatch("maximizing_n", res.maximizing_n, want["maximizing_n"])
        if "naive" in want and not close(got, want["naive"], rel=naive_tolerance(case), abs_tol=1e-12):
            return mismatch("bound vs naive scan", got, want["naive"])
        return None

    return check


def _check_tstar(api, case: dict):
    want = case["out"]

    def check(res) -> str | None:
        if case["slot"] == "tstar.notfound":
            if not isinstance(res, api.TStarNotFound):
                return f"expected TStarNotFound, got {res!r}"
            return first_error(
                None if len(res.trace) == want["trace_length"] else mismatch("trace length", len(res.trace), want["trace_length"]),
                None if res.best_t == want["best_t"] else mismatch("best_t", res.best_t, want["best_t"]),
                None if close(res.best_bound, want["best_bound"]) else mismatch("best_bound", res.best_bound, want["best_bound"]),
            )
        err = unexpected(res)
        if err:
            return err
        return first_error(
            None if res.t_star == want["t_star"] else mismatch("t_star", res.t_star, want["t_star"]),
            None if close(res.bound_at_t_star, want["bound_at_t_star"]) else mismatch("bound_at_t_star", res.bound_at_t_star, want["bound_at_t_star"]),
            None if len(res.trace) == want["trace_length"] else mismatch("trace length", len(res.trace), want["trace_length"]),
        )

    return check


def _check_cli(case: dict):
    slot, want = case["slot"], case["out"]

    def check(out) -> str | None:
        payload, err = cli_json(out, want_code=4 if slot == "cli.tstar.notfound" else 0)
        if err or slot == "cli.tstar.notfound":
            return err
        if slot.startswith("cli.bound"):
            return first_error(
                None if close(payload["bound"], want["bound"]) else mismatch("bound", payload["bound"], want["bound"]),
                None if payload["n_star"] == want["n_star"] else mismatch("n_star", payload["n_star"], want["n_star"]),
            )
        if slot == "cli.tstar":
            return first_error(
                None if payload["t_star"] == want["t_star"] else mismatch("t_star", payload["t_star"], want["t_star"]),
                None if close(payload["bound_at_t_star"], want["bound_at_t_star"]) else mismatch("bound_at_t_star", payload["bound_at_t_star"], want["bound_at_t_star"]),
                None if payload["trace_length"] == want["trace_length"] else mismatch("trace_length", payload["trace_length"], want["trace_length"]),
            )
        rows = payload["rows"]
        if len(rows) != len(want["rows"]):
            return mismatch("sweep rows", len(rows), len(want["rows"]))
        for row, (bound, n_star) in zip(rows, want["rows"]):
            if not close(row["bound"], bound) or row["n_star"] != n_star:
                return mismatch("sweep row", [row["bound"], row["n_star"]], [bound, n_star])
        return None

    return check


# ---------------------------------------------------------------------------
# rounds


def make_op(ctx: Context, case: dict) -> Op:
    api, slot = ctx.api, case["slot"]
    template = build_template(api, case["template"]) if "template" in case else None
    if slot.startswith("cell."):
        return Op(slot, "bounds", _cell_call(api, case, template), _check_cell(case))
    if slot.startswith("tstar."):
        return Op(slot, "bounds", _tstar_call(api, case, template), _check_tstar(api, case))
    if slot.startswith("cli.bound"):
        argv, command = _bound_argv(case), "bound"
    elif slot.startswith("cli.tstar"):
        argv, command = _tstar_argv(case), "tstar"
    else:
        argv, command = _sweep_argv(case), "sweep"
    return Op(slot, "cli", lambda: cli_call(ctx, argv), _check_cli(case), cli=command)


def round_ops(ctx: Context, slots: dict[str, list[dict]], rnd: Round) -> list[Op]:
    ops = [make_op(ctx, case) for slot, count in SLOTS.items() for case in rnd.take(slots[slot], count)]
    rnd.rng.shuffle(ops)
    return ops


def warmup_ops(ctx: Context, slots: dict[str, list[dict]]) -> list[Op]:
    """One op per call path, on its cheapest pinned case."""
    picks = []
    for route in ("stats", "graph", "complete"):
        picks.append(min((c for c in slots["cell.small"] if c["route"] == route), key=lambda c: c["n"]))
    for slot in ("cli.bound", "tstar.graph", "tstar.notfound", "cli.tstar", "cli.tstar.notfound", "cli.sweep"):
        picks.append(slots[slot][0])
    return [make_op(ctx, case) for case in picks]
