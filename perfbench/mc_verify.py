"""mc-verify: the soundness-check workflow, Monte Carlo against the bound.

Edge sampling, the connectivity kernel and the Laplacian batches do nearly
all of the work.  Dense templates need few kernel passes per trial and
sparse, high-diameter ones need many, which separates pass count from edge
count; unions against single samples separate sampling from the kernel.
"""

from __future__ import annotations

import json
import math
import random
import time

from harness import (
    Context,
    Op,
    Round,
    build_template,
    cli_call,
    cli_json,
    close,
    estimate_agrees,
    first_error,
    load_pins,
    log_uniform_int,
    mismatch,
    template_edges,
    template_stats,
    truth_covered,
    unexpected,
    wilson_half,
)

NAME = "mc-verify"

SLOTS = {
    "mc.dense": 4,
    "mc.sparse": 4,
    "mc.union": 2,
    "mc.coupled": 1,
    "mc.lambda2": 1,
    "mc.ell": 1,
    "cli.simulate": 3,
    "cli.simulate.lambda2": 1,
    "cli.sweep.simulate": 1,
}

POOL_SIZES = {
    "mc.dense": 40,
    "mc.sparse": 40,
    "mc.union": 20,
    "mc.coupled": 12,
    "mc.lambda2": 12,
    "mc.ell": 12,
    "cli.simulate": 30,
    "cli.simulate.lambda2": 12,
    "cli.sweep.simulate": 12,
}

# Trial counts were sized when the pool was first pinned so that every op
# took about TARGET_S, and unions and coupled checks (3 of 20 ops a round)
# twice that: the median then sits inside the large block of equal ops and
# the 90th percentile inside the small one, off the steps between op kinds.
# The sizes are inputs from then on: re-pinning keeps those of the pinned
# file and times only a case that the file does not hold yet.
TARGET_S = 0.06
DOUBLE = ("mc.union", "mc.coupled")

# The known int16 defect: vertex labels wrap at n >= 32768, so this star
# comes out disconnected although at p = 1 every trial keeps every edge.
PROBE = {"family": "star", "n": 40_000, "p": 1.0, "trials": 8, "seed": 0}


# ---------------------------------------------------------------------------
# pool


def _clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


def _dense_spec(rng: random.Random, lo: int, hi: int) -> dict:
    family = rng.choice(["complete", "complete-minus-cycle"])
    return {"family": family, "n": max(5, log_uniform_int(rng, lo, hi))}


def _threshold_p(rng: random.Random, n: int) -> float:
    """Edge probability near the connectivity threshold ln(n)/n."""
    return _clamp(rng.uniform(0.8, 1.6) * math.log(n) / n, 0.02, 0.95)


def _sparse_case(rng: random.Random) -> tuple[dict, float]:
    family = rng.choice(["cycle", "grid", "tree"])
    if family == "cycle":
        n = log_uniform_int(rng, 20, 200)
        return {"family": "cycle", "n": n}, 1.0 - rng.uniform(0.2, 2.0) / n
    if family == "grid":
        rows, cols = rng.randint(4, 12), rng.randint(4, 12)
        return {"family": "grid", "n": rows * cols, "rows": rows, "cols": cols}, rng.uniform(0.75, 0.95)
    n = log_uniform_int(rng, 30, 150)
    spec = {"family": "tree", "n": n, "chords": rng.randint(0, 8), "tree_seed": rng.getrandbits(32)}
    return spec, 1.0 - rng.uniform(0.1, 1.0) / n


def _case(rng: random.Random, slot: str) -> dict:
    case = {"slot": slot, "seed": rng.getrandbits(32), "T": 1, "trials": 200}
    if slot in ("mc.dense", "cli.simulate"):
        spec = _dense_spec(rng, 10, 300 if slot == "mc.dense" else 120)
        case.update(template=spec, p=_threshold_p(rng, spec["n"]))
        if slot == "cli.simulate" and rng.random() < 1 / 3:
            case["T"] = rng.randint(2, 6)
            case["p"] = -math.expm1(math.log1p(-case["p"]) / case["T"])
    elif slot == "mc.sparse":
        spec, p = _sparse_case(rng)
        case.update(template=spec, p=p)
    elif slot == "mc.union":
        spec = _dense_spec(rng, 10, 100)
        T = rng.randint(2, 8)
        p_hat = _threshold_p(rng, spec["n"])
        case.update(template=spec, T=T, p=-math.expm1(math.log1p(-p_hat) / T))
    elif slot == "mc.coupled":
        if rng.random() < 0.5:
            spec = _dense_spec(rng, 10, 150)
            p_high = _threshold_p(rng, spec["n"])
        else:
            spec, p_high = _sparse_case(rng)
        case.update(template=spec, p=p_high * rng.uniform(0.6, 0.95), p_high=p_high)
    elif slot == "cli.sweep.simulate":
        case.update(
            family=rng.choice(["complete", "complete-minus-cycle"]),
            n_values=sorted({rng.randint(5, 40) for _ in range(3)}),
            p_values=[round(rng.uniform(0.3, 0.95), 6) for _ in range(2)],
        )
    else:  # spectral moments, library or CLI
        n = rng.randint(6, 30)
        if slot == "cli.simulate.lambda2":
            spec = {"family": rng.choice(["complete", "complete-minus-cycle"]), "n": n}
        elif rng.random() < 0.5:
            spec = {"family": "tree", "n": n, "chords": rng.randint(2, 2 * n), "tree_seed": rng.getrandbits(32)}
        else:
            spec = {"family": rng.choice(["complete", "complete-minus-cycle"]), "n": n}
        case.update(template=spec, p=rng.uniform(0.3, 0.9))
    return case


def _size_trials(ctx: Context, case: dict) -> None:
    """Scale the trial count until one call takes about its target time."""
    target = TARGET_S * (2 if case["slot"] in DOUBLE else 1)
    template = build_template(ctx.api, case["template"]) if "template" in case else None
    for _ in range(3):
        call = _call(ctx, case, template)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            elapsed.append(time.perf_counter() - t0)
        case["trials"] = int(_clamp(round(case["trials"] * target / min(elapsed)), 2, 100_000))


def _inputs(case: dict) -> str:
    """A case's inputs other than its trial count, as a lookup key."""
    return json.dumps({k: v for k, v in case.items() if k not in ("trials", "out")}, sort_keys=True)


def pool(ctx: Context, seed: int) -> list[dict]:
    rng = random.Random(f"{NAME}:pool:{seed}")
    cases = [_case(rng, slot) for slot, size in POOL_SIZES.items() for _ in range(size)]
    try:
        frozen = {_inputs(case): case["trials"] for case in load_pins(NAME)}
    except FileNotFoundError:
        frozen = {}
    for case in cases:
        if _inputs(case) in frozen:
            case["trials"] = frozen[_inputs(case)]
        else:
            _size_trials(ctx, case)
    return cases


# ---------------------------------------------------------------------------
# calls


def _p_hat(p: float, T: int) -> float:
    return -math.expm1(T * math.log1p(-p)) if p < 1.0 else 1.0


def _known_truth(spec: dict, p: float) -> float | None:
    """Exact connectivity where a closed form exists: cycles and trees."""
    n = spec["n"]
    if spec["family"] == "cycle":
        return p**n + n * p ** (n - 1) * (1.0 - p)
    if spec["family"] == "tree" and spec["chords"] == 0:
        return p ** (n - 1)
    return None


def _flag(spec: dict) -> str:
    return "--complete" if spec["family"] == "complete" else "--complete-minus-cycle"


def _simulate_argv(case: dict) -> list[str]:
    spec = case["template"]
    argv = ["simulate", _flag(spec), str(spec["n"]), "--p", repr(case["p"])]
    if case["T"] > 1:
        argv += ["--T", str(case["T"])]
    argv += ["--trials", str(case["trials"]), "--seed", str(case["seed"])]
    if case["slot"] == "cli.simulate.lambda2":
        argv.append("--lambda2-moments")
    return argv + ["--json"]


def _sweep_argv(case: dict) -> list[str]:
    return [
        "sweep",
        "--family",
        case["family"],
        "--n-values",
        ",".join(str(n) for n in case["n_values"]),
        "--p-values",
        ",".join(repr(p) for p in case["p_values"]),
        "--simulate",
        "--trials",
        str(case["trials"]),
        "--seed",
        str(case["seed"]),
        "--json",
    ]


def _call(ctx: Context, case: dict, template):
    api, slot = ctx.api, case["slot"]
    if slot in ("mc.dense", "mc.sparse", "mc.union"):
        return lambda: api.empirical_connectivity(template, case["p"], T=case["T"], trials=case["trials"], seed=case["seed"])
    if slot == "mc.coupled":
        return lambda: api.coupled_monotonicity_check(template, case["p"], case["p_high"], case["trials"], seed=case["seed"])
    if slot == "mc.lambda2":
        return lambda: api.empirical_lambda2_moments(template, case["p"], case["trials"], seed=case["seed"])
    if slot == "mc.ell":
        return lambda: api.empirical_ell_moments(template, case["p"], case["trials"], seed=case["seed"])
    argv = _simulate_argv(case) if slot.startswith("cli.simulate") else _sweep_argv(case)
    return lambda: cli_call(ctx, argv)


def _est_out(est) -> dict:
    return {"successes": est.successes, "ci_low": est.ci_low, "ci_high": est.ci_high}


def pin(case: dict, api, ctx: Context) -> dict:
    slot = case["slot"]
    template = build_template(api, case["template"]) if "template" in case else None
    res = _call(ctx, case, template)()
    if slot in ("mc.dense", "mc.sparse", "mc.union"):
        return _est_out(res)
    if slot == "mc.coupled":
        return {"low": _est_out(res.low), "high": _est_out(res.high)}
    if slot == "mc.lambda2":
        return {"mean": res.mean, "se_mean": res.se_mean, "mean_sq": res.mean_sq, "se_mean_sq": res.se_mean_sq}
    if slot == "mc.ell":
        return {"mean": res.mean, "se_mean": res.se_mean}
    payload, err = cli_json(res)
    if err:
        raise AssertionError(err)
    if slot == "cli.sweep.simulate":
        return {"rows": [[r["bound"], r["estimate"], r["ci_low"], r["ci_high"]] for r in payload["rows"]]}
    out = {k: payload[k] for k in ("successes", "ci_low", "ci_high", "bound")}
    if "lambda2" in payload:
        out["lambda2"] = {k: payload["lambda2"][k] for k in ("mean", "se_mean", "mean_sq", "se_mean_sq")}
    return out


# ---------------------------------------------------------------------------
# checks


def _estimate_error(name: str, point: float, half: float, want: dict, trials: int) -> str | None:
    want_point = want["successes"] / trials
    want_half = (want["ci_high"] - want["ci_low"]) / 2.0
    if not estimate_agrees(point, half, want_point, want_half):
        return f"{name}: estimate {point!r} not within 4 combined half-widths of pinned {want_point!r}"
    return None


def _bound_error(api, spec: dict, p_hat: float, point: float, half: float) -> str | None:
    """Soundness: the certified bound may not exceed the estimate + 4 half-widths."""
    n, m, deg_sq = spec["stats"]
    if n < 3 or not 0.0 < p_hat < 1.0:
        return None
    bound = api.connectivity_bound_from_stats(n, m, deg_sq, p_hat).probability_lower_bound
    if bound > point + 4.0 * half + 1e-12:
        return f"bound {bound!r} exceeds estimate {point!r} + 4 half-widths"
    return None


def _check_estimate(api, case: dict, est, name: str = "estimate", p: float | None = None, want=None) -> str | None:
    spec = case["template"]
    p_hat = _p_hat(case["p"] if p is None else p, case["T"])
    half = wilson_half(est)
    truth = _known_truth(spec, p_hat)
    return first_error(
        None if est.trials == case["trials"] else mismatch("trials", est.trials, case["trials"]),
        _estimate_error(name, est.point, half, want or case["out"], case["trials"]),
        None if truth is None or truth_covered(est.ci_low, est.ci_high, truth) else f"{name}: truth {truth!r} outside widened interval",
        _bound_error(api, spec, p_hat, est.point, half),
    )


def _moment_error(name: str, got: float, se: float, want: float, want_se: float) -> str | None:
    if abs(got - want) > 4.0 * math.hypot(se, want_se) + 1e-12:
        return f"{name} {got!r} not within 4 combined standard errors of pinned {want!r}"
    return None


def _check(ctx: Context, case: dict):
    api, slot, want = ctx.api, case["slot"], case["out"]

    def check(res) -> str | None:
        if slot.startswith("cli."):
            payload, err = cli_json(res)
            if err:
                return err
            if slot == "cli.sweep.simulate":
                if len(payload["rows"]) != len(want["rows"]):
                    return mismatch("sweep rows", len(payload["rows"]), len(want["rows"]))
                for row, (bound, est, lo, hi) in zip(payload["rows"], want["rows"]):
                    if not close(row["bound"], bound):
                        return mismatch("sweep bound", row["bound"], bound)
                    half = (row["ci_high"] - row["ci_low"]) / 2.0
                    if not estimate_agrees(row["estimate"], half, est, (hi - lo) / 2.0):
                        return mismatch("sweep estimate", row["estimate"], est)
                    if row["bound"] > row["estimate"] + 4.0 * half + 1e-12:
                        return f"sweep bound {row['bound']!r} exceeds estimate + 4 half-widths"
                return None
            half = (payload["ci_high"] - payload["ci_low"]) / 2.0
            err = first_error(
                _estimate_error("estimate", payload["estimate"], half, want, case["trials"]),
                None if payload["sound"] else "verdict UNSOUND",
                None if close(payload["bound"], want["bound"]) else mismatch("bound", payload["bound"], want["bound"]),
            )
            if err or "lambda2" not in want:
                return err
            got, pinned = payload["lambda2"], want["lambda2"]
            return first_error(
                _moment_error("lambda2 mean", got["mean"], got["se_mean"], pinned["mean"], pinned["se_mean"]),
                _moment_error("lambda2 mean_sq", got["mean_sq"], got["se_mean_sq"], pinned["mean_sq"], pinned["se_mean_sq"]),
            )
        err = unexpected(res)
        if err:
            return err
        if slot == "mc.coupled":
            return first_error(
                None if res.dominance_violations == 0 else mismatch("dominance_violations", res.dominance_violations, 0),
                _check_estimate(api, case, res.low, "low", case["p"], want["low"]),
                _check_estimate(api, case, res.high, "high", case["p_high"], want["high"]),
            )
        if slot == "mc.lambda2":
            return first_error(
                _moment_error("mean", res.mean, res.se_mean, want["mean"], want["se_mean"]),
                _moment_error("mean_sq", res.mean_sq, res.se_mean_sq, want["mean_sq"], want["se_mean_sq"]),
            )
        if slot == "mc.ell":
            n, m, _ = case["template"]["stats"]
            truth = 2.0 * m * case["p"] / (n - 1)
            return first_error(
                _moment_error("mean", res.mean, res.se_mean, want["mean"], want["se_mean"]),
                None if abs(res.mean - truth) <= 4.0 * res.se_mean + 1e-12 else mismatch("ell mean vs 2mp/(n-1)", res.mean, truth),
            )
        return _check_estimate(api, case, res)

    return check


def _check_repeat(first: list):
    def check(res) -> str | None:
        err = unexpected(res)
        if err:
            return err
        if not first or isinstance(first[0], BaseException):
            return "the repeated op's first run did not return an estimate"
        if res.successes != first[0].successes:
            return mismatch("repeated successes", res.successes, first[0].successes)
        return None

    return check


# ---------------------------------------------------------------------------
# rounds


def make_op(ctx: Context, case: dict) -> Op:
    slot = case["slot"]
    template = None
    if "template" in case:
        case["template"].setdefault("stats", template_stats(case["template"]))
        template = build_template(ctx.api, case["template"])
    cli = None
    if slot.startswith("cli.simulate"):
        cli = "simulate"
    elif slot.startswith("cli.sweep"):
        cli = "sweep"
    return Op(slot, "cli" if cli else "montecarlo", _call(ctx, case, template), _check(ctx, case), cli=cli)


def round_ops(ctx: Context, slots: dict[str, list[dict]], rnd: Round) -> list[Op]:
    ops = [make_op(ctx, case) for slot, count in SLOTS.items() for case in rnd.take(slots[slot], count)]
    rnd.rng.shuffle(ops)
    # the first dense op runs again at the end of the round, same inputs and
    # seed, and must return identical successes
    original = next(op for op in ops if op.kind == "mc.dense")
    first: list = []
    call = original.call

    def remember():
        res = call()
        first.append(res)
        return res

    original.call = remember
    ops.append(Op("mc.repeat", "montecarlo", call, _check_repeat(first)))
    return ops


def warmup_ops(ctx: Context, slots: dict[str, list[dict]]) -> list[Op]:
    """One op per slot, on its smallest template."""
    def size(case: dict) -> int:
        return case["template"]["n"] if "template" in case else sum(case["n_values"])

    return [make_op(ctx, min(cases, key=size)) for cases in slots.values()]


def probe(api) -> dict:
    """The known-defect probe: a star past the int16 label range at p = 1."""
    n, edges = template_edges(PROBE)
    star = api.from_edge_list(n, edges)
    est = api.empirical_connectivity(star, PROBE["p"], trials=PROBE["trials"], seed=PROBE["seed"])
    return {
        "op": f"empirical_connectivity(star n={n}, p=1, trials={PROBE['trials']})",
        "successes": est.successes,
        "expected": PROBE["trials"],
        "ok": est.successes == PROBE["trials"],
    }
