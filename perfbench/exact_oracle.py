"""exact-oracle: exact enumeration, the Jacobi solver and the ell sampler.

Enumeration and Jacobi do nearly all of the work and sampling does none.
Each round enumerates one fresh template per edge count on a ladder up to
m = 20 (cold), and after all of them asks each template at further p values
(warm), which the program answers from its cached subset profile.  Templates are vertex
relabelings of pinned base templates: the connected-subset profile is
invariant under relabeling, so the pinned values hold, while every relabeled
template is new to the program's cache.
"""

from __future__ import annotations

import math
import random

import numpy as np

from harness import (
    Context,
    Op,
    Round,
    build_template,
    cli_call,
    cli_json,
    first_error,
    mismatch,
    relabel,
    template_edges,
    unexpected,
    write_edge_list,
)

NAME = "exact-oracle"

# Cold enumerations per round, by edge count.  Five at m = 16 put the 90th
# latency percentile inside a block of equal ops instead of on the step
# between two sizes.  m = 21 and 22 cost 3 s and 6.5 s at the seed and would
# leave too few rounds per run.
LADDER = (10, 12, 13, 14, 15, 16, 16, 16, 16, 16, 17, 18, 19, 20)
WARM_PER_TEMPLATE = 4
P_PER_BASE = 1 + WARM_PER_TEMPLATE

SLOTS = {
    "cli.exact": 3,
    "cli.exact.toomany": 1,
    "cli.spectrum": 1,
    "jacobi.small": 3,
    "jacobi.large": 3,
    "ell.sampler": 2,
}

POOL_SIZES = {"cli.exact": 10, "cli.exact.toomany": 2, "cli.spectrum": 6, "jacobi.small": 20, "jacobi.large": 20, "ell.sampler": 12}
BASES_PER_M = 5
BRUTE_FORCE_M_MAX = 12


# ---------------------------------------------------------------------------
# pool


def _base(rng: random.Random, slot: str, m: int, n: int) -> dict:
    chords = m - (n - 1)
    spec = {"family": "tree", "n": n, "chords": chords, "tree_seed": rng.getrandbits(32)}
    return {"slot": slot, "template": spec, "p": sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(P_PER_BASE))}


def _vertices_for(m: int) -> int:
    """Two more vertices than the fewest that hold m edges."""
    return math.ceil((1 + math.sqrt(1 + 8 * m)) / 2) + 2


def _spectral_case(rng: random.Random, slot: str) -> dict:
    if slot == "jacobi.small":
        n = rng.randint(5, 12)
    elif slot == "jacobi.large":
        n = rng.randint(13, 40)
    else:
        n = rng.randint(8, 20)
    family = rng.choice(["complete", "complete-minus-cycle", "tree"])
    spec = {"family": family, "n": n}
    if family == "tree":
        spec.update(chords=rng.randint(n // 2, 2 * n), tree_seed=rng.getrandbits(32))
    case = {"slot": slot, "template": spec, "p": rng.uniform(0.3, 0.9), "seed": rng.getrandbits(32)}
    if slot == "ell.sampler":
        case.update(N=rng.randint(3, 10), independent=rng.random() < 0.5)
    return case


def pool(ctx: Context, seed: int) -> list[dict]:
    rng = random.Random(f"{NAME}:pool:{seed}")
    cases = [_base(rng, f"exact.m{m}", m, _vertices_for(m)) for m in sorted(set(LADDER)) for _ in range(BASES_PER_M)]
    # one size, so the CLI latency median sits among equal ops
    cases += [_base(rng, "cli.exact", 10, _vertices_for(10)) for _ in range(POOL_SIZES["cli.exact"])]
    cases += [_base(rng, "cli.exact.toomany", 25, 8) for _ in range(POOL_SIZES["cli.exact.toomany"])]
    for _ in range(POOL_SIZES["cli.spectrum"]):
        # six vertices: a five-vertex template this dense has too few relabelings
        cases.append(_base(rng, "cli.spectrum", 9, 6))
    for slot in ("jacobi.small", "jacobi.large", "ell.sampler"):
        cases += [_spectral_case(rng, slot) for _ in range(POOL_SIZES[slot])]
    return cases


def pin(case: dict, api, ctx: Context) -> dict:
    slot = case["slot"]
    if not (slot.startswith("exact.") or slot == "cli.exact"):
        return {}  # checked live against numpy, or a fixed exit code
    g = build_template(api, case["template"])
    results = [api.exact_connectivity(g, p) for p in case["p"]]
    out = {"terms": results[0].terms, "values": [r.value for r in results]}
    if g.m <= BRUTE_FORCE_M_MAX:
        for p, r in zip(case["p"], results):
            value, count = ctx.support.brute_force_connectivity(g.n, g.edges, p)
            if abs(value - r.value) > 1e-12 or count != r.terms:
                raise AssertionError(f"seed enumeration disagrees with brute force on {case}")
    return out


# ---------------------------------------------------------------------------
# checks


def _brute_force(ctx: Context, case: dict, k: int) -> tuple[float, int]:
    key = ("brute", id(case), k)
    if key not in ctx.memo:
        n, edges = template_edges(case["template"])
        ctx.memo[key] = ctx.support.brute_force_connectivity(n, edges, case["p"][k])
    return ctx.memo[key]


def _exact_error(ctx: Context, case: dict, k: int, value: float, terms: int) -> str | None:
    want = case["out"]
    if abs(value - want["values"][k]) > 1e-12:
        return mismatch("value", value, want["values"][k])
    if terms != want["terms"]:
        return mismatch("terms", terms, want["terms"])
    if case["template"]["n"] - 1 + case["template"]["chords"] <= BRUTE_FORCE_M_MAX:
        bf_value, bf_terms = _brute_force(ctx, case, k)
        if abs(value - bf_value) > 1e-12 or terms != bf_terms:
            return mismatch("value, terms vs brute force", (value, terms), (bf_value, bf_terms))
    return None


def _check_exact(ctx: Context, case: dict, k: int):
    def check(res) -> str | None:
        return unexpected(res) or _exact_error(ctx, case, k, res.value, res.terms)

    return check


def _check_cli(ctx: Context, case: dict, k: int, m: int):
    slot = case["slot"]

    def check(out) -> str | None:
        payload, err = cli_json(out, want_code=5 if slot == "cli.exact.toomany" else 0)
        if err or slot == "cli.exact.toomany":
            return err
        if slot == "cli.spectrum":
            return first_error(
                None if payload["ok"] and payload["mismatches"] == 0 else mismatch("mismatches", payload["mismatches"], 0),
                None if payload["subgraphs"] == 1 << m else mismatch("subgraphs", payload["subgraphs"], 1 << m),
            )
        return _exact_error(ctx, case, k, payload["probability"], payload["connected_subsets"])

    return check


def _laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


def _spectrum_error(got: np.ndarray, matrix: np.ndarray) -> str | None:
    want = np.linalg.eigvalsh(matrix)
    tol = 1e-8 * max(float(np.linalg.norm(matrix)), 1.0)
    if got.shape != want.shape or float(np.max(np.abs(np.sort(got) - want))) > tol:
        return "Jacobi spectrum differs from numpy.linalg.eigvalsh by more than 1e-8 x norm"
    return None


def _check_jacobi(matrix: np.ndarray):
    def check(res) -> str | None:
        return unexpected(res) or _spectrum_error(np.asarray(res.eigenvalues), matrix)

    return check


def _check_ell(ctx: Context, case: dict, parent):
    """Replays the sampler's draws from the same seed with numpy's solver."""

    def check(res) -> str | None:
        err = unexpected(res)
        if err:
            return err
        rng = np.random.default_rng(case["seed"])
        n, N = parent.n, case["N"]
        draws = []
        for _ in range(N if case["independent"] else 1):
            g = ctx.api.sample_graph(parent, case["p"], rng)
            w = np.linalg.eigvalsh(_laplacian(n, g.present))
            draws.extend(w[rng.integers(1, n, size=1 if case["independent"] else N)])
        want = float(min(draws))
        if abs(float(res) - want) > 1e-8 * max(2.0 * max(parent.degrees), 1.0):
            return mismatch("first-order statistic", float(res), want)
        return None

    return check


# ---------------------------------------------------------------------------
# rounds


def _fresh(ctx: Context, rng: random.Random, spec: dict) -> tuple[int, list]:
    """A relabeling of the base template that no earlier op has used."""
    n, edges = template_edges(spec)
    for _ in range(1000):
        new = relabel(rng, n, edges)
        key = (n, tuple(new))
        if key not in ctx.used_templates:
            ctx.used_templates.add(key)
            return n, new
    raise RuntimeError(f"no unused relabeling left of {spec}")


def _file(ctx: Context, n: int, edges) -> str:
    return write_edge_list(ctx.workdir / f"t{len(ctx.used_templates)}.txt", n, edges)


def exact_group(ctx: Context, case: dict, rng: random.Random) -> list[Op]:
    """A cold enumeration on a fresh template, then warm calls at other p."""
    api = ctx.api
    n, edges = _fresh(ctx, rng, case["template"])
    g = api.from_edge_list(n, edges)
    return [
        Op("exact.cold" if k == 0 else "exact.warm", "montecarlo", (lambda p=p: api.exact_connectivity(g, p)), _check_exact(ctx, case, k))
        for k, p in enumerate(case["p"])
    ]


def make_op(ctx: Context, case: dict, rng: random.Random) -> Op:
    api, slot = ctx.api, case["slot"]
    if slot.startswith("cli."):
        n, edges = _fresh(ctx, rng, case["template"])
        path = _file(ctx, n, edges)
        k = rng.randrange(len(case["p"]))
        if slot == "cli.spectrum":
            argv, command = ["spectrum-check", "--edge-list", path, "--json"], "spectrum_check"
        else:
            argv, command = ["exact", "--edge-list", path, "--p", repr(case["p"][k]), "--json"], "exact"
        return Op(slot, "cli", lambda: cli_call(ctx, argv), _check_cli(ctx, case, k, len(edges)), cli=command)
    parent = build_template(api, case["template"])
    if slot == "ell.sampler":
        def call():
            rng_np = np.random.default_rng(case["seed"])
            return api.sample_ell_first_order_statistic(parent, case["p"], case["N"], rng_np, independent_graphs=case["independent"])

        return Op(slot, "spectral", call, _check_ell(ctx, case, parent))
    draw = random.Random(case["seed"])
    kept = [e for e in parent.edges if draw.random() < case["p"]]
    matrix = _laplacian(parent.n, kept)
    return Op(slot, "spectral", lambda: api.eigenvalues_symmetric(matrix), _check_jacobi(matrix))


def round_ops(ctx: Context, slots: dict[str, list[dict]], rnd: Round) -> list[Op]:
    rng = rnd.rng
    rungs = {m: LADDER.count(m) for m in LADDER}
    groups = [exact_group(ctx, case, rng) for m, count in rungs.items() for case in rnd.take(slots[f"exact.m{m}"], count)]
    # Warm calls follow all of the round's cold ones.  Right after its own
    # enumeration a warm call takes about twice as long (the CPU caches are
    # cold), and that step sat right at the median of the op latencies.  A
    # round enumerates 17 templates, so each profile is still in the
    # program's cache, which holds 64.
    first = [group[0] for group in groups]
    first += [make_op(ctx, case, rng) for slot, count in SLOTS.items() for case in rnd.take(slots[slot], count)]
    warm = [op for group in groups for op in group[1:]]
    rng.shuffle(first)
    rng.shuffle(warm)
    return first + warm


def warmup_ops(ctx: Context, slots: dict[str, list[dict]]) -> list[Op]:
    """One op per kind on the cheapest case; each uses a template no timed op will see."""
    rng = random.Random("warmup")
    ops = exact_group(ctx, slots[f"exact.m{LADDER[0]}"][0], rng)[:2]
    for slot in SLOTS:
        case = min(slots[slot], key=lambda c: c["template"]["n"] + c["template"].get("chords", 0))
        ops.append(make_op(ctx, case, rng))
    return ops
