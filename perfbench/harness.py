"""Pieces shared by the three workloads: ops, templates, CLI calls, checks.

An op is one closed-loop call into the program.  Its ``call`` is the only
timed part; its ``check`` runs afterwards, untimed, on whatever the call
returned or raised, and answers with an error message or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins"


@dataclass
class Op:
    """One timed call, the layer it mainly exercises, and its output check."""

    kind: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    cli: str | None = None


@dataclass
class Context:
    """What a workload's round builder needs besides the pinned cases."""

    api: Any  # the conngraph package
    cli: Any  # conngraph.cli
    support: Any  # tests/support.py, the independent reference oracles
    workdir: Path  # scratch space for edge-list files, inside the checkout
    used_templates: set = field(default_factory=set)
    memo: dict = field(default_factory=dict)


class Round:
    """The inputs of one round: a random stream, and the cases it takes from each pool.

    Each pool is walked in an order fixed by the workload seed, ``count``
    cases a round, so a run of a few dozen rounds covers its pools evenly and
    runs with different seeds do nearly the same mix of work.  A round's
    inputs depend on the workload seed and the round index only.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self.rng = random.Random(f"{workload}:{seed}:{index}:")
        self.order_key = f"{workload}:{seed}:order"
        self.index = index

    def take(self, pool: list[dict], count: int) -> list[dict]:
        order = list(range(len(pool)))
        random.Random(f"{self.order_key}:{pool[0]['slot']}").shuffle(order)
        start = self.index * count
        return [pool[order[(start + k) % len(pool)]] for k in range(count)]


def by_slot(cases: list[dict]) -> dict[str, list[dict]]:
    slots: dict[str, list[dict]] = {}
    for case in cases:
        slots.setdefault(case["slot"], []).append(case)
    return slots


def load_pins(workload: str) -> list[dict]:
    return json.loads((PINS / f"{workload}.json").read_text())["cases"]


# ---------------------------------------------------------------------------
# templates, generated without the program so the program only sees results


def log_uniform_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def tree_with_chords(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """Random recursive spanning tree on a shuffled vertex order plus chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    target = min(n - 1 + chords, n * (n - 1) // 2)
    while len(edges) < target:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def template_edges(spec: dict) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a template spec."""
    kind, n = spec["family"], spec["n"]
    if kind == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "complete-minus-cycle":
        cycle = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
        return n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in cycle]
    if kind == "cycle":
        return n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    if kind == "grid":
        rows, cols = spec["rows"], spec["cols"]
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return n, sorted(edges)
    if kind == "star":
        return n, [(0, i) for i in range(1, n)]
    if kind == "tree":
        return n, tree_with_chords(random.Random(spec["tree_seed"]), n, spec["chords"])
    raise ValueError(f"unknown template family {kind!r}")


def template_stats(spec: dict) -> tuple[int, int, int]:
    """(n, m, sum of squared degrees), computed from the edge list."""
    n, edges = template_edges(spec)
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return n, len(edges), sum(d * d for d in deg)


def build_template(api, spec: dict):
    """Materialise a template through the program's own constructors."""
    if spec["family"] == "complete":
        return api.complete(spec["n"])
    if spec["family"] == "complete-minus-cycle":
        return api.complete_minus_cycle(spec["n"])
    n, edges = template_edges(spec)
    return api.from_edge_list(n, edges)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)


def write_edge_list(path: Path, n: int, edges) -> str:
    lines = [str(n)] + [f"{i} {j}" for i, j in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# CLI


def cli_call(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.cli.main(argv)
    return code, out.getvalue()


def cli_json(out: Any, want_code: int = 0) -> tuple[dict | None, str | None]:
    """Unpack a CLI op's (exit code, stdout) into its JSON payload."""
    if isinstance(out, BaseException):
        return None, f"raised {type(out).__name__}: {out}"
    code, text = out
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    if want_code != 0:
        return {}, None
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------------------
# comparisons


def unexpected(out: Any) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


def close(got: float, want: float, rel: float = 1e-12, abs_tol: float = 1e-15) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol)


def mismatch(name: str, got, want) -> str:
    return f"{name} = {got!r}, expected {want!r}"


def wilson_half(est) -> float:
    return (est.ci_high - est.ci_low) / 2.0


def estimate_agrees(point: float, half: float, pinned_point: float, pinned_half: float) -> bool:
    """Within 4 combined half-widths of the estimate pinned at the seed commit."""
    return abs(point - pinned_point) <= 4.0 * math.hypot(half, pinned_half) + 1e-12


def truth_covered(ci_low: float, ci_high: float, truth: float) -> bool:
    """The Wilson interval widened to 4 half-widths contains the true value."""
    center, half = (ci_low + ci_high) / 2.0, (ci_high - ci_low) / 2.0
    return abs(truth - center) <= 4.0 * half + 1e-12


def first_error(*messages: str | None) -> str | None:
    for message in messages:
        if message:
            return message
    return None
