"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Runs one traced round of each workload in process and checks that every op
passes, that self times are non-negative and sum to no more than the round's
op time, that the checkers flag deliberately wrong results and accept the
expected typed errors, that run.py prints the documented last line, and that
run.py fails without printing a result when the program is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from harness import Context, Round, by_slot, load_pins  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from worker import OUT_DIR, WORKLOADS, Stats, run_pass  # noqa: E402

import conngraph  # noqa: E402
import conngraph.cli  # noqa: E402
import support  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def traced_round(name: str, ctx: Context) -> None:
    module = WORKLOADS[name]
    slots = by_slot(load_pins(name))
    stats = Stats()
    tracer = Tracer()
    tracer.install(conngraph)
    try:
        rounds = run_pass(module, ctx, slots, argparse.Namespace(seed=0), 0, 0.0, stats, tracer=tracer)
    finally:
        tracer.uninstall()
    expect(stats.failed == 0, f"{name}: {stats.attempted} ops, none failed {stats.failures[:3]}")
    wall_ms = rounds[0][1] * 1e3
    expect(min(self_times(tracer.spans).values()) >= 0.0, f"{name}: self times are non-negative")
    metrics = layer_metrics(tracer.spans, [rounds[0][0]], stats.failed_by_layer)
    reported = sum(v for k, v in metrics.items() if k.endswith(".self_ms_per_round"))
    expect(reported <= wall_ms + 1e-6, f"{name}: reported self times sum to {reported:.1f} ms <= wall {wall_ms:.1f} ms")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    expect(wanted == set(metrics), f"{name}: traced run yields every per-layer metric")


def first_op(ops, kind: str):
    return next(op for op in ops if op.kind == kind)


def checker_cases(ctx: Context) -> None:
    rnd = Round("selftest", 0, 0)
    ops = WORKLOADS["bound-grid"].round_ops(ctx, by_slot(load_pins("bound-grid")), rnd)
    cell = first_op(ops, "cell.small")
    res = cell.call()
    expect(cell.check(res) is None, "bound cell: the true result passes")
    wrong = dataclasses.replace(res, probability_lower_bound=res.probability_lower_bound + 1e-9)
    expect(cell.check(wrong) is not None, "bound cell: a bound off by 1e-9 is flagged")
    wrong = dataclasses.replace(res, maximizing_n=res.maximizing_n + 1)
    expect(cell.check(wrong) is not None, "bound cell: a wrong maximizing_n is flagged")
    expect(cell.check(conngraph.InvalidParameter("boom")) is not None, "bound cell: an unexpected error is flagged")
    notfound = first_op(ops, "tstar.notfound")
    try:
        out = notfound.call()
    except conngraph.TStarNotFound as exc:
        out = exc
    expect(notfound.check(out) is None, "T* search: the expected TStarNotFound passes")
    cli4 = first_op(ops, "cli.tstar.notfound")
    expect(cli4.check(cli4.call()) is None, "CLI tstar: the expected exit 4 passes")
    expect(cli4.check((0, "{}")) is not None, "CLI tstar: exit 0 where 4 is expected is flagged")

    ops = WORKLOADS["mc-verify"].round_ops(ctx, by_slot(load_pins("mc-verify")), rnd)
    dense, est = max(((op, op.call()) for op in ops if op.kind == "mc.dense"), key=lambda pair: pair[1].trials)
    expect(dense.check(est) is None, "Monte Carlo: the true estimate passes")
    successes = 0 if est.point > 0.5 else est.trials
    wrong = dataclasses.replace(est, successes=successes, point=successes / est.trials)
    expect(dense.check(wrong) is not None, f"Monte Carlo: an estimate moved to {successes}/{est.trials} is flagged")

    ctx.used_templates.clear()
    ops = WORKLOADS["exact-oracle"].round_ops(ctx, by_slot(load_pins("exact-oracle")), rnd)
    cold = first_op(ops, "exact.cold")
    res = cold.call()
    expect(cold.check(res) is None, "exact: the true value passes")
    expect(cold.check(dataclasses.replace(res, terms=res.terms + 1)) is not None, "exact: a wrong term count is flagged")
    expect(cold.check(dataclasses.replace(res, value=res.value + 1e-9)) is not None, "exact: a value off by 1e-9 is flagged")
    cli5 = first_op(ops, "cli.exact.toomany")
    expect(cli5.check(cli5.call()) is None, "CLI exact: the expected exit 5 passes")


def run_py_output() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        cmd = spec["command"] + ["--workload", "bound-grid", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"run.py --trace {trace}: last line has the four keys")
        names = {m["name"] for m in spec[group]}
        expect(set(last.get("metrics", {})) == names, f"run.py --trace {trace}: reports exactly the {group} metrics")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", "bound-grid", "--seed", "3", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and "correct" not in proc.stdout, "run.py without the program exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        ctx = Context(conngraph, conngraph.cli, support, workdir)
        for name in WORKLOADS:
            traced_round(name, ctx)
        checker_cases(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run_py_output()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
