"""conngraph benchmark: three seeded workloads, checked outputs, one caller.

    python3 perfbench/run.py --workload bound-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own process as a closed loop: one caller, and each
op starts after the previous one returns.  With --trace 0 the run reports
the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs half the
time untraced and half traced and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bound-grid", "mc-verify", "exact-oracle")
SETUPS = 7  # processes set up per run; setup_s is their median
TIME_LIMIT_S = 170.0
PROBED = ("mc-verify",)  # workloads with a known-defect probe


class BenchError(Exception):
    pass


def _worker(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one workload process; return its summary and its start time."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} {mode} process overran the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} {mode} process printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_workload(args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            summary, started = _worker(args, "setup", deadline)
            setups.append(summary["first_op"] - started)
    res, started = _worker(args, "measure", deadline)
    setups.append(res["first_op"] - started)
    probe = _worker(args, "probe", deadline)[0]["probe"] if args.workload in PROBED else None

    if args.trace:
        metrics = dict(res["per_layer"])
        if probe is not None and not probe["ok"]:
            metrics["montecarlo.ops_failed"] += 1
    else:
        metrics = {
            "wall_s": statistics.median(res["round_s"]),
            "op_p50_ms": statistics.median(res["op_ms"]),
            "op_p90_ms": percentile(res["op_ms"], 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "cli_p50_ms": statistics.median(res["cli_ms"]),
        }
    return {"res": res, "probe": probe, "metrics": metrics, "setups": setups}


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(workload: str, args, out: dict, units: dict[str, str]) -> None:
    res, probe = out["res"], out["probe"]
    prov = res["provenance"]
    print(f"== {workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}  (closed loop, one caller)")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    rounds = res["round_s"] + res.get("traced_round_s", [])
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed, {len(rounds)} complete rounds")
    if out["setups"] and not args.trace:
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in out["setups"]))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    if probe is not None:
        state = "passes" if probe["ok"] else "FAILS (known defect: int16 labels in _connected_rows; not counted in `failed`)"
        print(f"note: defect probe {probe['op']}: {probe['successes']}/{probe['expected']} connected, {state}")
    if "spans" in res:
        print(f"spans: {res['spans']}")
    for name, value in out["metrics"].items():
        print(f"{name:<48} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        units = _units()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), deadline)
            report(name, args, results[name], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["res"]["attempted"] for r in results.values())
    failed = sum(r["res"]["failed"] for r in results.values())
    metrics = {}
    for name, r in results.items():
        for metric, value in r["metrics"].items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
