"""The workload process: set up, run one workload as a closed loop, check
every op, and print a JSON summary as the last line of stdout.

Started by run.py, never by hand.  Modes:
  setup    set up exactly as a measuring run would, then exit; reports the
           moment the first timed op would have started
  measure  set up, then run rounds of ops until --seconds have passed
           (with --trace 1: half untraced, half traced)
  probe    run the known-defect probe of the workload, if it has one
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import bound_grid  # noqa: E402
import exact_oracle  # noqa: E402
import mc_verify  # noqa: E402
from harness import Context, Round, by_slot, load_pins  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = {m.NAME: m for m in (bound_grid, mc_verify, exact_oracle)}
TRACE_ROUND_BASE = 1_000_000  # traced rounds have round indices of their own
OUT_DIR = ROOT / ".perfbench"


class Stats:
    """Op outcomes of a run; latencies count only ops of complete rounds,
    so every run's latency sample has the same mix of op kinds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.failed_by_layer: dict[str, int] = {}
        self.op_ms: list[float] = []
        self.cli_ms: list[float] = []
        self._round: list[tuple[float, bool]] = []

    def record(self, op, dt: float, err: str | None) -> None:
        self.attempted += 1
        self._round.append((dt * 1e3, bool(op.cli)))
        if err:
            self.failed += 1
            self.failed_by_layer[op.layer] = self.failed_by_layer.get(op.layer, 0) + 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.kind}: {err}")

    def end_round(self, complete: bool) -> None:
        if complete:
            self.op_ms += [ms for ms, _ in self._round]
            self.cli_ms += [ms for ms, cli in self._round if cli]
        self._round = []


def run_op(op, tracer: Tracer | None, op_id: int) -> tuple[float, str | None]:
    """Time the call, then check its output outside the timed region.

    Any exception is the op's outcome, to be judged by its check: a failed
    op is counted and the run goes on.
    """
    span = None
    if tracer is not None:
        tracer.op, tracer.recording = op_id, True
        span = tracer.open(f"op.{op.kind}")
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # noqa: BLE001 - the check decides whether it was expected
        out = exc
    t1 = time.perf_counter()
    if span is not None:
        tracer.close(span)
        span.start, span.end = t0, t1
        tracer.op, tracer.recording = None, False
    try:
        err = op.check(out)
    except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails the op
        err = f"check raised {type(exc).__name__}: {exc}"
    return t1 - t0, err


def run_pass(module, ctx, slots, args, first_index: int, seconds: float, stats: Stats, tracer=None, first_ops=None):
    """Rounds of ops until the deadline; at least one round always completes.

    Returns (round index, summed op time) for each completed round.
    """
    deadline = time.monotonic() + seconds
    rounds: list[tuple[int, float]] = []
    index = first_index
    while True:
        if tracer is not None:
            tracer.round, tracer.recording = index, True
        ops = first_ops if first_ops is not None else module.round_ops(ctx, slots, Round(module.NAME, args.seed, index))
        first_ops = None
        if tracer is not None:
            tracer.recording = False
        total, done = 0.0, True
        for op in ops:
            if rounds and time.monotonic() >= deadline:
                done = False
                break
            dt, err = run_op(op, tracer, stats.attempted)
            stats.record(op, dt, err)
            total += dt
        stats.end_round(done)
        if not done:
            break
        rounds.append((index, total))
        index += 1
        if time.monotonic() >= deadline:
            break
    return rounds


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas(numpy) -> dict:
    info: dict = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    import ctypes
    import glob

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(numpy, seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure", "probe"), required=True)
    args = parser.parse_args(argv)

    import numpy

    import conngraph
    import conngraph.cli
    import support

    module = WORKLOADS[args.workload]
    if args.mode == "probe":
        result = module.probe(conngraph) if hasattr(module, "probe") else None
        print(json.dumps({"probe": result}))
        return 0

    slots = by_slot(load_pins(args.workload))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = Context(conngraph, conngraph.cli, support, workdir)
        for op in module.warmup_ops(ctx, slots):
            try:
                op.call()
            except Exception as exc:  # noqa: BLE001 - the timed ops will report it
                print(f"warm-up {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        first_ops = module.round_ops(ctx, slots, Round(module.NAME, args.seed, 0))
        first_op = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"first_op": first_op}))
            return 0

        stats = Stats()
        result: dict = {"first_op": first_op}
        if not args.trace:
            rounds = run_pass(module, ctx, slots, args, 0, args.seconds, stats, first_ops=first_ops)
        else:
            rounds = run_pass(module, ctx, slots, args, 0, args.seconds / 2, stats, first_ops=first_ops)
            tracer = Tracer()
            tracer.install(conngraph)
            try:
                traced = run_pass(module, ctx, slots, args, TRACE_ROUND_BASE, args.seconds / 2, stats, tracer=tracer)
            finally:
                tracer.uninstall()
            per_layer = layer_metrics(tracer.spans, [i for i, _ in traced], stats.failed_by_layer)
            plain = statistics.median(t for _, t in rounds)
            per_layer["trace.overhead_frac"] = statistics.median(t for _, t in traced) / plain - 1.0
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            result.update(per_layer=per_layer, spans=str(spans_path.relative_to(ROOT)), traced_round_s=[t for _, t in traced])
        result.update(
            attempted=stats.attempted,
            failed=stats.failed,
            failures=stats.failures,
            failed_by_layer=stats.failed_by_layer,
            round_s=[t for _, t in rounds],
            op_ms=stats.op_ms,
            cli_ms=stats.cli_ms,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=provenance(numpy, args.seed),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
