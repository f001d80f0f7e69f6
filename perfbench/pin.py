"""Record the program's outputs on every pooled case: the pinned references.

    python3 perfbench/pin.py

Run at the commit whose outputs become the reference.  Each workload's pool
of inputs is drawn from a fixed pool seed; a run's workload seed then picks
its ops from the pool, so any seed is checked against pinned outputs.  Bound
cells with n <= 1e4 and enumerations with m <= 12 are also compared with
the naive oracles in tests/support.py, and pinning stops if they disagree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from harness import PINS, Context  # noqa: E402
from worker import WORKLOADS, provenance  # noqa: E402

POOL_SEED = 20261017


def main() -> int:
    import numpy

    import conngraph
    import conngraph.cli
    import support

    PINS.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    ctx = Context(conngraph, conngraph.cli, support, workdir)
    for name, module in WORKLOADS.items():
        t0 = time.perf_counter()
        cases = module.pool(ctx, POOL_SEED)
        for case in cases:
            case["out"] = module.pin(case, conngraph, ctx)
        prov = provenance(numpy, POOL_SEED)
        header = {"pool_seed": POOL_SEED, "src_sha256": prov["src_sha256"], "git_commit": prov["git_commit"]}
        text = json.dumps({"pinned_with": header, "cases": cases}, separators=(",", ":"))
        (PINS / f"{name}.json").write_text(text + "\n")
        print(f"{name}: {len(cases)} cases pinned in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
