"""Every pinned bound-grid case, run through the benchmark's own op and check.

The benchmark under perfbench/ pins the bound core's outputs; running those
pins here makes a change that the benchmark would reject fail the tests too.
Nothing under perfbench/ is written: edge-list files go to tmp_path.
"""

import sys
from pathlib import Path

import conngraph
import conngraph.cli

import support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bound_grid  # noqa: E402
from harness import Context, load_pins  # noqa: E402


def test_bound_grid_pins_hold(tmp_path):
    ctx = Context(conngraph, conngraph.cli, support, tmp_path)
    cases = load_pins(bound_grid.NAME)
    failures = []
    for case in cases:
        op = bound_grid.make_op(ctx, case)
        try:
            out = op.call()
        except Exception as exc:  # noqa: BLE001 - the check decides whether it was expected
            out = exc
        error = op.check(out)
        if error is not None:
            failures.append((case["slot"], error))
    assert len(cases) > 600
    assert failures == []
