"""Every pinned bound-grid, exact and mc-verify case, run through the benchmark's own ops and checks.

The benchmark under perfbench/ pins the bound core's, the exact oracle's
and the Monte Carlo estimators' outputs; running those pins here makes a
change that the benchmark would reject fail the tests too.  Nothing under
perfbench/ is written: edge-list files go to tmp_path.
"""

import random
import sys
from pathlib import Path

import conngraph
import conngraph.cli

import support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bound_grid  # noqa: E402
import exact_oracle  # noqa: E402
import mc_verify  # noqa: E402
from harness import Context, build_template, load_pins  # noqa: E402


def _failures(ops):
    failures = []
    for op in ops:
        try:
            out = op.call()
        except Exception as exc:  # noqa: BLE001 - the check decides whether it was expected
            out = exc
        error = op.check(out)
        if error is not None:
            failures.append((op.kind, error))
    return failures


def test_bound_grid_pins_hold(tmp_path):
    ctx = Context(conngraph, conngraph.cli, support, tmp_path)
    cases = load_pins(bound_grid.NAME)
    assert len(cases) > 600
    assert _failures(bound_grid.make_op(ctx, case) for case in cases) == []


def test_exact_oracle_pins_hold(tmp_path):
    # each exact case: a cold call on a fresh relabeling, then warm calls at its other p
    ctx = Context(conngraph, conngraph.cli, support, tmp_path)
    rng = random.Random(0)
    ops = []
    for case in load_pins(exact_oracle.NAME):
        if case["slot"].startswith("exact."):
            ops += exact_oracle.exact_group(ctx, case, rng)
        elif case["slot"] in ("cli.exact", "cli.exact.toomany"):
            ops.append(exact_oracle.make_op(ctx, case, rng))
    kinds = [op.kind for op in ops]
    assert (kinds.count("exact.cold"), kinds.count("exact.warm"), kinds.count("cli.exact.toomany")) == (50, 200, 2)
    assert _failures(ops) == []


def test_exact_oracle_values_are_the_reference_sum_bit_for_bit():
    # every pinned exact template at its pinned p and at both ends, against the sum formed afresh from its profile
    cases = [case for case in load_pins(exact_oracle.NAME) if case["slot"].startswith("exact.") or case["slot"] == "cli.exact"]
    assert len(cases) == 60
    for case in cases:
        g = build_template(conngraph, case["template"])
        counts = conngraph.montecarlo._connected_profile(g)
        for p in case["p"] + [0.0, 1e-9, 0.5, 1 - 1e-9, 1.0]:
            got = conngraph.exact_connectivity(g, p)
            value, terms = support.exact_value(counts, p)
            assert (got.value.hex(), got.terms) == (value.hex(), terms), (case, p)


def test_mc_verify_pins_hold(tmp_path):
    # each estimate within 4 combined half-widths of its pin, and never below the bound
    ctx = Context(conngraph, conngraph.cli, support, tmp_path)
    cases = load_pins(mc_verify.NAME)
    assert len(cases) == 190
    assert _failures(mc_verify.make_op(ctx, case) for case in cases) == []


def test_mc_verify_kernel_matches_the_reference_kernel(monkeypatch):
    # every pinned sparse and coupled template, at 256 trials and its pinned seed:
    # the same estimates, interval bits included, with a search over each row's
    # present edges in place of the count rules and hook and shortcut
    def run(case, template):
        if case["slot"] == "mc.sparse":
            return conngraph.empirical_connectivity(template, case["p"], T=case["T"], trials=256, seed=case["seed"])
        return conngraph.coupled_monotonicity_check(template, case["p"], case["p_high"], 256, seed=case["seed"])

    def reference(tables, present):
        return support.bfs_connected_rows(tables.n, tables.ei, tables.ej, present)

    cases = [case for case in load_pins(mc_verify.NAME) if case["slot"] in ("mc.sparse", "mc.coupled")]
    assert len(cases) == 52
    templates = [build_template(conngraph, case["template"]) for case in cases]
    got = [run(case, template) for case, template in zip(cases, templates)]
    monkeypatch.setattr(conngraph.montecarlo, "_connected_rows", reference)
    assert [run(case, template) for case, template in zip(cases, templates)] == got
