import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from conngraph import cli, connectivity_bound_complete, exact_connectivity, complete
from conngraph.cli import EXIT_BROKEN_PIPE, _monotonicity_notes, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "output-schema.json").read_text())
Draft202012Validator.check_schema(SCHEMA)
VALIDATOR = Draft202012Validator(SCHEMA)
# each command's JSON keys, in the order its schema lists them
KEY_ORDER = {
    spec["properties"]["command"]["const"]: list(spec["properties"])
    for spec in SCHEMA["$defs"].values()
    if "command" in spec.get("properties", {})
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    # key order is part of the output: the keys come in the schema's order
    assert list(payload) == [key for key in KEY_ORDER[payload["command"]] if key in payload]
    return payload


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "no data rows"
    return rows


def test_bound_text(capsys):
    code, out, err = run_cli(capsys, "bound", "--complete", "3", "--p", "0.5")
    assert code == 0
    assert "bound" in out
    assert "maximizing N" in out


def test_bound_json_schema(capsys):
    payload = run_json(capsys, "bound", "--complete", "3", "--p", "0.999", "--json")
    assert payload["command"] == "bound"
    assert payload["bound"] == pytest.approx(0.90, abs=0.01)
    assert payload["n_star"] == 3
    assert payload["exact"] is False


def test_bound_tiny_template_is_exact(capsys):
    payload = run_json(capsys, "bound", "--complete", "2", "--p", "0.3", "--T", "2", "--json")
    assert payload["exact"] is True
    assert payload["bound"] == pytest.approx(0.51, rel=1e-12)
    single = run_json(capsys, "bound", "--complete", "1", "--p", "0.5", "--json")
    assert single["bound"] == 1.0


def test_bound_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "bound.csv"
    code, _, _ = run_cli(
        capsys, "bound", "--complete", "5", "--p", "0.7", "--csv", str(out_path)
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 1
    parsed = float(rows[0]["bound"])
    assert parsed == connectivity_bound_complete(5, 0.7).probability_lower_bound
    # 17 significant digits survive a rewrite
    assert "%.17g" % parsed == rows[0]["bound"]


def test_tstar_json(capsys):
    payload = run_json(capsys, "tstar", "--complete", "3", "--p", "0.5", "--epsilon", "0.2", "--json")
    assert payload["t_star"] == 8
    assert payload["bound_at_t_star"] >= 0.8
    assert payload["trace_length"] == 8


def test_tstar_json_past_2_63_horizons(capsys):
    payload = run_json(capsys, "tstar", "--complete", "1000", "--p", "1e-20", "--epsilon", "0.1", "--t-max", str(10**30), "--json")
    assert payload["trace_length"] == payload["t_star"] > 2**63


def test_tstar_not_found_exit_code_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys,
        "tstar", "--complete", "3", "--p", "0.5",
        "--epsilon", "0.01", "--t-max", "5", "--csv", str(trace_path),
    )
    assert code == 4
    assert "no horizon" in err
    rows = parse_csv(trace_path.read_text())
    assert len(rows) == 5
    assert [int(r["T"]) for r in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["estimate"] == ""  # unused columns stay empty


@pytest.mark.parametrize("n, t_star, bound", [(2, 3, 0.875), (1, 1, 1.0)])
def test_tstar_tiny_template_searches_its_exact_probability(capsys, n, t_star, bound):
    # the cell of `bound` for n <= 2: one vertex is connected, two need their edge
    payload = run_json(capsys, "tstar", "--complete", str(n), "--p", "0.5", "--epsilon", "0.2", "--json")
    assert (payload["n"], payload["t_star"], payload["bound_at_t_star"], payload["trace_length"]) == (n, t_star, bound, t_star)


def test_tstar_tiny_template_not_found_exit_code_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys,
        "tstar", "--complete", "2", "--p", "1e-6",
        "--epsilon", "0.2", "--t-max", "1000", "--csv", str(trace_path),
    )
    assert code == 4 and out == ""
    best = -math.expm1(1000 * math.log1p(-1e-6))
    assert err == f"error: no horizon up to 1000 reaches bound 0.8 (best {best} at T=1000)\n"
    rows = parse_csv(trace_path.read_text())
    assert [int(r["T"]) for r in rows] == list(range(1, 1001))
    assert all(r["bound"] == r["p_hat"] and r["n_star"] == "" for r in rows)


def test_simulate_json_schema_and_soundness(capsys):
    payload = run_json(
        capsys,
        "simulate", "--complete", "4", "--p", "0.6",
        "--trials", "4000", "--seed", "9", "--json",
    )
    assert payload["trials"] == 4000
    assert payload["sound"] is True
    assert payload["ci_low"] <= payload["estimate"] <= payload["ci_high"]


def test_simulate_lambda2_block(capsys):
    payload = run_json(
        capsys,
        "simulate", "--complete", "3", "--p", "0.5",
        "--trials", "2000", "--lambda2-moments", "--json",
    )
    assert "lambda2" in payload
    assert payload["lambda2"]["trials"] == 2000


def test_simulate_csv_stdout_skips_lambda2_moments(capsys, monkeypatch):
    # the stdout CSV has no lambda2 columns, so the moments are never computed
    argv = ("simulate", "--complete", "12", "--p", "0.5", "--trials", "300", "--csv", "-")
    plain = run_cli(capsys, *argv)

    def unused(*args, **kwargs):
        raise AssertionError("lambda2 moments computed for --csv -")

    monkeypatch.setattr("conngraph.cli.empirical_lambda2_moments", unused)
    assert run_cli(capsys, *argv, "--lambda2-moments") == plain
    assert plain[0] == 0 and plain[2] == ""


@pytest.mark.parametrize("render", [(), ("--json",), ("--csv", "-"), ("--csv", "PATH")])
def test_simulate_lambda2_one_vertex_is_a_usage_error(capsys, tmp_path, render):
    render = tuple(str(tmp_path / "rows.csv") if r == "PATH" else r for r in render)
    argv = ("simulate", "--complete", "1", "--p", "0.5", "--lambda2-moments", *render)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: n must be an integer >= 2, got 1\n")
    assert not (tmp_path / "rows.csv").exists()


def test_simulate_bit_reproducible(capsys):
    args = ("simulate", "--complete", "5", "--p", "0.4", "--trials", "3000", "--seed", "77")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_union_matches_collapsed(capsys):
    # union of 3 layers at p = 0.3 behaves like a single draw at 0.657
    payload = run_json(
        capsys,
        "simulate", "--complete", "6", "--p", "0.3", "--T", "3",
        "--trials", "20000", "--seed", "2", "--json",
    )
    assert payload["p_hat"] == pytest.approx(0.657, rel=1e-12)
    exact = exact_connectivity(complete(6), 0.657).value
    assert payload["ci_low"] <= exact <= payload["ci_high"]


def test_exact_json(capsys):
    payload = run_json(capsys, "exact", "--complete", "4", "--p", "0.5", "--json")
    assert payload["probability"] == 0.59375
    assert payload["connected_subsets"] == 38
    assert payload["total_subsets"] == 64


def test_exact_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "exact", "--complete", "8", "--p", "0.5")
    assert code == 5
    assert "cap" in err


def test_negative_seed_is_a_typed_usage_error(capsys):
    for argv in (
        ["simulate", "--complete", "5", "--p", "0.5", "--seed", "-1"],
        ["sweep", "--family", "complete", "--n-values", "5", "--p-values", "0.5", "--simulate", "--seed", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: seed must be an integer >= 0, got -1\n"


def test_bad_confidence_is_a_usage_error_before_sampling(capsys, monkeypatch):
    def sampled(*args):
        raise AssertionError("a trial was drawn before confidence was checked")

    monkeypatch.setattr("conngraph.montecarlo._connected_rows", sampled)
    simulate = ["simulate", "--complete", "60", "--p", "0.1", "--trials", "20000"]
    sweep = ["sweep", "--family", "complete", "--n-values", "60", "--p-values", "0.1", "--simulate"]
    for argv in (simulate + ["--confidence", "1.5"], sweep + ["--confidence", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: confidence must lie in (0, 1), got {float(argv[-1])}\n"
    monkeypatch.setenv("CONNGRAPH_CONFIDENCE", "1.5")
    for argv in (simulate, sweep):
        assert run_cli(capsys, *argv) == (2, "", "error: confidence must lie in (0, 1), got 1.5\n")


def test_disconnected_template_exit_code(capsys, tmp_path):
    bad = tmp_path / "disc.txt"
    bad.write_text("4\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "bound", "--edge-list", str(bad), "--p", "0.5")
    assert code == 3
    code, _, _ = run_cli(capsys, "bound", "--complete-minus-cycle", "4", "--p", "0.5")
    assert code == 3
    # a declared vertex count far above the edge count fails before anything is built
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000000\n0 1\n")
    code, _, err = run_cli(capsys, "bound", "--edge-list", str(huge), "--p", "0.5")
    assert code == 3 and "not connected" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--complete", "9007199254740993", "--p", "0.5"],
        ["bound", "--complete-minus-cycle", "9007199254740993", "--p", "0.5", "--json"],
        ["tstar", "--complete", "9007199254740993", "--p", "0.5", "--epsilon", "0.1"],
        ["tstar", "--complete-minus-cycle", "9007199254740993", "--p", "0.5", "--epsilon", "0.1"],
        ["sweep", "--family", "complete", "--n-values", "10,9007199254740993", "--p-values", "0.5"],
    ],
)
def test_n_above_2_53_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "bounds need n <= 2**53" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "bound", "--complete", "3", "--p", "1.0")[0] == 2
    assert run_cli(capsys, "bound", "--complete", "3", "--p", "-0.5")[0] == 2
    assert run_cli(capsys, "simulate", "--complete", "3", "--p", "0.5", "--trials", "0")[0] == 2
    assert run_cli(capsys, "bound", "--p", "0.5")[0] == 2  # no template given
    assert run_cli(capsys, "tstar", "--complete", "3", "--p", "0.5")[0] == 2  # no epsilon
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "sweep", "--family", "complete", "--p-values", "0.5")[0] == 2
    assert (
        run_cli(
            capsys, "bound", "--complete", "3", "--p", "0.5", "--json", "--csv", "-"
        )[0]
        == 2
    )


def test_missing_edge_list_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bound", "--edge-list", "/no/such/file", "--p", "0.5")
    assert code == 2
    assert run_cli(capsys, "bound", "--edge-list", str(tmp_path), "--p", "0.5")[0] == 2
    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe3\n0 1\n")
    code, _, err = run_cli(capsys, "exact", "--edge-list", str(utf16), "--p", "0.5")
    assert code == 2 and err.startswith(f"error: {utf16}: edge list must be UTF-8 text, ")


def test_edge_list_through_cli(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n4\n0 1\r\n1 2\n2 3\n0 3\n")
    payload = run_json(capsys, "bound", "--edge-list", str(path), "--p", "0.9", "--json")
    assert payload["family"] == "edge-list"
    assert payload["n"] == 4


def test_sweep_stdout_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "complete",
        "--n-values", "3,10", "--p-values", "0.8,0.9,0.999",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,p,T,p_hat,bound,n_star,estimate,ci_low,ci_high"
    rows = parse_csv(out)
    assert len(rows) == 6
    # row-major: n outer, p inner
    assert [r["n"] for r in rows] == ["3", "3", "3", "10", "10", "10"]
    for r in rows:
        assert 0.0 <= float(r["bound"]) <= 1.0


def test_sweep_json_schema(capsys):
    payload = run_json(
        capsys,
        "sweep", "--family", "complete-minus-cycle",
        "--n-values", "6,8", "--p-values", "0.9,0.99", "--json",
    )
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["family"] == "complete-minus-cycle"


def test_sweep_simulate_columns(capsys):
    payload = run_json(
        capsys,
        "sweep", "--family", "complete", "--n-values", "4",
        "--p-values", "0.7", "--simulate", "--trials", "400", "--json",
    )
    row = payload["rows"][0]
    assert row["estimate"] is not None
    assert row["ci_low"] <= row["estimate"] <= row["ci_high"]


def test_sweep_single_cell_matches_bound(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "bound", "--complete", "6", "--p", "0.85", "--csv", str(a))
    run_cli(
        capsys,
        "sweep", "--family", "complete", "--n-values", "6", "--p-values", "0.85",
        "--csv", str(b),
    )
    assert a.read_text() == b.read_text()


def test_sweep_with_horizon(capsys):
    payload = run_json(
        capsys,
        "sweep", "--family", "complete", "--n-values", "5",
        "--p-values", "0.3", "--T", "4", "--json",
    )
    row = payload["rows"][0]
    assert row["T"] == 4
    assert row["p_hat"] == pytest.approx(1 - 0.7**4, rel=1e-12)


def test_sweep_edge_list(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    payload = run_json(capsys, "sweep", "--edge-list", str(path), "--p-values", "0.5,0.9", "--json")
    assert [r["family"] for r in payload["rows"]] == ["edge-list", "edge-list"]
    code, _, _ = run_cli(
        capsys, "sweep", "--edge-list", str(path), "--n-values", "5", "--p-values", "0.5"
    )
    assert code == 2  # n comes from the file, the flags conflict


def test_sweep_simulate_skips_edge_lists_above_the_cap(capsys, tmp_path):
    # the MC columns stop above n = MC_SWEEP_N_CAP for edge-list templates too
    for n, simulated in [(cli.MC_SWEEP_N_CAP, True), (cli.MC_SWEEP_N_CAP + 1, False)]:
        path = tmp_path / f"path{n}.txt"
        path.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        argv = ("sweep", "--edge-list", str(path), "--p-values", "0.9", "--simulate", "--trials", "5", "--csv", "-")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        [row] = parse_csv(out)
        assert row["n"] == str(n)
        assert all((row[col] != "") == simulated for col in ("estimate", "ci_low", "ci_high")), row


def test_sweep_csv_reparse_identical(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    run_cli(
        capsys,
        "sweep", "--family", "complete", "--n-values", "3,5,9",
        "--p-values", "0.85,0.95", "--csv", str(out_path),
    )
    rows = parse_csv(out_path.read_text())
    for row in rows:
        n, p = int(row["n"]), float(row["p"])
        expected = connectivity_bound_complete(n, p).probability_lower_bound
        assert float(row["bound"]) == expected


def test_sweep_csv_file_next_to_any_report(capsys, tmp_path):
    argv = ("sweep", "--family", "complete", "--n-values", "4,6", "--p-values", "0.9")
    path = tmp_path / "grid.csv"
    payload = run_json(capsys, *argv, "--json", "--csv", str(path))
    assert len(payload["rows"]) == 2
    code, grid, _ = run_cli(capsys, *argv)  # no file: the grid goes to stdout
    assert code == 0
    assert path.read_text() == grid
    path.unlink()
    code, out, _ = run_cli(capsys, *argv, "--csv", str(path))
    assert code == 0
    assert out == ""  # a file was given, so stdout stays empty
    assert path.read_text() == grid


def test_monotonicity_notes_helper():
    increasing = [
        {"family": "complete", "n": 5, "p": 0.5, "bound": 0.1},
        {"family": "complete", "n": 5, "p": 0.9, "bound": 0.8},
    ]
    assert _monotonicity_notes(increasing) == []
    dip = [
        {"family": "complete", "n": 5, "p": 0.5, "bound": 0.4},
        {"family": "complete", "n": 5, "p": 0.9, "bound": 0.1},
    ]
    notes = _monotonicity_notes(dip)
    assert len(notes) == 1
    assert "n=5" in notes[0]


def test_spectrum_check_json(capsys):
    payload = run_json(capsys, "spectrum-check", "--complete", "4", "--json")
    assert payload["subgraphs"] == 64
    assert payload["mismatches"] == 0
    assert payload["ok"] is True


def test_spectrum_check_default_template(capsys):
    code, out, _ = run_cli(capsys, "spectrum-check")
    assert code == 0
    assert "1024 subgraphs" in out
    assert "OK" in out


def test_spectrum_check_reports_mismatches(capsys, monkeypatch):
    # a kernel that calls every subset disconnected disagrees with the spectral test on each connected one
    monkeypatch.setattr("conngraph.spectral._connected_rows", lambda tables, present: np.zeros(len(present), dtype=bool))
    connected = exact_connectivity(complete(4), 0.5).terms  # 38 for K4
    code, out, _ = run_cli(capsys, "spectrum-check", "--complete", "4", "--json")
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    assert code == 1
    assert payload["ok"] is False and payload["mismatches"] == connected == 38
    code, out, _ = run_cli(capsys, "spectrum-check", "--complete", "4")
    assert code == 1
    assert "MISMATCH (38 mismatches" in out


def test_spectrum_check_edge_cap(capsys):
    code, _, err = run_cli(capsys, "spectrum-check", "--complete", "7")
    assert code == 5
    assert "cap" in err


def test_env_overrides(capsys, monkeypatch):
    # read on every call: a changed value is the next call's default, filled
    # in after parsing, so one parser serves every call in the process
    cli._build_parser.cache_clear()
    for trials in (123, 45):
        monkeypatch.setenv("CONNGRAPH_TRIALS", str(trials))
        payload = run_json(capsys, "simulate", "--complete", "3", "--p", "0.5", "--json")
        assert payload["trials"] == trials
    assert cli._build_parser.cache_info().misses == 1


TEMPLATE = "(--complete N | --complete-minus-cycle N | --edge-list PATH)"
MC = "[--trials TRIALS] [--seed SEED] [--confidence CONFIDENCE]"
OUTPUT = "[--json] [--csv PATH]"


@pytest.mark.parametrize(
    "command, options",
    [
        ("bound", f"{TEMPLATE} --p P [--T N] [--n-cap N_CAP] {OUTPUT}"),
        ("tstar", f"{TEMPLATE} --p P --epsilon EPSILON [--t-max T_MAX] [--n-cap N_CAP] {OUTPUT}"),
        ("simulate", f"{TEMPLATE} --p P [--T N] {MC} [--lambda2-moments] [--n-cap N_CAP] {OUTPUT}"),
        ("exact", f"{TEMPLATE} --p P [--T N] {OUTPUT}"),
        (
            "sweep",
            "(--family {complete,complete-minus-cycle} | --edge-list PATH) [--n-values LIST] --p-values LIST "
            f"[--T N] [--simulate] {MC} [--n-cap N_CAP] {OUTPUT}",
        ),
        ("spectrum-check", "[--complete N | --complete-minus-cycle N | --edge-list PATH] [--json]"),
    ],
)
def test_every_subcommand_keeps_its_option_set(capsys, monkeypatch, command, options):
    # a wide terminal puts the whole usage on one line: option strings, order and which are required
    monkeypatch.setenv("COLUMNS", "400")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.splitlines()[0] == f"usage: conngraph {command} [-h] {options}"


def test_env_override_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CONNGRAPH_T_MAX", "soon")
    for _ in range(2):
        code, _, err = run_cli(capsys, "bound", "--complete", "3", "--p", "0.5")
        assert code == 2
        assert "CONNGRAPH_T_MAX" in err
    monkeypatch.delenv("CONNGRAPH_T_MAX")
    assert run_cli(capsys, "bound", "--complete", "3", "--p", "0.5")[0] == 0


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # one process runs them in turn; no flag, default or rewrite carries over
    # from one call to the next, so each prints what a new process prints,
    # help, version and the top-level parser's errors included
    monkeypatch.setenv("COLUMNS", "80")  # help wraps alike with or without a terminal
    for argv in [
        ["bound", "--complete", "7", "--p", "0.4", "--T", "3", "--json"],
        ["bound", "--complete", "7", "--p", "0.4"],
        ["sweep", "--family", "complete", "--n-values", "5,9", "--p-values", "0.3,0.8"],
        ["bound", "--complete-minus-cycle", "8", "--p", "0.6"],
        [],
        ["--version"],
        ["bound", "-h"],
        ["nope"],
        ["bound", "--complete", "5", "--p", "0.4", "--bogus"],
        ["--json", "bound", "--complete", "5", "--p", "0.4"],
    ]:
        fresh = subprocess.run([sys.executable, "-m", "conngraph", *argv], capture_output=True, text=True)
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


EDGES = "EDGES"  # stands for an edge-list file the tests write: a 4-cycle with a chord


def _parse_corpus():
    """argv for the one-parse tests, in four groups.

    well: they parse into a command; every command x template form x output
    form, with --p=, a repeated flag and an abbreviation among them.
    command: the command's own parser rejects them or prints its help.
    top: only the top-level parser words them, with help, version or an error.
    dashes: a -- among the command's tokens; argparse versions differ on whether
    the command's parser takes it, so these are only compared across the two routes.
    """
    templates = [("--complete", "4"), ("--complete-minus-cycle", "6"), ("--edge-list", EDGES), ("--complete-m", "6")]
    outputs = [(), ("--json",), ("--csv", "-")]
    flags = {
        "bound": ("--p", "0.4", "--T", "3"),
        "tstar": ("--p", "0.4", "--epsilon", "0.1", "--t-max", "50"),
        "simulate": ("--p", "0.4", "--trials", "20"),
        "exact": ("--p", "0.4"),
    }
    bound = ["bound", "--complete", "5", "--p", "0.4"]
    groups = {"well": [], "command": [], "top": [], "dashes": []}
    for command, rest in flags.items():
        for template in templates:
            for output in outputs:
                groups["well"] += [
                    [command, *template, *rest, *output],
                    [command, *template, "--p=0.4", *rest[2:], *output],
                    [command, *template, "--p", "0.9", *rest, *output],
                ]
        groups["command"].append([command, "--comp", "4", *rest])  # ambiguous: --complete or --complete-minus-cycle
        groups["dashes"] += [[command, *templates[0], *rest, "--"], [command, *templates[0], "--", *rest]]
    for template in [("--family", "complete", "--n-values", "4,5"), ("--edge-list", EDGES), ("--fam", "complete", "--n-v", "6")]:
        for output in outputs:
            groups["well"] += [
                ["sweep", *template, "--p-values", "0.3,0.8", *output],
                ["sweep", *template, "--p-values=0.5", "--p-values", "0.3,0.8", "--T", "2", *output],
            ]
    for template in [(), *templates]:
        groups["well"] += [["spectrum-check", *template], ["spectrum-check", *template, "--json"]]
        groups["top"].append(["spectrum-check", *template, "--csv", "-"])
    groups["command"] += [
        ["bound", "-h"], ["sweep", "--help"], ["bound", "--bogus", "-h"], ["spectrum-check", "--comp", "4"],
        ["bound", "--complete", "5"], ["tstar", *bound[1:]], ["sweep", "--family", "complete", "--n-values", "5"],
        ["bound", "--p", "0.4"], ["bound", "--complete", "five", "--p", "0.4"], ["bound", "--complete", "5", "--p", "x"],
        ["sweep", "--family", "cube", "--n-values", "5", "--p-values", "0.3"],
        [*bound, "--complete-minus-cycle", "6"], ["sweep", "--family", "complete", "--edge-list", EDGES, "--p-values", "0.3"],
        [*bound, "--T"],
    ]
    groups["top"] += [
        [], ["-h"], ["--help"], ["--version"], ["--vers"], ["-h", "bound"], ["--version", *bound],
        ["nope"], ["nope", "--complete", "5"], ["Bound", *bound[1:]], ["boun", *bound[1:]], ["-"], ["--", *bound],
        ["--json", *bound], ["--complete", "5", "bound", "--p", "0.4"],
        [*bound, "--bogus"], [*bound, "--bogus=1", "--json"], [*bound, "--vers"], [*bound, "-q"],
        [*bound, "extra"], ["bound", "extra", *bound[1:]], ["spectrum-check", "--complete", "4", "--trials", "3"],
    ]
    return groups


@pytest.fixture
def corpus(tmp_path):
    edges = tmp_path / "chorded-cycle.txt"
    edges.write_text("4\n0 1\n1 2\n2 3\n3 0\n0 2\n")
    return {
        group: [[str(edges) if token == EDGES else token for token in argv] for argv in argvs]
        for group, argvs in _parse_corpus().items()
    }


def _run_all(capsys, monkeypatch, argvs):
    """Each argv's (exit code, stdout, stderr), and the namespace `main` checks, None where parsing stopped."""
    namespaces = []

    def record(args):
        namespaces[-1] = list(vars(args).items())  # in order, as the parser set them
        return check(args)

    check = cli._check_flags
    monkeypatch.setattr(cli, "_check_flags", record)
    outcomes = []
    for argv in argvs:
        namespaces.append(None)
        outcomes.append(run_cli(capsys, *argv))
    monkeypatch.setattr(cli, "_check_flags", check)
    return outcomes, namespaces


def test_one_parse_matches_the_top_level_route(capsys, monkeypatch, corpus):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [argv for group in corpus.values() for argv in group]
    assert len(argvs) >= 150
    outcomes, namespaces = _run_all(capsys, monkeypatch, argvs)
    # with no command parser to hand, `main` routes every call through the top-level parser
    monkeypatch.setattr(cli._build_parser(), "commands", {})
    assert (outcomes, namespaces) == _run_all(capsys, monkeypatch, argvs)
    parsed = [argv for argv, ns in zip(argvs, namespaces) if ns is not None]
    assert parsed[: len(corpus["well"])] == corpus["well"]
    assert {code for code, _, _ in outcomes} == {0, 2, 4}  # tstar --t-max 50 misses on the sparse templates


def test_top_level_parser_parses_only_what_it_words(capsys, monkeypatch, corpus):
    parser = cli._build_parser()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    parse = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", spy)
    for group, top in [("well", False), ("command", False), ("top", True)]:
        for argv in corpus[group]:
            calls.clear()
            run_cli(capsys, *argv)
            assert bool(calls) is top, argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, corpus):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [argv for group in corpus.values() for argv in group[::3]]:
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["conngraph", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, argv


N_CAP_COMMANDS = {
    "bound": ("bound", "--complete", "5", "--p", "0.5"),
    "tstar": ("tstar", "--complete", "5", "--p", "0.5", "--epsilon", "0.1"),
    "simulate": ("simulate", "--complete", "5", "--p", "0.5", "--trials", "50"),
    "sweep": ("sweep", "--family", "complete", "--n-values", "5", "--p-values", "0.5"),
}


@pytest.mark.parametrize("n_cap", ["1", "0", "-3"])
@pytest.mark.parametrize("command", sorted(N_CAP_COMMANDS))
def test_n_cap_below_two_is_a_usage_error(capsys, monkeypatch, command, n_cap):
    message = f"error: n_cap must be an integer >= 2, got {n_cap}\n"
    code, out, err = run_cli(capsys, *N_CAP_COMMANDS[command], "--n-cap", n_cap)
    assert (code, out, err) == (2, "", message)
    monkeypatch.setenv("CONNGRAPH_N_CAP", n_cap)
    code, out, err = run_cli(capsys, *N_CAP_COMMANDS[command])
    assert (code, out, err) == (2, "", message)


def three_renderings(capsys, *argv):
    """The JSON payload, the CSV rows and the text lines of one invocation."""
    payload = run_json(capsys, *argv, "--json")
    code, out, err = run_cli(capsys, *argv, "--csv", "-")
    assert code == 0, err
    rows = parse_csv(out)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    text = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in out.splitlines())
    return payload, rows, text


def assert_agree(payload, row, text, fields):
    """Each (text label, JSON key, CSV column) names one value in all three renderings."""
    for label, key, column in fields:
        value = payload[key]
        if label is not None:
            assert text[label] == ("%.12g" % value if isinstance(value, float) else str(value)), label
        if column is not None:
            assert row[column] == ("%.17g" % value if isinstance(value, float) else str(value)), column


HEAD = [("p", "p", "p"), ("T", "T", "T"), ("p_hat", "p_hat", "p_hat")]


def test_bound_renderings_agree(capsys):
    payload, [row], text = three_renderings(capsys, "bound", "--complete", "7", "--p", "0.4", "--T", "3")
    assert list(text) == ["template", "p", "T", "p_hat", "bound", "maximizing N", "N range", "mu", "sigma^2", "S"]
    assert text["template"] == f"{row['family']} n={row['n']}" == "complete n=7"
    assert text["N range"] == f"2..{payload['n_search_max']}"
    assert_agree(
        payload,
        row,
        text,
        HEAD
        + [
            ("bound", "bound", "bound"),
            ("maximizing N", "n_star", "n_star"),
            ("mu", "mu", None),
            ("sigma^2", "sigma_squared", None),
            ("S", "s_value", None),
        ],
    )


def test_tiny_bound_renderings_agree(capsys):
    payload, [row], text = three_renderings(capsys, "bound", "--complete", "2", "--p", "0.3", "--T", "2")
    assert list(text) == ["template", "p", "T", "p_hat", "probability", "note"]
    assert text["note"] == "exact (closed form for n <= 2)"
    assert row["n_star"] == ""
    assert "n_star" not in payload
    assert_agree(payload, row, text, HEAD + [("probability", "bound", "bound")])


def test_simulate_labels_the_interval_with_its_confidence(capsys):
    argv = ["simulate", "--complete", "4", "--p", "0.6", "--trials", "50"]
    for confidence, label in [
        ("0.95", "95% CI"), ("0.999", "99.9% CI"), ("0.975", "97.5% CI"), ("0.9", "90% CI"), ("0.07", "7% CI"),
        # every digit of the confidence, not six significant ones
        ("0.9999999999999999", "99.99999999999999% CI"), ("0.9999995", "99.99995% CI"),
    ]:
        code, out, _ = run_cli(capsys, *argv, "--confidence", confidence)
        assert code == 0 and any(line.startswith(f"{label} ") for line in out.splitlines())


def test_tstar_renderings_agree(capsys):
    payload, rows, text = three_renderings(capsys, "tstar", "--complete", "3", "--p", "0.5", "--epsilon", "0.2")
    assert list(text) == ["template", "p", "epsilon", "T*", "bound at T*"]
    assert len(rows) == payload["trace_length"]
    assert [int(r["T"]) for r in rows] == list(range(1, payload["t_star"] + 1))
    fields = [("p", "p", "p"), ("epsilon", "epsilon", None), ("T*", "t_star", "T"), ("bound at T*", "bound_at_t_star", "bound")]
    assert_agree(payload, rows[-1], text, fields)


def test_simulate_renderings_agree(capsys):
    argv = ("simulate", "--complete", "4", "--p", "0.6", "--T", "2", "--trials", "500", "--seed", "4", "--lambda2-moments")
    payload, [row], text = three_renderings(capsys, *argv)
    assert list(text) == [
        "template", "p", "T", "p_hat", "trials", "seed", "estimate", "95% CI", "bound", "verdict",
        "lambda2 mean", "lambda2 mean sq",
    ]
    assert text["95% CI"] == "%.12g .. %.12g" % (payload["ci_low"], payload["ci_high"])
    assert text["verdict"].startswith("SOUND" if payload["sound"] else "UNSOUND")
    assert text["lambda2 mean"] == "%.12g" % payload["lambda2"]["mean"]
    assert text["lambda2 mean sq"] == "%.12g" % payload["lambda2"]["mean_sq"]
    fields = HEAD + [
        ("trials", "trials", None),
        ("seed", "seed", None),
        ("estimate", "estimate", "estimate"),
        (None, "ci_low", "ci_low"),
        (None, "ci_high", "ci_high"),
        ("bound", "bound", "bound"),
    ]
    assert_agree(payload, row, text, fields)


def test_exact_renderings_agree(capsys):
    payload, [row], text = three_renderings(capsys, "exact", "--complete", "4", "--p", "0.5", "--T", "2")
    assert list(text) == ["template", "p", "T", "p_hat", "probability", "connected"]
    assert text["connected"] == f"{payload['connected_subsets']} of {payload['total_subsets']} edge subsets"
    assert_agree(payload, row, text, HEAD + [("probability", "probability", "estimate")])


def test_sweep_renderings_agree(capsys):
    argv = ("sweep", "--family", "complete", "--n-values", "3,5", "--p-values", "0.8,0.95", "--simulate", "--trials", "200")
    payload = run_json(capsys, *argv, "--json")
    _, grid, _ = run_cli(capsys, *argv, "--csv", "-")
    _, text, _ = run_cli(capsys, *argv)
    assert text == grid  # the grid is sweep's text report
    rows = parse_csv(grid)
    assert len(rows) == len(payload["rows"]) == 4
    for row, json_row in zip(rows, payload["rows"]):
        assert list(json_row) == list(row)
        assert_agree(json_row, row, {}, [(None, col, col) for col in row if json_row[col] is not None])
        assert all(row[col] == "" for col in row if json_row[col] is None)


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conngraph", "bound", "--complete", "3", "--p", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bound" in proc.stdout


def test_broken_pipe_is_quiet():
    # the reader closes stdout before the CLI writes, as `| head` can
    proc = subprocess.Popen(
        [sys.executable, "-m", "conngraph", "bound", "--complete", "3", "--p", "0.5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE
    assert err == b""


def readme_commands():
    """Every `conngraph ...` line in the README's fenced blocks, continuations joined."""
    commands, fenced, current = [], False, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and (current is not None or line.startswith("conngraph ")):
            current = line.strip() if current is None else f"{current} {line.strip()}"
            if current.endswith("\\"):
                current = current[:-1].rstrip()
            else:
                commands.append(current)
                current = None
    return commands


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 3


@pytest.mark.parametrize("command", readme_commands())
def test_readme_cli_example_runs(capsys, command):
    code, _, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err


@pytest.mark.parametrize(
    "n, p, T, n_star",
    [
        (472, 0.4417364082795953, 463, 3),
        (285, 0.190532324952515, 7229, 4),
        (41, 0.8146425719813257, 387, 2),
        (5, 0.5114357165618862, 1442, 3),
    ],
)
def test_bound_union_ties_report_first_draw_count(capsys, n, p, T, n_star):
    # p_hat rounds to (nearly) 1, so ratios at many draw counts tie at the
    # clamp or in their last bits; the smallest draw count reaching the top wins
    payload = run_json(capsys, "bound", "--complete", str(n), "--p", repr(p), "--T", str(T), "--json")
    assert (payload["bound"], payload["n_star"]) == (1.0, n_star)
