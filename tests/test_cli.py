"""Command-line surface: argument handling, text and JSON output, exit
codes, and the pipes between subcommands."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGNAL_TERMS_K6_F4_Z2, golden_grid
from pda_workbench.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from pda_workbench.constructions import bipartite_pda, mn_pda, partition_pda
from pda_workbench.core import (
    StarPattern,
    format_pda,
    format_placement,
    parse_pda,
    parse_placement,
    pda_params,
    to_star_pattern,
    verify_pda,
)

CROSS_CELL_BAD = "PDA 2 2\n1 2\n2 1\n"  # C3b fails at both symbol pairs


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke main() in-process; returns (exit code, stdout, stderr)."""

    def _run(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def grid_text(name):
    return format_pda(golden_grid(name))


def test_exit_codes_are_stable():
    assert (EXIT_OK, EXIT_INVALID, EXIT_USAGE, EXIT_BUDGET) == (0, 1, 2, 3)


# ------------------------------------------------------------- construct


def test_construct_partition_emits_the_construction(run):
    code, out, err = run(["construct", "partition", "--q", "3", "--m", "2"])
    assert code == EXIT_OK
    assert parse_pda(out).cells == partition_pda(3, 2).cells
    assert "partition(q=3, m=2): K=9 F=9 Z=3 S=18" in err
    assert "rate=2 memory=1/3" in err


def test_construct_bipartite_and_mn_agree_with_the_library(run):
    code, out, _ = run(["construct", "bipartite", "--m", "5", "--a", "2", "--b", "1"])
    assert code == EXIT_OK
    assert parse_pda(out).cells == bipartite_pda(5, 2, 1).cells

    code, out, _ = run(["construct", "mn", "--k", "4", "--t", "2"])
    assert code == EXIT_OK
    assert parse_pda(out).cells == mn_pda(4, 2).cells


def test_construct_grouping_writes_to_a_file(run, tmp_path):
    target = tmp_path / "grouped.pda"
    code, out, err = run(
        ["construct", "grouping", "--m", "4", "--a", "1", "--b", "2", "--h", "2", "-o", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    grid = parse_pda(target.read_text())
    assert verify_pda(grid).valid
    assert "grouping(m=4, a=1, b=2, h=2)" in err


def test_construct_into_a_missing_directory_is_a_usage_error(run, tmp_path):
    target = tmp_path / "missing" / "x.pda"
    code, out, err = run(["construct", "mn", "--k", "4", "--t", "2", "-o", str(target)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


def test_construct_missing_flags_is_a_usage_error(run):
    code, _, err = run(["construct", "partition", "--q", "3"])
    assert code == EXIT_USAGE
    assert "construct partition needs --m" in err


def test_construct_rejects_bad_shapes_as_usage(run):
    code, _, err = run(["construct", "partition", "--q", "1", "--m", "2"])
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_construct_unknown_family_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "octagon"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- verify


def test_verify_reads_stdin_by_default(run):
    code, out, _ = run(["verify"], stdin=grid_text("GRID_K6_F4_Z2"))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "valid PDA: K=6 F=4 Z=2 S=4 rate=1 memory=1/2"


def test_verify_accepts_a_file_argument(run, tmp_path):
    path = tmp_path / "array.pda"
    path.write_text(grid_text("GRID_K4_F6_Z3"))
    code, out, _ = run(["verify", str(path)])
    assert code == EXIT_OK
    assert "K=4 F=6 Z=3 S=4 rate=2/3" in out


def test_verify_json_envelope(run):
    code, out, _ = run(
        ["verify", "--format", "json"], stdin=grid_text("GRID_K4_F6_Z3")
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "pda-workbench/1"
    assert payload["command"] == "verify"
    assert payload["valid"] is True
    assert payload["violations"] == []
    assert payload["params"] == {
        "k": 4,
        "f": 6,
        "z": 3,
        "s": 4,
        "rate": {"num": 2, "den": 3},
        "memory_ratio": {"num": 1, "den": 2},
    }


def test_verify_invalid_grid_lists_violations(run):
    code, out, _ = run(["verify"], stdin=CROSS_CELL_BAD)
    assert code == EXIT_INVALID
    lines = out.splitlines()
    assert lines[0] == "INVALID: 2 violation(s)"
    assert all("C3" in line for line in lines[1:])


def test_verify_invalid_json_has_no_params(run):
    code, out, _ = run(["verify", "--format", "json"], stdin=CROSS_CELL_BAD)
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["valid"] is False
    assert len(payload["violations"]) == 2
    assert "params" not in payload


def test_verify_malformed_input_exits_one(run):
    code, _, err = run(["verify"], stdin="PDA 2 2\n1\n")
    assert code == EXIT_INVALID
    assert err.startswith("error:")


def test_missing_file_is_a_usage_error(run, tmp_path):
    code, _, err = run(["verify", str(tmp_path / "nope.pda")])
    assert code == EXIT_USAGE
    assert "cannot read" in err


# ----------------------------------------------------------------- bound


def test_bound_exact_certifies_a_tight_grid(run):
    code, out, _ = run(["bound"], stdin=grid_text("GRID_K4_F6_Z3"))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "value: 4" in lines
    assert "rate bound: 2/3" in lines
    assert "method: exact" in lines
    assert "optimality certified: bound meets S = 4" in lines


def test_bound_greedy_is_marked_unproven(run):
    code, out, _ = run(
        ["bound", "--method", "greedy"], stdin=grid_text("GRID_K6_F4_Z1")
    )
    assert code == EXIT_OK
    assert "method: greedy (not proven maximal)" in out


def test_bound_ordered_partition_reports_the_derived_value(run):
    code, out, _ = run(
        ["bound", "--method", "ordered:partition", "--q", "3", "--m", "2"],
        stdin=format_pda(partition_pda(3, 2)),
    )
    assert code == EXIT_OK
    assert "value: 15" in out
    assert "optimality certified" not in out  # 15 < S = 18


def test_bound_ordered_bipartite_certifies_when_tight(run):
    code, out, _ = run(
        ["bound", "--method", "ordered:bipartite", "--m", "5", "--a", "2", "--b", "1"],
        stdin=format_pda(bipartite_pda(5, 2, 1)),
    )
    assert code == EXIT_OK
    assert "value: 10" in out
    assert "optimality certified: bound meets S = 10" in out


def test_bound_json_carries_the_certificate_and_grid_fields(run):
    code, out, _ = run(
        ["bound", "--format", "json"], stdin=grid_text("GRID_K6_F4_Z2")
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "bound"
    assert payload["value"] == 4
    assert payload["rate_bound"] == {"num": 1, "den": 1}
    assert payload["exact"] is True
    assert payload["grid_symbols"] == 4
    assert payload["certified"] is True


def test_bound_on_a_placement_has_no_certification(run):
    pattern = to_star_pattern(golden_grid("GRID_K4_F6_Z3"))
    code, out, _ = run(["bound"], stdin=format_placement(pattern))
    assert code == EXIT_OK
    assert "value: 4" in out
    assert "optimality certified" not in out


def test_bound_ordered_shape_mismatch_is_usage(run):
    code, _, err = run(
        ["bound", "--method", "ordered:partition", "--q", "3", "--m", "2"],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert code == EXIT_USAGE
    assert "needs 9x9" in err


def test_bound_unknown_method_is_usage(run):
    code, _, err = run(
        ["bound", "--method", "psychic"], stdin=grid_text("GRID_K6_F4_Z2")
    )
    assert code == EXIT_USAGE


def test_bound_on_a_grid_failing_c1_exits_one(run):
    # column 1 has one star, column 2 none
    code, out, err = run(["bound"], stdin="PDA 2 2\n* 1\n1 2\n")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: C1") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,text",
    [("bound", "PLC 0 0\n"), ("fill", "PLC 4097 1\n" + ".\n" * 4097)],
    ids=["bound-no-rows", "fill-past-the-row-cap"],
)
def test_placement_outside_the_row_range_exits_one(run, command, text):
    code, out, err = run([command], stdin=text)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bound_budget_truncation_exits_three(run):
    code, out, _ = run(
        ["bound", "--budget", "1"], stdin=grid_text("GRID_K6_F4_Z1")
    )
    assert code == EXIT_BUDGET
    assert "(not proven maximal)" in out


# ---------------------------------------------------------------- search


def test_search_finds_the_minmax_placement(run):
    code, out, _ = run(["search", "--k", "4", "--f", "6", "--z", "3"])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "min-max value: 4 (rate bound 2/3)"
    assert "complete" in out


def test_search_witness_round_trips_through_bound(run, tmp_path):
    witness = tmp_path / "best.plc"
    code, _, _ = run(
        ["search", "--k", "4", "--f", "6", "--z", "3", "-o", str(witness)]
    )
    assert code == EXIT_OK
    pattern = parse_placement(witness.read_text())
    assert (pattern.f, pattern.k, pattern.uniform_z()) == (6, 4, 3)

    code, out, _ = run(["bound", str(witness)])
    assert code == EXIT_OK
    assert "value: 4" in out


def test_search_json_report(run):
    code, out, _ = run(
        ["search", "--k", "2", "--f", "2", "--z", "1", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "search"
    assert (payload["k"], payload["f"], payload["z"]) == (2, 2, 1)
    assert payload["best_value"] == 1
    assert payload["exhaustive"] is True
    assert payload["witness_uncached_sets"] == [[1], [2]]


def test_search_budget_truncation_exits_three(run):
    code, out, _ = run(
        ["search", "--k", "4", "--f", "6", "--z", "3", "--budget", "1"]
    )
    assert code == EXIT_BUDGET
    assert "TRUNCATED by budget" in out


def test_search_budget_bounds_a_large_row_count():
    # C(40, 20) subsets: the budget must stop the search before it lists them.
    proc = subprocess.run(
        [sys.executable, "-m", "pda_workbench.cli",
         "search", "--k", "2", "--f", "40", "--z", "20", "--budget", "1"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == EXIT_BUDGET
    assert "TRUNCATED by budget" in proc.stdout


def test_search_z_beyond_f_is_usage(run):
    code, _, err = run(["search", "--k", "2", "--f", "2", "--z", "3"])
    assert code == EXIT_USAGE
    assert "Z <= F" in err


@pytest.mark.parametrize(
    "argv,grid",
    [
        (["search", "--k", "4", "--f", "6", "--z", "3", "--budget", "0"], None),
        (["search", "--k", "0", "--f", "6", "--z", "3"], None),
        (["search", "--k", "2", "--f", "4", "--z", "-1"], None),
        (["simulate", "--files", "0", "--sweep"], mn_pda(4, 2)),
        (["simulate", "--files", "2", "--packet-len", "0", "--sweep"], mn_pda(4, 2)),
    ],
    ids=["search-budget-0", "search-k-0", "search-z-negative", "simulate-files-0",
         "simulate-packet-len-0"],
)
def test_out_of_range_arguments_are_usage_errors(run, argv, grid):
    code, out, err = run(argv, stdin=None if grid is None else format_pda(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -------------------------------------------------------------- simulate


def test_simulate_single_demand_prints_signals_and_decodes(run):
    demand = (1, 2, 3, 4, 5, 6)
    code, out, _ = run(
        ["simulate", "--files", "6", "--demand", "1,2,3,4,5,6"],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "valid PDA: K=6 F=4 Z=2 S=4"
    assert lines[1] == "demand: 1 2 3 4 5 6"
    for i, terms in enumerate(SIGNAL_TERMS_K6_F4_Z2, start=1):
        rendered = " ^ ".join(f"W[{demand[k - 1]},{j}]" for k, j in terms)
        assert lines[1 + i] == f"signal {i}: {rendered}"
    assert "decode: OK (byte-exact)" in lines
    assert lines[-1] == "rate: 1"


def test_simulate_demand_json(run):
    code, out, _ = run(
        ["simulate", "--files", "2", "--demand", "2,1,2,1", "--format", "json"],
        stdin=format_pda(mn_pda(4, 2)),
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["demand"] == [2, 1, 2, 1]
    assert payload["signals"] == 4
    assert payload["ok"] is True
    assert payload["rate"] == {"num": 2, "den": 3}


def test_simulate_full_sweep(run):
    code, out, _ = run(
        ["simulate", "--files", "2", "--sweep"], stdin=format_pda(mn_pda(4, 2))
    )
    assert code == EXIT_OK
    assert "checked 16 demand(s): all byte-exact" in out
    assert "rate: 2/3" in out


def test_simulate_sampled_demands_honor_the_count(run):
    code, out, _ = run(
        ["simulate", "--files", "3", "--sample", "5", "--seed", "7"],
        stdin=grid_text("GRID_K4_F6_Z3"),
    )
    assert code == EXIT_OK
    assert "checked 5 demand(s): all byte-exact" in out


def test_simulate_transcript_dump(run, tmp_path):
    out_path = tmp_path / "transcript.json"
    code, _, _ = run(
        [
            "simulate", "--files", "6", "--demand", "1,2,3,4,5,6",
            "--transcript", str(out_path),
        ],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "pda-workbench/1"
    assert payload["demand"] == [1, 2, 3, 4, 5, 6]
    assert len(payload["signals"]) == 4
    assert len(payload["decode_log"]) == 12  # one entry per non-star cell
    assert all(set(s) == {"id", "terms", "payload_hex"} for s in payload["signals"])


def test_simulate_rejects_invalid_arrays(run):
    code, _, err = run(
        ["simulate", "--files", "2", "--sweep"], stdin=CROSS_CELL_BAD
    )
    assert code == EXIT_INVALID
    assert "INVALID PDA" in err


@pytest.mark.parametrize(
    "demand,fragment",
    [
        ("1,2", "entries"),          # wrong length
        ("1,2,3,4,5,9", "[1, 6]"),   # file id out of range
        ("one,2,3,4,5,6", "bad demand"),
    ],
)
def test_simulate_demand_validation(run, demand, fragment):
    code, _, err = run(
        ["simulate", "--files", "6", "--demand", demand],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert code == EXIT_USAGE
    assert fragment in err


def test_simulate_needs_a_mode(run):
    code, _, err = run(
        ["simulate", "--files", "2"], stdin=format_pda(mn_pda(4, 2))
    )
    assert code == EXIT_USAGE
    assert "one of --demand, --sweep, --sample" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_sample_below_one_is_a_usage_error(run, count):
    # Zero demands would certify nothing, yet read "all byte-exact".
    code, out, err = run(
        ["simulate", "--files", "2", "--sample", count], stdin=format_pda(mn_pda(4, 2))
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--sample" in err


@pytest.mark.parametrize(
    "modes",
    [
        ["--sweep", "--sample", "2"],
        ["--demand", "1,2,1,2", "--sweep"],
        ["--demand", "1,2,1,2", "--sample", "2"],
        ["--demand", "1,2,1,2", "--sweep", "--sample", "2"],
    ],
    ids=["sweep-sample", "demand-sweep", "demand-sample", "all-three"],
)
def test_simulate_modes_exclude_one_another(run, modes):
    code, out, err = run(
        ["simulate", "--files", "2", *modes], stdin=format_pda(mn_pda(4, 2))
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "one of --demand, --sweep, --sample" in err


@pytest.mark.parametrize("mode", [["--sweep"], ["--sample", "2"]])
def test_simulate_transcript_needs_a_single_demand(run, tmp_path, mode):
    out_path = tmp_path / "transcript.json"
    code, out, err = run(
        ["simulate", "--files", "2", *mode, "--transcript", str(out_path)],
        stdin=format_pda(mn_pda(4, 2)),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --transcript needs --demand\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "mode,demands", [(["--sweep"], 16), (["--sample", "5", "--seed", "3"], 5)]
)
def test_simulate_json_sweep_carries_stats(run, mode, demands):
    code, out, _ = run(
        ["simulate", "--files", "2", *mode, "--format", "json"],
        stdin=format_pda(mn_pda(4, 2)),
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["demands_checked"] == demands and payload["all_ok"] is True
    stats = payload["stats"]
    assert set(stats) == {"demands", "signals", "xor_terms", "elapsed_s"}
    # mn(4, 2): four signals per demand, each XOR of three packets
    assert stats["demands"] == demands
    assert stats["signals"] == 4 * demands
    assert stats["xor_terms"] == 4 * 9 * demands
    assert stats["elapsed_s"] >= 0


# ------------------------------------------------------------------ fill


def test_fill_exact_from_a_placement_certifies(run, tmp_path):
    pattern = to_star_pattern(golden_grid("GRID_K4_F6_Z3"))
    code, out, err = run(["fill"], stdin=format_placement(pattern))
    assert code == EXIT_OK
    assert "exact fill: S = 4 (lower bound 4) — optimality certified" in err
    grid = parse_pda(out)
    assert verify_pda(grid).valid
    assert to_star_pattern(grid) == pattern


def test_fill_accepts_a_grid_and_keeps_its_stars(run):
    code, out, err = run(
        ["fill", "--method", "greedy"],
        stdin=grid_text("GRID_K6_F8_Z5"),
    )
    assert code == EXIT_OK
    assert err.startswith("greedy fill: S = ")
    grid = parse_pda(out)
    assert to_star_pattern(grid) == to_star_pattern(golden_grid("GRID_K6_F8_Z5"))
    assert verify_pda(grid).valid


def test_fill_greedy_reports_the_better_order(run):
    # First fit needs 4 symbols in row-major order, 3 most-neighbors-first.
    code, out, err = run(
        ["fill", "--method", "greedy"], stdin=format_placement(StarPattern(4, (9, 6, 10)))
    )
    assert code == EXIT_OK
    assert err == "greedy fill: S = 3\n"
    assert parse_pda(out).max_symbol() == 3


def test_fill_budget_truncation_exits_three(run, tmp_path):
    # Both greedy orders use four symbols on this placement, three suffice.
    pattern = StarPattern(8, (136, 132, 72, 3, 66))
    code, out, err = run(
        ["fill", "--budget", "1"], stdin=format_placement(pattern)
    )
    assert code == EXIT_BUDGET
    assert "NOT proven optimal (budget)" in err
    assert verify_pda(parse_pda(out)).valid


@pytest.mark.parametrize("method", ["exact", "greedy"])
def test_fill_rejects_a_placement_with_unequal_star_counts(run, method):
    # user 1 leaves two rows uncached, user 2 three: no fill meets C1
    pattern = StarPattern(4, (0b0011, 0b0111))
    code, out, err = run(["fill", "--method", method], stdin=format_placement(pattern))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: users leave unequal numbers") and err.count("\n") == 1


def test_fill_writes_the_array_to_a_file(run, tmp_path):
    target = tmp_path / "filled.pda"
    pattern = to_star_pattern(golden_grid("GRID_K6_F4_Z2"))
    code, out, _ = run(
        ["fill", "-o", str(target)], stdin=format_placement(pattern)
    )
    assert code == EXIT_OK
    assert out == ""
    assert pda_params(parse_pda(target.read_text())).s == 4


# ----------------------------------------------------------------- table


def test_table_emits_the_comparison_csv(run):
    code, out, _ = run(["table", "--q-list", "2,3", "--m-max", "3"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,m,s_pda,s_derived,s_exact,mu,formula_ratio"
    assert "2,2,4,4,4,1.000000,1.000000" in lines
    assert "2,3,8,8,8,1.000000,1.000000" in lines
    assert "3,2,18,15,17,1.133333,0.833333" in lines
    assert "3,3,54,47,51,1.085106,0.870370" in lines


def test_table_blanks_the_exact_column_past_the_cap(run):
    code, out, _ = run(
        ["table", "--q-list", "3", "--m-max", "3", "--exact-cap", "9"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert "3,2,18,15,17,1.133333,0.833333" in lines  # K = 9 still within cap
    assert "3,3,54,47,,,0.870370" in lines


def test_table_default_cap_reaches_sixteen_users(run):
    code, out, _ = run(["table", "--q-list", "3,4,5", "--m-max", "4"])
    assert code == EXIT_OK
    rows = {tuple(line.split(",")[:2]): line for line in out.strip().splitlines()[1:]}
    assert rows[("3", "4")].startswith("3,4,162,147,154,1.047619,")  # K = 15
    assert rows[("4", "3")].startswith("4,3,192,153,180,1.176471,")  # K = 16
    assert rows[("5", "2")].startswith("5,2,100,70,90,1.285714,")  # K = 15
    assert rows[("4", "4")].split(",")[4:6] == ["", ""]  # K = 20, past the cap


def test_table_skips_shapes_it_cannot_evaluate(run):
    # Odd m needs the ordering oracle, so 3^9 rows trip the cap; even m
    # stays purely arithmetic and survives any size.
    code, out, err = run(["table", "--q-list", "3", "--m-max", "9"])
    assert code == EXIT_OK
    assert "skipping q=3, m=9" in err
    lines = out.splitlines()
    assert any(line.startswith("3,8,") for line in lines)
    assert not any(line.startswith("3,9,") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--q-list", "two"],
        ["table", "--q-list", "1,2"],
        ["table", "--m-max", "1"],
    ],
)
def test_table_argument_validation(run, argv):
    code, _, err = run(argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_table_writes_to_a_file(run, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        ["table", "--q-list", "2", "--m-max", "2", "-o", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("q,m,s_pda,")


# -------------------------------------------------------------- formulas


def test_formulas_self_checks_pass(run):
    code, out, _ = run(["formulas"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("ok   ")) == 6
    assert not any(line.startswith("FAIL") for line in lines)
    assert any("never asserted" in line for line in lines)


# ------------------------------------------------------------ interpreter


def test_module_invocation_round_trip(tmp_path):
    grid = tmp_path / "array.pda"
    built = subprocess.run(
        [sys.executable, "-m", "pda_workbench.cli", "construct", "mn",
         "--k", "4", "--t", "2", "-o", str(grid)],
        capture_output=True, text=True,
    )
    assert built.returncode == 0
    checked = subprocess.run(
        [sys.executable, "-m", "pda_workbench.cli", "verify", str(grid)],
        capture_output=True, text=True,
    )
    assert checked.returncode == 0
    assert "valid PDA: K=4 F=6 Z=3 S=4" in checked.stdout


def test_console_script_is_installed():
    exe = shutil.which("pda-workbench")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "formulas"], capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "mn", "--k", "4", "--t", "2"],
        ["search", "--k", "4", "--f", "6", "--z", "3"],
        ["formulas"],
    ],
    ids=["construct", "search", "formulas"],
)
def test_closed_stdout_exits_two_without_a_traceback(argv):
    # The read end is closed before the child starts, so its first flush
    # of stdout always meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pda_workbench.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# ------------------------------------------------------------------ fuzz

INTS = st.integers(-2, 6).map(str)
FORMATS = st.sampled_from(["text", "json"])
# A write into a missing directory fails (exit 2) and leaves nothing behind.
UNWRITABLE = st.just("no-such-dir/out")
FUZZ_STDIN = [
    format_pda(mn_pda(4, 2)),
    format_placement(to_star_pattern(mn_pda(4, 2))),
    "PDA 2 2\n* 1\n1 2\n",
    CROSS_CELL_BAD,
    "PLC 0 0\n",
    "PLC 2 2\n. x\n* *\n",
    "",
]


def int_flags(*names):
    return [token for name in names for token in (st.just(name), INTS)]


# command -> (tokens always drawn, {optional flag: its value}).  search
# always gets --budget and table --exact-cap, so that no example runs an
# unbounded search.
FUZZ_COMMANDS = {
    "construct": (
        [st.sampled_from(["partition", "bipartite", "mn", "grouping"])]
        + int_flags("--q", "--m", "--a", "--b", "--k", "--t", "--h"),
        {"-o": UNWRITABLE},
    ),
    "verify": ([], {"--format": FORMATS}),
    "bound": (
        [],
        {
            "--method": st.sampled_from(
                ["exact", "greedy", "ordered:partition", "ordered:bipartite", "psychic"]
            ),
            "--budget": INTS,
            "--q": INTS, "--m": INTS, "--a": INTS, "--b": INTS,
            "--format": FORMATS,
        },
    ),
    "search": (
        int_flags("--k", "--f", "--z", "--budget"),
        {
            "--mode": st.sampled_from(["canonical", "exhaustive"]),
            "-o": UNWRITABLE,
            "--format": FORMATS,
        },
    ),
    "simulate": (
        int_flags("--files") + [st.just("--sweep")],
        {
            "--demand": st.sampled_from(["1,2,1,2", "1", "x", "0,0,0,0"]),
            "--sample": INTS,
            "--seed": INTS,
            "--packet-len": INTS,
            "--transcript": UNWRITABLE,
            "--format": FORMATS,
        },
    ),
    "fill": (
        [],
        {
            "--method": st.sampled_from(["exact", "greedy"]),
            "--order": st.sampled_from(["row_major", "degree_desc"]),
            "--budget": INTS,
            "-o": UNWRITABLE,
        },
    ),
    "table": (
        int_flags("--exact-cap"),
        {
            "--q-list": st.sampled_from(["2", "2,3", "3,6", "1,2", "two", ""]),
            "--m-max": INTS,
            "-o": UNWRITABLE,
        },
    ),
    "formulas": ([], {}),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_fuzzed_command_lines_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    leading, flags = FUZZ_COMMANDS[command]
    argv = [command] + [data.draw(token) for token in leading]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []
    for flag in chosen:
        argv += [flag, data.draw(flags[flag])]
    stdin = io.StringIO(data.draw(st.sampled_from(FUZZ_STDIN)))
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == EXIT_USAGE, argv  # argparse rejected the line
            return
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE, EXIT_BUDGET), argv
