"""Command-line surface: argument handling, text and JSON output, exit
codes, and the pipes between subcommands."""

import ast
import contextlib
import io
import itertools
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGNAL_TERMS_K6_F4_Z2, golden_grid, replayed_ordering_value
from test_readme import console_blocks
from pda_workbench.cli import (
    _FAMILIES,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _fast_parse,
    main,
)
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

TESTS = os.path.dirname(os.path.abspath(__file__))
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


@pytest.mark.parametrize("command", ["bound", "fill"])
@pytest.mark.parametrize("text", ["", " \n\t\n", "XYZ 2 2"])
def test_a_placement_without_a_known_header_names_its_first_token(run, command, text):
    code, out, err = run([command], stdin=text)
    assert code == EXIT_INVALID
    assert out == ""
    head = (text.split() or [""])[0]
    assert err == f"error: unrecognized header {head!r}; want 'PDA' or 'PLC'\n"


def test_bound_greedy_is_marked_unproven(run):
    # Budget 0 reports the better of the identity and greedy orderings:
    # 17 here, below S = 18, so nothing proves it maximal.
    code, out, _ = run(
        ["bound", "--budget", "0"], stdin=format_pda(partition_pda(3, 2))
    )
    assert code == EXIT_BUDGET
    assert "method: branch_bound (not proven maximal)" in out
    assert "value: 17" in out.splitlines()


@pytest.mark.parametrize(
    "grid", [golden_grid("GRID_K6_F4_Z1"), mn_pda(5, 2)], ids=["K6-F4-Z1", "mn-5-2"]
)
def test_bound_budget_zero_meeting_the_grid_s_is_exact(run, grid):
    # S* <= S for every PDA with these stars, so a fallback that meets S is
    # S*: proven maximal, and no budget was short.
    text = format_pda(grid)
    code, out, _ = run(["bound", "--budget", "0"], stdin=text)
    assert code == EXIT_OK
    assert "method: branch_bound" in out.splitlines()
    assert "(not proven maximal)" not in out
    code, out, _ = run(["bound", "--budget", "0", "--format", "json"], stdin=text)
    payload = json.loads(out)
    assert code == EXIT_OK
    assert (payload["method"], payload["exact"], payload["certified"]) == (
        "branch_bound",
        True,
        True,
    )
    assert payload["value"] == payload["grid_symbols"] == pda_params(grid).s


def test_bound_meeting_the_s_of_an_invalid_grid_proves_nothing(run):
    # K6-F4-Z1 with cell (2, 1) relabelled from 4 to 1: column 1 holds 1
    # twice (C3 fails), and S stays 11.  S* <= S holds only for a PDA.
    text = grid_text("GRID_K6_F4_Z1").replace("\n4 5 * 3", "\n1 5 * 3")
    grid = parse_pda(text)
    assert not verify_pda(grid).valid and pda_params(grid).s == 11
    code, out, _ = run(["bound", "--budget", "0"], stdin=text)
    assert code == EXIT_BUDGET
    assert "value: 11" in out.splitlines()
    assert "method: branch_bound (not proven maximal)" in out
    assert "optimality certified" not in out


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
    assert "method: prescribed" in out.splitlines()
    assert "optimality certified: bound meets S = 10" in out


def test_bound_ordered_bipartite_meeting_s_is_exact(run):
    code, out, _ = run(
        ["bound", "--method", "ordered:bipartite", "--m", "5", "--a", "2", "--b", "1",
         "--format", "json"],
        stdin=format_pda(bipartite_pda(5, 2, 1)),
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["value"], payload["method"], payload["exact"]) == (10, "prescribed", True)


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


def test_bound_on_a_deep_chain_runs_out_of_budget_cleanly(run, tmp_path):
    # User u leaves every row but row u uncached, so the exact search
    # nests 1,100 intersections deep, past the default recursion limit,
    # before its budget runs out.
    full = (1 << 1100) - 1
    chain = StarPattern(1100, [full ^ (1 << u) for u in range(1100)])
    path = tmp_path / "chain.plc"
    path.write_text(format_placement(chain))
    code, out, err = run(["bound", str(path), "--budget", "2000"])
    assert code == EXIT_BUDGET
    assert "value: 604450" in out.splitlines()
    assert "Traceback" not in err


def test_bound_ordered_shape_mismatch_is_usage(run):
    code, _, err = run(
        ["bound", "--method", "ordered:partition", "--q", "3", "--m", "2"],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert code == EXIT_USAGE
    assert "needs 9x9" in err


def test_bound_ordered_missing_flags_names_the_bound_command(run):
    code, _, err = run(
        ["bound", "--method", "ordered:partition"], stdin=grid_text("GRID_K6_F4_Z2")
    )
    assert code == EXIT_USAGE
    assert err == "error: bound --method ordered:partition needs --q, --m\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ordered:partition", "--q", "0", "--m", "-1"], "need q >= 2 and m >= 1"),
        (["ordered:bipartite", "--m", "2", "--a", "3", "--b", "1"], "need a, b >= 1"),
    ],
    ids=["partition-q-0", "bipartite-a-above-m"],
)
def test_bound_ordered_with_invalid_family_parameters_is_usage(run, argv, message):
    code, out, err = run(["bound", "--method", *argv], stdin=grid_text("GRID_K6_F4_Z2"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "partition", "--q", "10", "--m", "5000"], "q^m rows at q=10, m=5000"),
        (
            ["construct", "bipartite", "--m", "2000000", "--a", "1", "--b", "1000000"],
            "C(2000000,1000000) rows",
        ),
        (
            ["bound", "--method", "ordered:partition", "--q", "2", "--m", "30000000"],
            "q^m rows at q=2, m=30000000",
        ),
        (
            ["bound", "--method", "ordered:bipartite", "--m", "2000000", "--a", "1",
             "--b", "1000000"],
            "C(2000000,1000000) rows",
        ),
    ],
    ids=["construct-partition", "construct-bipartite", "bound-partition", "bound-bipartite"],
)
def test_family_shapes_past_the_row_cap_are_refused_at_once(run, argv, message):
    # Refused before q^m or C(m, b) is taken: q^m past 4300 digits cannot
    # even be formatted, and C(2000000, 1000000) takes tens of seconds.
    start = time.perf_counter()
    code, out, err = run(argv, stdin=grid_text("GRID_K6_F4_Z2"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message} exceed the row cap 4096\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["construct", "grouping", "--m", "4", "--a", "1", "--b", "2", "--h", "1000000000"],
            "1000000000*C(4,1) columns",
        ),
        (["construct", "bipartite", "--m", "20", "--a", "10", "--b", "1"], "C(20,10) columns"),
        (["construct", "partition", "--q", "4096", "--m", "1"], "(m+1)q columns at q=4096, m=1"),
        (
            ["bound", "--method", "ordered:bipartite", "--m", "20", "--a", "10", "--b", "1"],
            "C(20,10) columns",
        ),
    ],
    ids=["construct-grouping", "construct-bipartite", "construct-partition", "bound-bipartite"],
)
def test_family_shapes_past_the_column_cap_are_refused_at_once(run, argv, message):
    # Refused from the closed-form column count, before any cell is built:
    # the grouping line would ask for about 6 * 4 * 10^9 cells.
    start = time.perf_counter()
    code, out, err = run(argv, stdin=grid_text("GRID_K6_F4_Z2"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message} exceed the column cap 4096\n"


def test_a_family_at_the_column_cap_is_built(run):
    code, out, err = run(
        ["construct", "grouping", "--m", "4", "--a", "1", "--b", "2", "--h", "1024"]
    )
    assert code == EXIT_OK
    assert "K=4096 F=6" in err
    assert parse_pda(out).k == 4096


def test_bound_unknown_method_is_usage():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--method", "psychic"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["bound", "fill"])
def test_the_retired_greedy_methods_are_usage(command):
    # bound --budget 0 and fill --budget 0 give what --method greedy gave.
    with pytest.raises(SystemExit) as exc:
        main([command, "--method", "greedy"])
    assert exc.value.code == EXIT_USAGE


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
        ["bound", "--budget", "1"], stdin=format_pda(partition_pda(3, 2))
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


@pytest.mark.parametrize("k,f,z,value", [(1500, 2, 1, 750), (60, 4, 2, 40)])
def test_search_settles_a_shape_that_c_f_z_divides_in_one_evaluation(run, k, f, z, value):
    # The round-robin placement meets the floor ceil(k(f-z)/(z+1)).
    code, out, _ = run(
        ["search", "--k", str(k), "--f", str(f), "--z", str(z), "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["best_value"], payload["nodes_explored"], payload["exhaustive"]) == (
        value,
        1,
        True,
    )


@pytest.mark.parametrize(
    "k,f,z,line",
    [
        (4, 6, 3, "floor: 3"),  # the min-max, 4, is above the floor
        (5, 4, 2, "floor: 4"),  # met, but C(4, 2) does not divide 5
        (60, 4, 2, "floor: 40, met by construct grouping --m 4 --a 2 --b 1 --h 10"),
    ],
)
def test_a_complete_search_prints_its_floor(run, k, f, z, line):
    argv = ["search", "--k", str(k), "--f", str(f), "--z", str(z)]
    code, out, _ = run(argv)
    assert code == EXIT_OK
    assert out.splitlines()[2] == line
    code, out, _ = run(argv + ["--format", "json"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["lower_bound"] == payload["best_value"] == {4: 4, 5: 4, 60: 40}[k]


def test_a_truncated_search_prints_the_interval_it_proved(run):
    argv = ["search", "--k", "12", "--f", "6", "--z", "3", "--budget", "2000"]
    code, out, _ = run(argv)
    assert code == EXIT_BUDGET
    assert out.splitlines()[1:3] == [
        "evaluated 2000 placements (1044 pruned), TRUNCATED by budget",
        "floor: 9, so the min-max lies in [9, 14]",
    ]
    code, out, _ = run(argv + ["--format", "json"])
    payload = json.loads(out)
    assert code == EXIT_BUDGET
    assert (payload["best_value"], payload["exhaustive"], payload["lower_bound"]) == (
        14,
        False,
        9,
    )


def test_a_search_with_an_inexact_bound_prints_the_floor_alone(run, monkeypatch):
    from pda_workbench import cli

    real = cli.theorem3_search

    def inexact(*args, **kwargs):
        return real(*args, **kwargs)._replace(exhaustive=False, bounds_exact=False)

    monkeypatch.setattr(cli, "theorem3_search", inexact)
    code, out, _ = run(["search", "--k", "12", "--f", "6", "--z", "3", "--budget", "2000"])
    assert code == EXIT_BUDGET
    assert out.splitlines()[2] == "floor: 9"


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


@pytest.mark.parametrize("packet_len", [1 << 28, 10**11])
def test_simulate_refuses_a_packet_length_it_cannot_draw(run, monkeypatch, packet_len):
    def no_draw(self, n):
        raise AssertionError(f"drew {n} bytes")

    monkeypatch.setattr(random.Random, "randbytes", no_draw)
    code, out, err = run(
        ["simulate", "--files", "2", "--packet-len", str(packet_len), "--sweep"],
        stdin=format_pda(mn_pda(4, 2)),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: packet_len must be at most {(1 << 28) - 1}, got {packet_len}\n"


def test_simulate_refuses_a_library_too_large_to_hold(run, monkeypatch):
    def no_draw(self, n):
        raise AssertionError(f"drew {n} bytes")

    monkeypatch.setattr(random.Random, "randbytes", no_draw)
    code, out, err = run(
        ["simulate", "--files", "5", "--packet-len", str((1 << 28) - 1), "--sample", "1"],
        stdin=format_pda(mn_pda(5, 2)),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(
        "error: a library of 5 files of 10 packets of 268435455 bytes takes about"
    )
    assert err.endswith(f" bytes in memory, more than {1 << 31}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["bound", "--budget", "-3"], format_pda(mn_pda(4, 2))),
        (["fill", "--budget", "-1"], format_placement(to_star_pattern(mn_pda(4, 2)))),
    ],
    ids=["bound", "fill"],
)
def test_negative_budgets_are_usage_errors(run, argv, stdin):
    code, out, err = run(argv, stdin=stdin)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: need a budget of at least 0") and err.count("\n") == 1


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_reports_a_decode_that_misses_a_cache_entry(run, monkeypatch, fmt):
    from pda_workbench import cli
    from pda_workbench.simulate import place

    def drop_one(grid, lib):
        caches = place(grid, lib)
        # User 1 decodes row 3 from signal 1 = W[1,3] ^ W[2,2] ^ W[4,1], so it
        # cancels W[2,2] out of its cache.
        del caches[0][(2, 2)]
        return caches

    monkeypatch.setattr(cli, "place", drop_one)
    code, out, err = run(
        ["simulate", "--files", "6", "--demand", "1,2,3,4,5,6", "--format", fmt],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert (code, err) == (EXIT_INVALID, "")
    if fmt == "json":
        assert json.loads(out)["ok"] is False
    else:
        assert "decode: FAILED (signal 1, user 1, row 3)" in out.splitlines()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_reports_a_decode_that_misses_a_cached_row(run, monkeypatch, fmt):
    from pda_workbench import cli
    from pda_workbench.simulate import place

    def drop_one(grid, lib):
        caches = place(grid, lib)
        # User 1 wants file 1 and caches row 1, so it reads W[1,1] from its
        # cache rather than from a signal.
        del caches[0][(1, 1)]
        return caches

    monkeypatch.setattr(cli, "place", drop_one)
    code, out, err = run(
        ["simulate", "--files", "4", "--demand", "1,2,3,4", "--format", fmt],
        stdin=format_pda(mn_pda(4, 2)),
    )
    assert (code, err) == (EXIT_INVALID, "")
    if fmt == "json":
        assert json.loads(out)["ok"] is False
    else:
        assert "decode: FAILED (user 1, row 1)" in out.splitlines()


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


@pytest.mark.parametrize(
    "demand,message",
    [
        ("x", "bad demand 'x'; want comma-separated file ids"),
        ("1,2", "demand has 2 entries, the array has K=6 users"),
        ("1,2,3,4,5,7", "demand entries must lie in [1, 6]"),
    ],
)
def test_simulate_refuses_a_bad_demand_before_drawing_the_library(
    run, monkeypatch, demand, message
):
    def no_library(*args, **kwargs):
        raise AssertionError("drew the library")

    monkeypatch.setattr("pda_workbench.simulate.FileLibrary.generate", no_library)
    code, out, err = run(
        ["simulate", "--files", "6", "--demand", demand, "--packet-len", str((1 << 28) - 1)],
        stdin=grid_text("GRID_K6_F4_Z2"),
    )
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


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
        ["fill", "--budget", "0"],
        stdin=grid_text("GRID_K6_F8_Z5"),
    )
    assert code == EXIT_OK
    assert err.startswith("exact fill: S = ")
    grid = parse_pda(out)
    assert to_star_pattern(grid) == to_star_pattern(golden_grid("GRID_K6_F8_Z5"))
    assert verify_pda(grid).valid


def test_fill_greedy_reports_the_better_order(run):
    # First fit needs 4 symbols in row-major order, 3 most-neighbors-first.
    # At budget 0 the fill is that first fit, and the ordering bound proves it.
    code, out, err = run(
        ["fill", "--budget", "0"], stdin=format_placement(StarPattern(4, (9, 6, 10)))
    )
    assert code == EXIT_OK
    assert err == "exact fill: S = 3 (lower bound 3) — optimality certified\n"
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


def test_fill_names_the_symbol_class_bound_when_it_binds(run):
    # The ordering bound is 45 here; classes of at most 3 cells give 48,
    # which the construction meets.
    code, out, err = run(["fill", "--budget", "5000"], stdin=format_pda(partition_pda(4, 2)))
    assert code == EXIT_OK
    assert err == (
        "exact fill: S = 48 (lower bound 48, symbol classes of at most 3)"
        " — optimality certified\n"
    )
    grid = parse_pda(out)
    assert verify_pda(grid).valid
    assert to_star_pattern(grid) == to_star_pattern(partition_pda(4, 2))


@pytest.mark.parametrize("budget", [[], ["--budget", "0"]], ids=["exact", "budget-0"])
def test_fill_rejects_a_placement_with_unequal_star_counts(run, budget):
    # user 1 leaves two rows uncached, user 2 three: no fill meets C1
    pattern = StarPattern(4, (0b0011, 0b0111))
    code, out, err = run(["fill", *budget], stdin=format_placement(pattern))
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


def test_table_ratios_print_as_fractions_would(run):
    # Each ratio column is the reduced pair's int true division to six
    # places; Fraction, computed here from the row's own counts, is the
    # reference for both.
    code, out, _ = run(
        ["table", "--q-list", "2,3,4,5,6,16", "--m-max", "8", "--exact-cap", "12"]
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 6 * 7
    assert sum(row[4] != "" for row in rows) > 7  # q = 2 and the exact rows
    for q, m, s_pda, s_derived, s_exact, mu, formula_ratio in rows:
        want = Fraction(int(s_derived), int(s_pda))
        assert formula_ratio == f"{float(want):.6f}", (q, m)
        want = "" if s_exact == "" else f"{float(Fraction(int(s_exact), int(s_derived))):.6f}"
        assert mu == want, (q, m)


def test_table_skips_shapes_it_cannot_evaluate(run):
    # It skips none past the row cap: 3^8 and 3^9 rows are past it, and
    # both rows print the value that replaying the ordering counts.
    code, out, err = run(["table", "--q-list", "3", "--m-max", "9"])
    assert code == EXIT_OK
    assert err == ""
    rows = {int(line.split(",")[1]): line.split(",") for line in out.splitlines()[1:]}
    assert sorted(rows) == list(range(2, 10))
    for m in (8, 9):
        assert rows[m][2:4] == [str(2 * 3 ** m), str(replayed_ordering_value(3, m))]


def test_table_reports_the_refused_odd_m_once_per_q(run):
    # No m is refused, so nothing is reported: every m in 2..40 prints for
    # both q, and stderr stays empty.  The first odd m past the row cap for
    # each q matches the replayed ordering.
    code, out, err = run(["table", "--q-list", "10,3", "--m-max", "40", "--exact-cap", "0"])
    assert code == EXIT_OK
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [tuple(row[:2]) for row in rows] == [
        (str(q), str(m)) for q in (10, 3) for m in range(2, 41)
    ]
    s_derived = {(int(row[0]), int(row[1])): int(row[3]) for row in rows}
    for q, m in [(10, 5), (3, 9)]:
        assert s_derived[q, m] == replayed_ordering_value(q, m)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no integer-to-string digit limit",
)
def test_table_stops_a_q_at_the_digit_limit(run):
    # With the limit at 640 digits, s_pda = 9 * 10^m stops printing at
    # m = 640: q=10 ends there with one line on stderr, and q=2 goes on.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(["table", "--q-list", "10,2", "--m-max", "642"])
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == EXIT_OK
    assert err.count("skipping q=10, m=640") == 1
    assert "skipping q=10, m=641" not in err and "skipping q=10, m=642" not in err
    lines = out.splitlines()
    assert lines[0].startswith("q,m,")
    assert any(line.startswith("10,638,") for line in lines)
    assert not any(line.startswith(("10,640,", "10,642,")) for line in lines)
    assert any(line.startswith("2,642,") for line in lines)


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
    proc = subprocess.run(
        [exe, "table", "--q-list", "2", "--m-max", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "mn", "--k", "4", "--t", "2"],
        ["search", "--k", "4", "--f", "6", "--z", "3"],
        ["table", "--q-list", "2", "--m-max", "2"],
    ],
    ids=["construct", "search", "table"],
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


def test_formulas_is_no_longer_a_command():
    # The paper's closed-form self-checks live in tests/test_formulas.py.
    cli = [sys.executable, "-m", "pda_workbench.cli"]
    listed = subprocess.run(cli + ["--help"], capture_output=True, text=True)
    assert listed.returncode == EXIT_OK
    assert "formulas" not in listed.stdout
    proc = subprocess.run(cli + ["formulas"], capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert "invalid choice: 'formulas'" in proc.stderr
    assert "Traceback" not in proc.stderr


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
                ["exact", "ordered:partition", "ordered:bipartite", "psychic"]
            ),
            "--budget": INTS,
            "--q": INTS, "--m": INTS, "--a": INTS, "--b": INTS,
            "--format": FORMATS,
        },
    ),
    "search": (
        int_flags("--k", "--f", "--z", "--budget"),
        {
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
}


# Line shapes that only argparse reads.  A value may be spelt as an option
# (-h would print help anywhere else, and -ox write ./x), a token may be
# spliced in after the subcommand, or a flag given twice.
VALUE_SHAPES = st.sampled_from(["-h", "-ox", "--budget=3"])
LINE_SHAPES = st.sampled_from(["--", "-x y", "--budget=3"])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_fuzzed_command_lines_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    leading, flags = FUZZ_COMMANDS[command]
    argv = [command] + [data.draw(token) for token in leading]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []
    for flag in chosen:
        argv += [flag, data.draw(flags[flag])]
    shape = data.draw(st.sampled_from(["", "value", "line", "repeat"]))
    if shape == "value" and chosen:
        argv[-1] = data.draw(VALUE_SHAPES)
    elif shape == "line":
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(LINE_SHAPES))
    elif shape == "repeat" and chosen:
        argv += [chosen[0], data.draw(flags[chosen[0]])]
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


# Every family command over every combination of its integer flags in
# -1..2, with stdin an array of the family's own shape where one is needed,
# so that flag pairs the fuzz above may never draw all run.
FAMILY_GRID = [
    (["construct", family], names, None) for family, (_, names) in sorted(_FAMILIES.items())
] + [
    (["bound", "--method", "ordered:partition"], ("q", "m"), partition_pda(2, 2)),
    (["bound", "--method", "ordered:bipartite"], ("m", "a", "b"), bipartite_pda(2, 1, 1)),
    (["table"], ("q-list", "m-max", "exact-cap"), None),
]


@pytest.mark.parametrize(
    "leading,names,grid", FAMILY_GRID, ids=[" ".join(g[0]) for g in FAMILY_GRID]
)
def test_every_small_family_flag_combination_ends_in_a_documented_exit_code(
    leading, names, grid
):
    stdin = "" if grid is None else format_pda(grid)
    for values in itertools.product(range(-1, 3), repeat=len(names)):
        argv = leading + [
            token for name, v in zip(names, values) for token in ("--" + name, str(v))
        ]
        err = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE, EXIT_BUDGET), argv
        assert "Traceback" not in err.getvalue(), argv


# ------------------------------------------------------------- start-up


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every process pays the CLI's import, and the records are plain named
    # tuples, so neither module has a reason to load.  The snapshot keeps
    # the test true where site loads either one before the package.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import pda_workbench.cli;"
         " print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pda_workbench.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


MN_4_2 = format_pda(mn_pda(4, 2))
PARTITION_2_2 = format_pda(partition_pda(2, 2))
BASE_MODULES = {"pda_workbench.core"}

# One run of each subcommand as (argv, stdin, the package modules it loads
# besides core: its own command module and the engines it runs), with the
# ids below.
SUBCOMMAND_RUNS = [
    (["--help"], "", set()),
    (["construct", "mn", "--k", "4", "--t", "2"], "", {"_cmd_construct", "constructions"}),
    (["verify"], MN_4_2, {"_cmd_verify"}),
    (["simulate", "--files", "4", "--sample", "5"], MN_4_2, {"_cmd_simulate", "simulate"}),
    (["bound"], MN_4_2, {"_cmd_bound", "bounds"}),
    (
        ["bound", "--method", "ordered:partition", "--q", "2", "--m", "2"],
        PARTITION_2_2,
        {"_cmd_bound", "bounds", "constructions"},
    ),
    (
        ["bound", "--method", "ordered:bipartite", "--m", "4", "--a", "1", "--b", "2"],
        MN_4_2,
        {"_cmd_bound", "bounds", "constructions"},
    ),
    (["search", "--k", "3", "--f", "2", "--z", "1"], "", {"_cmd_search", "bounds"}),
    (["fill"], MN_4_2, {"_cmd_fill", "bounds", "filler"}),
    (
        ["table", "--q-list", "2", "--m-max", "2"],
        "",
        {"_cmd_table", "bounds", "formulas", "constructions"},
    ),
]
SUBCOMMAND_IDS = [
    "help", "construct", "verify", "simulate", "bound", "bound-ordered",
    "bound-ordered-bipartite", "search", "fill", "table",
]


@pytest.mark.parametrize("argv, stdin, engines", SUBCOMMAND_RUNS, ids=SUBCOMMAND_IDS)
def test_each_subcommand_imports_only_the_engines_it_runs(argv, stdin, engines):
    # Every CLI process compiles what it imports, so a subcommand must not
    # pay for an engine, the family builders or another subcommand's module
    # that it never calls.  Under -m the cli module is __main__, and a
    # second copy imported as pda_workbench.cli would show here too.  The
    # positive half shows that -X importtime reports a module imported on
    # first use.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pda_workbench.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    package = {name for name in loaded if name.startswith("pda_workbench.")}
    assert package == BASE_MODULES | {"pda_workbench." + e for e in engines}


@pytest.mark.parametrize("argv, stdin, _engines", SUBCOMMAND_RUNS, ids=SUBCOMMAND_IDS)
def test_no_subcommand_loads_typing_without_site(argv, stdin, _engines):
    # Annotations are never evaluated and the records are namedtuple
    # subclasses, so typing is imported only for type checkers.  -S keeps a
    # site hook from loading typing before the package does, and with it
    # the installed package, so PYTHONPATH names the package's parent.
    package = os.path.dirname(main.__code__.co_filename)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "pda_workbench.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "pda_workbench.core" in loaded  # the log lists the package's own imports
    assert "typing" not in loaded


NO_RATE_MODULES = {"fractions", "decimal"}
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, stdin, absent, present",
    [
        (
            ["fill", "-o", os.devnull],
            MN_4_2,
            {"json"} | NO_RATE_MODULES,
            {"pda_workbench.filler"},
        ),
        (
            ["construct", "mn", "--k", "4", "--t", "2", "-o", os.devnull],
            "",
            {"json"} | NO_RATE_MODULES,
            {"pda_workbench.constructions"},
        ),
        # The control: the snapshot sees a standard module the run loads.
        (["verify", "--format", "json"], MN_4_2, NO_RATE_MODULES, {"json"}),
        (
            ["bound", "--format", "json"],
            MN_4_2,
            NO_RATE_MODULES,
            {"json", "pda_workbench.bounds"},
        ),
        (
            ["search", "--k", "3", "--f", "2", "--z", "1", "--format", "json"],
            "",
            NO_RATE_MODULES,
            {"json", "pda_workbench.bounds"},
        ),
        (
            ["simulate", "--files", "4", "--sample", "5", "--format", "json"],
            MN_4_2,
            NO_RATE_MODULES,
            {"json", "pda_workbench.simulate"},
        ),
        (
            ["table", "--q-list", "2,3", "--m-max", "3"],
            "",
            {"json"} | NO_RATE_MODULES,
            {"pda_workbench.formulas"},
        ),
        # A well-formed line of each subcommand is read without argparse.
        (
            ["construct", "partition", "--q", "2", "--m", "2", "--output", os.devnull],
            "",
            PARSER_MODULES,
            {"pda_workbench.constructions"},
        ),
        (["verify", "-", "--format", "text"], MN_4_2, PARSER_MODULES, {"pda_workbench.core"}),
        (
            ["bound", "--method", "exact", "--budget", "1000", "--format", "json"],
            MN_4_2,
            PARSER_MODULES,
            {"json", "pda_workbench.bounds"},
        ),
        (
            ["search", "--k", "3", "--f", "2", "--z", "1", "--budget", "100"],
            "",
            PARSER_MODULES,
            {"pda_workbench.bounds"},
        ),
        (
            ["simulate", "-", "--files", "2", "--sweep", "--seed", "-3", "--packet-len", "8"],
            MN_4_2,
            PARSER_MODULES,
            {"pda_workbench.simulate"},
        ),
        (["fill", "--budget", "100", "-o", os.devnull], MN_4_2, PARSER_MODULES,
         {"pda_workbench.filler"}),
        (
            ["table", "--q-list", "2", "--m-max", "2", "--exact-cap", "0", "-o", os.devnull],
            "",
            PARSER_MODULES,
            {"pda_workbench.formulas"},
        ),
    ],
    ids=[
        "fill", "construct", "verify-json", "bound-json", "search-json", "simulate-json", "table",
        "construct-fast", "verify-fast", "bound-fast", "search-fast", "simulate-fast",
        "fill-fast", "table-fast",
    ],
)
def test_a_subcommand_loads_json_and_fractions_only_when_it_uses_them(
    argv, stdin, absent, present
):
    # json is loaded only where JSON is written.  No subcommand loads
    # fractions (which brings in decimal and numbers): rates and ratios are
    # `core.ratio` pairs of ints.  A well-formed line loads no argparse (nor
    # its gettext and locale).  The snapshot keeps the test true where site
    # loads any of these first.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); from pda_workbench.cli import main;"
         " code = main(sys.argv[1:]);"
         " print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr);"
         " sys.exit(code)",
         *argv],
        input=stdin, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert present <= loaded
    assert not loaded & absent


@pytest.mark.parametrize(
    "argv, code",
    [(["construct", "--help"], EXIT_OK), (["construct", "mn", "--k", "x"], EXIT_USAGE)],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_argparse(argv, code):
    # The control for the rows above: argparse alone prints help and usage
    # errors, and the snapshot sees it load.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); from pda_workbench.cli import main\n"
         "try:\n    main(sys.argv[1:])\n"
         "finally:\n    print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)",
         *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "argparse" in proc.stderr.splitlines()[-1].split()


def parse_outcome(parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        parse(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


# Per subcommand ("" is the program itself): one usage error, as a missing
# required flag, a bad int or a bad choice.
USAGE_ERRORS = {
    "": [],
    "construct": ["construct", "mn", "--k", "x"],
    "verify": ["verify", "--format", "xml"],
    "bound": ["bound", "--budget", "x"],
    "search": ["search", "--k", "3"],
    "simulate": ["simulate"],
    "fill": ["fill", "--budget", "x"],
    "table": ["table", "--m-max", "q"],
}


@pytest.mark.parametrize("command", list(USAGE_ERRORS), ids=lambda c: c or "program")
def test_a_parser_built_for_one_subcommand_answers_as_the_full_one(command):
    # main builds the arguments of the invoked subcommand only; its help
    # and its usage errors must not show that.
    help_argv = [command, "--help"] if command else ["--help"]
    for argv in (help_argv, USAGE_ERRORS[command]):
        full = parse_outcome(_build_parser().parse_args, argv)
        assert parse_outcome(_build_parser(command).parse_args, argv) == full
    assert full[0] == EXIT_USAGE and full[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["--x", "construct", "mn", "--k", "4", "--t", "2"],
        ["bogus", "fill"],
        ["--", "verify", "--format", "xml"],
        ["construct", "--help", "verify"],
    ],
    ids=["option-first", "bad-choice-first", "double-dash", "help-then-a-name"],
)
def test_main_builds_the_subcommand_that_argparse_reaches(argv):
    # A subcommand's name need not be the first token of the line.
    assert parse_outcome(main, argv) == parse_outcome(_build_parser().parse_args, argv)


# ------------------------------------------------------------ fast parse

# Tokens that argparse alone reads: help, an option with its value attached,
# `--`, dash tokens that no subcommand declares (one holding a space, a
# non-integer negative number, a superscript digit), a bare "-" (a value),
# an extra positional and a subcommand name after the first.
HAND_OFFS = [
    "-h", "--help", "--budget=3", "--format=json", "-ox", "-o-", "--", "-x y",
    "-5.5", "-\u00b2", "--bogus", "-", "extra", "verify",
]
# Each pool's first two values are well formed.  "-\u0663" is a negative
# decimal integer in Arabic-Indic digits, which int() and argparse accept.
INT_TOKENS = ["3", "-2", "0", "12", "-\u0663", "+4", "1_0", " 5", "x", "", "2.5", "\u00b2"]
PATH_TOKENS = ["out.txt", "-", "", "x y"]
FORMAT_TOKENS = ["json", "text", "xml", "JSON"]

# subcommand -> (its positional's values, or None, whether the positional is
# required, {option string: its values, or None for a switch}, the required
# option strings)
DIFF_COMMANDS = {
    "construct": (
        ["partition", "mn", "bipartite", "grouping", "hexagon"], True,
        {**{f"--{n}": INT_TOKENS for n in "qmabkth"}, "-o": PATH_TOKENS, "--output": PATH_TOKENS},
        (),
    ),
    "verify": (PATH_TOKENS, False, {"--format": FORMAT_TOKENS}, ()),
    "bound": (
        PATH_TOKENS, False,
        {
            "--method": ["exact", "ordered:partition", "ordered:bipartite", "greedy"],
            "--budget": INT_TOKENS, "--format": FORMAT_TOKENS,
            **{f"--{n}": INT_TOKENS for n in "qmab"},
        },
        (),
    ),
    "search": (
        None, False,
        {
            "--k": INT_TOKENS, "--f": INT_TOKENS, "--z": INT_TOKENS, "--budget": INT_TOKENS,
            "-o": PATH_TOKENS, "--witness": PATH_TOKENS, "--format": FORMAT_TOKENS,
        },
        ("--k", "--f", "--z"),
    ),
    "simulate": (
        PATH_TOKENS, False,
        {
            "--files": INT_TOKENS, "--demand": ["1,2", "x", "1", "-1"], "--sweep": None,
            "--sample": INT_TOKENS, "--seed": INT_TOKENS, "--packet-len": INT_TOKENS,
            "--transcript": PATH_TOKENS, "--format": FORMAT_TOKENS,
        },
        ("--files",),
    ),
    "fill": (PATH_TOKENS, False, {"--budget": INT_TOKENS, "-o": PATH_TOKENS,
                                  "--output": PATH_TOKENS}, ()),
    "table": (
        None, False,
        {
            "--q-list": ["2,3", "5", "", "two"], "--m-max": INT_TOKENS,
            "--exact-cap": INT_TOKENS, "-o": PATH_TOKENS, "--output": PATH_TOKENS,
        },
        (),
    ),
}


def drawn_command_line(rng):
    """A random line: a well-formed core of the subcommand's arguments in a
    random order, with values sometimes drawn from every pool, the hand-offs
    and the subcommand's own option strings, then up to two edits."""
    command = rng.choice(sorted(DIFF_COMMANDS))
    values, required_positional, options, required = DIFF_COMMANDS[command]

    def value(pool):
        if rng.random() < 0.75:
            return rng.choice(pool[:2])
        return rng.choice(pool + HAND_OFFS + list(options))

    pieces = [
        [flag] + ([] if pool is None else [value(pool)])
        for flag, pool in options.items()
        if flag in required or rng.random() < 0.25
    ]
    if values is not None and (required_positional or rng.random() < 0.5):
        pieces.append([value(values)])
    rng.shuffle(pieces)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        edit = rng.choice(["insert", "repeat", "drop", "delete"])
        if edit == "repeat" and pieces:
            again = rng.choice(pieces)[:]
            if len(again) == 2:  # an option and its value: draw a new value
                again[1] = value(options[again[0]])
            pieces.insert(rng.randint(0, len(pieces)), again)
        elif edit == "drop" and pieces:
            pieces.pop(rng.randrange(len(pieces)))
        elif edit == "insert":
            pieces.insert(rng.randint(0, len(pieces)), [rng.choice(HAND_OFFS)])
        elif pieces:
            piece = rng.choice(pieces)
            if len(piece) > 1:
                piece.pop(rng.randrange(len(piece)))
    argv = [command] + [token for piece in pieces for token in piece]
    if rng.random() < 0.02:  # the subcommand not first
        argv.insert(rng.randint(1, len(argv)), argv.pop(0))
    return argv


def test_the_fast_reader_agrees_with_argparse_wherever_it_reads_a_line():
    # A line that _fast_parse reads must be one that argparse accepts
    # without a message, with the same namespace; every other line falls
    # back to argparse.  A fifth of the lines at least take the fast path.
    rng = random.Random(35)
    parser = _build_parser()
    fast = 0
    for _ in range(6000):
        argv = drawn_command_line(rng)
        args = _fast_parse(argv)
        if args is None:
            continue
        fast += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses a line the fast reader took: {argv}")
        assert vars(args) == vars(expected), argv
    assert fast >= 6000 // 5, fast


def test_the_fast_reader_hands_each_line_shape_to_argparse():
    base = ["search", "--k", "3", "--f", "2", "--z", "1"]
    assert vars(_fast_parse(base)) == vars(_build_parser().parse_args(base))
    for argv in [
        [],
        ["--help"],
        base + ["-h"],
        base + ["--budget=3"],
        base + ["-ox"],
        base + ["--"],
        base + ["-x y"],
        base + ["-5.5"],
        base + ["--k", "4"],
        ["--k", "3", "search", "--f", "2", "--z", "1"],
        base[:-2],
        base + ["extra"],
        base + ["--budget"],
        base + ["--budget", "-\u00b2"],
        base + ["--format", "xml"],
        ["simulate", "--files", "3", "--demand", "--sweep"],
        ["simulate", "--files", "3", "--demand", "-\u00b2"],
        ["simulate", "--files", "3", "--sweep", "--sweep"],
        ["construct", "--q", "3", "--m", "3"],
        ["construct", "mn", "-o", "a", "--output", "b"],
    ]:
        assert _fast_parse(argv) is None, argv


def workload_steps(tmp_path, monkeypatch):
    """Every step of the benchmark's three workloads at seed 1."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(TESTS), "bench"))
    import workloads

    return [
        step
        for workload in workloads.WORKLOADS
        for job in workloads.build(workload, 1, str(tmp_path))
        for step in job.steps
    ]


def readme_command_lines():
    """The argument list of each pda-workbench stage on README.md's $ lines."""
    stages = []
    for block in console_blocks():
        for command, _ in block:
            stages.append([])
            for token in shlex.split(command):
                if token == "|":
                    stages.append([])
                elif token != "2>/dev/null":
                    stages[-1].append(token)
    assert all(stage[0] == "pda-workbench" for stage in stages)
    return [stage[1:] for stage in stages]


def ci_command_lines():
    """The argument list of each pda-workbench call in CI's run steps:
    continued lines joined, shell variables read as 1, redirections and
    comments dropped."""
    with open(os.path.join(os.path.dirname(TESTS), ".github", "workflows", "ci.yml")) as fh:
        text = re.sub(r"\\\n\s*", " ", fh.read())
    lines = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        for call in re.findall(r"pda-workbench ([^|;)]*)", line):
            tokens = shlex.split(re.sub(r"\$\w+", "1", call))
            lines.append([token for token in tokens if not re.match(r"\d?>", token)])
    return lines


def test_the_documented_and_benchmarked_lines_take_the_fast_path(tmp_path, monkeypatch):
    steps = workload_steps(tmp_path, monkeypatch)
    readme = readme_command_lines()
    ci = [argv for argv in ci_command_lines() if "--help" not in argv]
    assert len(steps) >= 30 and len(readme) >= 12 and len(ci) >= 25
    parser = _build_parser()
    for argv in steps + readme + ci:
        args = _fast_parse(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv)), argv


# Every name that the benchmark's per-layer trace patches, per module of the
# package; it looks each one up in its owner's __dict__ (the class's, for a
# dotted name).
PATCHED = {
    "cli": (
        "parse_pda", "parse_placement", "verify_pda",
        "partition_pda", "bipartite_pda", "mn_pda", "grouping_pda",
        "theorem1_exact", "theorem3_search", "ratio_report", "fill_greedy", "fill_exact",
        "place", "deliver", "decode", "run_sweep",
    ),
    "bounds": ("canonical_pattern", "theorem1_exact"),
    "filler": ("theorem1_exact", "build_conflict_graph", "fill_greedy"),
    "formulas": ("partition_pda", "theorem1_exact"),
    "simulate": ("place", "deliver", "decode", "FileLibrary.generate"),
}
ENGINE_MODULES = {
    "partition_pda": "constructions", "bipartite_pda": "constructions",
    "mn_pda": "constructions", "grouping_pda": "constructions",
    "theorem1_exact": "bounds", "theorem3_search": "bounds",
    "fill_exact": "filler", "ratio_report": "formulas",
    "place": "simulate", "deliver": "simulate", "decode": "simulate",
    "run_sweep": "simulate",
}
# Between them these runs call each engine entry point at least once.
EVERY_ENGINE_RUN = [
    (["construct", "partition", "--q", "2", "--m", "2"], ""),
    (["construct", "bipartite", "--m", "5", "--a", "2", "--b", "1"], ""),
    (["construct", "mn", "--k", "4", "--t", "2"], ""),
    (["construct", "grouping", "--m", "4", "--a", "1", "--b", "2", "--h", "2"], ""),
    (["bound"], MN_4_2),
    (["search", "--k", "3", "--f", "2", "--z", "1"], ""),
    (["fill"], MN_4_2),
    (["table", "--q-list", "2", "--m-max", "2"], ""),
    (["simulate", "--files", "4", "--demand", "1,2,3,4"], MN_4_2),
    (["simulate", "--files", "4", "--sample", "3"], MN_4_2),
]


@contextlib.contextmanager
def fresh_cli():
    """A newly executed copy of the cli module, as a new process has it.

    While the context lasts the copy is pda_workbench.cli and no command
    module is loaded, so the command modules that the copy imports are
    fresh and look the engines up on the copy."""
    import importlib.util

    import pda_workbench

    spec = importlib.util.find_spec("pda_workbench.cli")
    module = importlib.util.module_from_spec(spec)
    commands = [name for name in sys.modules if name.startswith("pda_workbench._cmd_")]
    with mock.patch.dict(sys.modules, {"pda_workbench.cli": module}), \
            mock.patch.object(pda_workbench, "cli", module):
        for name in commands:
            del sys.modules[name]
        spec.loader.exec_module(module)
        yield module


def run_quietly(cli, argv, stdin):
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_engine_entry_points_are_cli_attributes_from_import_on():
    import importlib

    with fresh_cli() as cli:
        assert [name for name in PATCHED["cli"] if name not in cli.__dict__] == []
        engines = {
            name: getattr(importlib.import_module("pda_workbench." + module), name)
            for name, module in ENGINE_MODULES.items()
        }
        assert [name for name in engines if cli.__dict__[name] is engines[name]] == []
        for argv, stdin in EVERY_ENGINE_RUN:
            assert run_quietly(cli, argv, stdin) == EXIT_OK, argv
        assert [name for name in engines if cli.__dict__[name] is not engines[name]] == []


def test_every_patch_point_of_the_trace_exists():
    # A missing name would fail only the traced benchmark run, so tier-1
    # checks the whole table, placeholders included.
    import importlib

    missing = []
    for module, names in PATCHED.items():
        owner = importlib.import_module("pda_workbench." + module)
        for dotted in names:
            *path, name = dotted.split(".")
            holder = owner
            for attr in path:
                holder = getattr(holder, attr)
            if name not in holder.__dict__:
                missing.append(f"{module}.{dotted}")
    assert missing == []


@pytest.mark.parametrize("warm", [True, False], ids=["after-warm-up", "before-first-use"])
def test_a_wrapper_on_the_cli_sees_each_engine_call_once(warm):
    with fresh_cli() as cli:
        if warm:
            assert run_quietly(cli, ["bound"], MN_4_2) == EXIT_OK
        calls = []
        inner = cli.theorem1_exact

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        cli.theorem1_exact = counting
        for runs in range(1, 4):
            assert run_quietly(cli, ["bound"], MN_4_2) == EXIT_OK
            assert len(calls) == runs
        assert cli.theorem1_exact is counting


# The modules that src/pda_workbench/*.py import at module level (not inside
# a function), as `import x` names x and `from x import y` names x.  Every
# CLI process pays for these, so a new one must show up here as a deliberate
# change, and one that no module imports any more must leave; an import
# inside the one command that needs it stays free.
MODULE_LEVEL_IMPORTS = {
    "__future__", "collections", "io",
    "itertools", "math", "os", "random", "sys", "time",
    "pda_workbench.bounds", "pda_workbench.cli", "pda_workbench.constructions",
    "pda_workbench.core",
}


def module_level_imports(tree):
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)  # the body runs only under a type checker
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                found.add(node.module)
            elif node.module:
                found.add("pda_workbench." + node.module)
            else:  # from . import x
                found.update("pda_workbench." + alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def package_sources():
    """File name -> source text for every module of the package."""
    package = os.path.dirname(main.__code__.co_filename)
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                sources[name] = fh.read()
    return sources


def test_module_level_imports_stay_within_the_known_set():
    found = set()
    for text in package_sources().values():
        found |= module_level_imports(ast.parse(text))
    assert "pda_workbench.core" in found  # the walk sees the package's own imports
    assert found == MODULE_LEVEL_IMPORTS, sorted(found ^ MODULE_LEVEL_IMPORTS)


def test_the_import_walk_skips_function_bodies():
    tree = ast.parse(
        "import os\nfrom . import core\nfrom .bounds import x\n"
        "if True:\n    import json\n"
        "class C:\n    import csv\n"
        "def f():\n    import dataclasses\n    from inspect import signature\n"
        "TYPE_CHECKING = False\nif TYPE_CHECKING:\n    from typing import List\n"
        "else:\n    import decimal\n"
    )
    assert module_level_imports(tree) == {
        "os", "pda_workbench.core", "pda_workbench.bounds", "json", "csv", "decimal"
    }


def string_annotation_names(tree):
    """The names inside the string annotations of `tree`, such as Sequence
    in `def f(x: "Sequence[int]")`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            annotations = [node.returns, *(p.annotation for p in params if p)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    for name in ast.walk(ast.parse(text.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def unused_imports(sources):
    """(file, name) for each name that an import statement anywhere in
    `sources` (file name -> source text) binds and its file never names
    again, in code or in a string annotation.  __future__ is skipped."""
    found = []
    for file, text in sources.items():
        tree = ast.parse(text)
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named.update(string_annotation_names(tree))
        found += [(file, name) for name in bound - named]
    return sorted(found)


def test_no_module_or_test_imports_a_name_it_never_uses():
    sources = {"src/" + name: text for name, text in package_sources().items()}
    tests = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(tests)):
        if name.endswith(".py"):
            with open(os.path.join(tests, name)) as fh:
                sources["tests/" + name] = fh.read()
    assert {"src/core.py", "tests/test_cli.py"} <= set(sources)
    assert unused_imports(sources) == []


def test_the_unused_import_scan_reads_string_annotations():
    sources = {
        "a.py": "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import List, Sequence, Tuple\n"
        "def f(x: \"Sequence[int]\") -> List[int]:\n"
        "    import csv\n    from math import gcd\n    return gcd(1, 2)\n"
        "y: \"Tuple[int, ...]\" = ()\n",
    }
    assert unused_imports(sources) == [("a.py", "csv"), ("a.py", "j"), ("a.py", "os")]


def unreferenced_public_names(sources):
    """(file, name) for each public top-level def or class in `sources`
    (file name -> source text) that no other top-level statement of any of
    them names, as a name, an attribute or an imported alias."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    statements = [statement for tree in trees.values() for statement in tree.body]
    named = [
        {
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        for statement in statements
    ]
    return sorted(
        (file, definition.name)
        for file, tree in trees.items()
        for definition in tree.body
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
        and not definition.name.startswith("_")
        and not any(
            definition.name in names
            for statement, names in zip(statements, named)
            if statement is not definition
        )
    )


def test_every_public_name_has_a_caller_in_the_package():
    # A public name that nothing in the package uses is product surface
    # kept alive only by its tests.
    sources = package_sources()
    assert "cli.py" in sources
    assert unreferenced_public_names(sources) == []


def test_the_caller_walk_ignores_a_definition_naming_itself():
    sources = {
        "a.py": "def imported(): pass\n"
        "def called_as_attribute(): pass\n"
        "def recursive():\n    return recursive()\n"
        "class Lone:\n    pass\n"
        "def _private(): pass\n",
        "b.py": "from a import imported\nimport a\nvalue = a.called_as_attribute()\n",
    }
    assert unreferenced_public_names(sources) == [("a.py", "Lone"), ("a.py", "recursive")]


def self_calling_functions(sources):
    """(file, name) for each function, nested ones included, in `sources`
    (file name -> source text) whose body calls its own name."""
    return sorted(
        (file, definition.name)
        for file, text in sources.items()
        for definition in ast.walk(ast.parse(text))
        if isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == definition.name
            for node in ast.walk(definition)
        )
    )


def test_no_function_in_the_package_calls_itself():
    # Recursion ties an engine's depth to the interpreter's recursion
    # limit, so a deep input would end in a RecursionError traceback.
    sources = package_sources()
    assert "bounds.py" in sources
    assert self_calling_functions(sources) == []


def test_the_recursion_walk_finds_nested_and_top_level_self_calls():
    sources = {
        "a.py": "def recursive(n):\n    return recursive(n - 1)\n"
        "def outer():\n    def inner():\n        return inner()\n    return inner\n"
        "def calls_another():\n    return recursive(1)\n"
        "def named_not_called():\n    return named_not_called\n",
    }
    assert self_calling_functions(sources) == [("a.py", "inner"), ("a.py", "recursive")]
