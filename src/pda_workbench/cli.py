"""Command-line surface: construct, verify, bound, search, simulate, fill,
table, formulas.

Conventions shared by every subcommand:

* grids travel in the PDA text format and placements in the PLC format;
  a file argument of "-" (the default) means stdin, so
  `pda-workbench construct mn --k 4 --t 2 | pda-workbench verify` works —
  construct prints only the array on stdout and chats on stderr;
* --format json wraps the same facts in a versioned envelope
  ("schema": "pda-workbench/1"); table emits CSV;
* exit codes: 0 success, 1 the input failed a check (invalid array, decode
  mismatch), 2 usage error, 3 a search ran out of budget before proving
  its answer; main() is the one place that maps exceptions to these
  codes, so no input ends in a traceback;
* --seed controls every pseudorandom payload.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Tuple

from .bounds import (
    DEFAULT_NODE_BUDGET,
    BoundCertificate,
    bipartite_ordering,
    eval_ordering,
    partition_ordering,
    theorem1_exact,
    theorem1_greedy,
    theorem3_search,
)
from .constructions import (
    bipartite_pda,
    grouping_pda,
    mn_pda,
    partition_pda,
)
from .core import (
    MalformedGridError,
    PdaGrid,
    StarPattern,
    format_pda,
    format_placement,
    parse_pda,
    parse_placement,
    pda_params,
    to_star_pattern,
    verify_pda,
)
from .filler import DEFAULT_COLOR_BUDGET, fill_exact, fill_greedy
from .formulas import (
    binomial_identity_check,
    formula_ratio,
    geometric_sum,
    lemma3_intersection,
    partition_bound_closed,
    partition_bound_printed_odd,
    partition_counts,
    phi,
    ratio_report,
)
from .simulate import (
    DEFAULT_PACKET_LEN,
    DecodeError,
    FileLibrary,
    all_demands,
    decode,
    deliver,
    place,
    run_sweep,
    sample_demands,
)

SCHEMA = "pda-workbench/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_pattern(path: str) -> Tuple[StarPattern, Optional[PdaGrid]]:
    """Read a placement; grids are accepted and reduced to their stars."""
    text = _read_input(path)
    head = text.split(None, 1)[0] if text.split() else ""
    if head == "PDA":
        grid = parse_pda(text)
        return to_star_pattern(grid), grid
    if head == "PLC":
        return parse_placement(text), None
    raise MalformedGridError(f"unrecognized header {head!r}; want 'PDA' or 'PLC'")


def _frac_dict(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _require(args: argparse.Namespace, names: Sequence[str], family: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise _UsageError(f"construct {family} needs {flags}")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "partition":
        _require(args, ["q", "m"], "partition")
        grid = partition_pda(args.q, args.m)
        label = f"partition(q={args.q}, m={args.m})"
    elif args.family == "bipartite":
        _require(args, ["m", "a", "b"], "bipartite")
        grid = bipartite_pda(args.m, args.a, args.b)
        label = f"bipartite(m={args.m}, a={args.a}, b={args.b})"
    elif args.family == "mn":
        _require(args, ["k", "t"], "mn")
        grid = mn_pda(args.k, args.t)
        label = f"mn(k={args.k}, t={args.t})"
    else:
        _require(args, ["m", "a", "b", "h"], "grouping")
        grid = grouping_pda(args.m, args.a, args.b, args.h)
        label = f"grouping(m={args.m}, a={args.a}, b={args.b}, h={args.h})"
    params = pda_params(grid)
    _write_output(args.output, format_pda(grid))
    print(
        f"{label}: K={params.k} F={params.f} Z={params.z} S={params.s}"
        f" rate={params.rate} memory={params.memory_ratio}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    grid = parse_pda(_read_input(args.file))
    result = verify_pda(grid)
    params = pda_params(grid) if result.valid else None
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "valid": result.valid,
            "violations": [
                {"axiom": v.axiom, "cells": [list(c) for c in v.cells], "detail": v.detail}
                for v in result.violations
            ],
        }
        if params:
            payload["params"] = {
                "k": params.k,
                "f": params.f,
                "z": params.z,
                "s": params.s,
                "rate": _frac_dict(params.rate),
                "memory_ratio": _frac_dict(params.memory_ratio),
            }
        _print_json(payload)
    elif result.valid:
        assert params is not None
        print(
            f"valid PDA: K={params.k} F={params.f} Z={params.z} S={params.s}"
            f" rate={params.rate} memory={params.memory_ratio}"
        )
    else:
        print(f"INVALID: {len(result.violations)} violation(s)")
        for v in result.violations:
            where = " ".join(f"({j},{k})" for j, k in v.cells) or "-"
            print(f"  {v.axiom} at {where}: {v.detail}")
    return EXIT_OK if result.valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _ordered_certificate(
    args: argparse.Namespace, pattern: StarPattern
) -> BoundCertificate:
    family = args.method.split(":", 1)[1]
    if family == "partition":
        _require(args, ["q", "m"], "bound --method ordered:partition")
        q, m = args.q, args.m
        if pattern.k != (m + 1) * q or pattern.f != q ** m:
            raise _UsageError(
                f"pattern is {pattern.f}x{pattern.k}, but partition(q={q}, m={m}) "
                f"needs {q ** m}x{(m + 1) * q}"
            )
        return eval_ordering(pattern, partition_ordering(q, m))
    if family == "bipartite":
        _require(args, ["m", "a", "b"], "bound --method ordered:bipartite")
        m, a, b = args.m, args.a, args.b
        if pattern.k != comb(m, a) or pattern.f != comb(m, b):
            raise _UsageError(
                f"pattern is {pattern.f}x{pattern.k}, but bipartite(m={m}, a={a}, b={b}) "
                f"needs {comb(m, b)}x{comb(m, a)}"
            )
        return eval_ordering(pattern, bipartite_ordering(m, a, b))
    raise _UsageError(f"unknown ordering family {family!r}")


def cmd_bound(args: argparse.Namespace) -> int:
    pattern, grid = _load_pattern(args.file)
    grid_symbols: Optional[int] = None
    if grid is not None:
        try:
            grid_symbols = pda_params(grid).s
        except ValueError as e:
            print(f"error: C1 fails: {e}", file=sys.stderr)
            return EXIT_INVALID
    if args.method == "exact":
        cert = theorem1_exact(pattern, budget=args.budget)
    elif args.method == "greedy":
        cert = theorem1_greedy(pattern)
    elif args.method.startswith("ordered:"):
        cert = _ordered_certificate(args, pattern)
    else:
        raise _UsageError(f"unknown method {args.method!r}")

    certified = cert.value == grid_symbols

    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "bound", **cert.as_dict()}
        if grid_symbols is not None:
            payload["grid_symbols"] = grid_symbols
            payload["certified"] = certified
        _print_json(payload)
    else:
        print(f"value: {cert.value}")
        print(f"rate bound: {cert.rate_bound}")
        print(f"method: {cert.method}" + ("" if cert.exact else " (not proven maximal)"))
        print("witness: " + " ".join(str(u) for u in cert.witness))
        print("steps: " + " ".join(str(s) for s in cert.step_sizes))
        if certified:
            print(f"optimality certified: bound meets S = {grid_symbols}")
    if args.method == "exact" and not cert.exact:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args: argparse.Namespace) -> int:
    if args.z > args.f:
        raise _UsageError(f"need Z <= F, got Z={args.z}, F={args.f}")
    report = theorem3_search(args.k, args.f, args.z, mode=args.mode, budget=args.budget)
    if args.witness:
        _write_output(args.witness, format_placement(report.best_pattern))
    if args.format == "json":
        _print_json({"schema": SCHEMA, "command": "search", **report.as_dict()})
    else:
        print(f"min-max value: {report.best_value} (rate bound {report.rate_bound})")
        state = "complete" if report.exhaustive else "TRUNCATED by budget"
        print(
            f"evaluated {report.nodes_explored} placements"
            f" ({report.dedup_hits} pruned), {state}"
        )
        for k, rows in enumerate(report.best_pattern.uncached_sets(), start=1):
            print(f"  user {k} uncached rows: " + " ".join(map(str, rows)))
    return EXIT_OK if report.exhaustive else EXIT_BUDGET


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_demand(text: str, k: int, n: int) -> Tuple[int, ...]:
    try:
        d = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"bad demand {text!r}; want comma-separated file ids") from None
    if len(d) != k:
        raise _UsageError(f"demand has {len(d)} entries, the array has K={k} users")
    if any(not 1 <= x <= n for x in d):
        raise _UsageError(f"demand entries must lie in [1, {n}]")
    return d


def cmd_simulate(args: argparse.Namespace) -> int:
    modes = [
        flag
        for flag, given in (
            ("--demand", args.demand is not None),
            ("--sweep", args.sweep),
            ("--sample", args.sample is not None),
        )
        if given
    ]
    if len(modes) != 1:
        got = f" (got {' and '.join(modes)})" if modes else ""
        raise _UsageError(f"need one of --demand, --sweep, --sample{got}")
    if args.sample is not None and args.sample < 1:
        raise _UsageError(f"--sample needs at least 1 demand, got {args.sample}")
    if args.transcript is not None and args.demand is None:
        raise _UsageError("--transcript needs --demand")
    grid = parse_pda(_read_input(args.file))
    result = verify_pda(grid)
    if not result.valid:
        print(f"INVALID PDA: {len(result.violations)} violation(s)", file=sys.stderr)
        return EXIT_INVALID
    params = pda_params(grid)
    lib = FileLibrary.generate(
        n=args.files, f=grid.f, packet_len=args.packet_len, seed=args.seed
    )

    if args.demand is not None:
        d = _parse_demand(args.demand, grid.k, args.files)
        transcript = deliver(grid, lib, d)
        caches = place(grid, lib)
        try:
            outcome = decode(grid, transcript, caches, d, lib)
            ok = outcome.ok
            failure = None
        except DecodeError as e:
            ok = False
            failure = f"signal {e.signal}, user {e.user}, row {e.row}"
        if args.transcript:
            payload = {"schema": SCHEMA, "command": "simulate", **transcript.as_dict()}
            _write_output(args.transcript, json.dumps(payload, indent=2) + "\n")
        if args.format == "json":
            _print_json(
                {
                    "schema": SCHEMA,
                    "command": "simulate",
                    "demand": list(d),
                    "signals": len(transcript.signals),
                    "ok": ok,
                    "rate": _frac_dict(params.rate),
                }
            )
        else:
            print(f"valid PDA: K={params.k} F={params.f} Z={params.z} S={params.s}")
            print("demand: " + " ".join(map(str, d)))
            for sig in transcript.signals:
                terms = " ^ ".join(f"W[{d[k - 1]},{j}]" for k, j in sig.terms)
                print(f"signal {sig.id}: {terms}")
            print("decode: " + ("OK (byte-exact)" if ok else f"FAILED ({failure})"))
            print(f"rate: {params.rate}")
        return EXIT_OK if ok else EXIT_INVALID

    if args.sweep:
        demands = all_demands(args.files, grid.k)
    else:
        demands = sample_demands(args.files, grid.k, args.sample, seed=args.seed)
    sweep = run_sweep(grid, lib, demands)
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA,
                "command": "simulate",
                "demands_checked": sweep.demands_checked,
                "all_ok": sweep.all_ok,
                "rate": _frac_dict(sweep.rate),
                "first_failure": list(sweep.first_failure) if sweep.first_failure else None,
                "stats": sweep.stats,
            }
        )
    else:
        verdict = "all byte-exact" if sweep.all_ok else f"FAILED at demand {sweep.first_failure}"
        print(f"checked {sweep.demands_checked} demand(s): {verdict}")
        print(f"rate: {sweep.rate}")
    return EXIT_OK if sweep.all_ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# fill
# ---------------------------------------------------------------------------

def cmd_fill(args: argparse.Namespace) -> int:
    pattern, _ = _load_pattern(args.file)
    if pattern.uniform_z() is None:
        sizes = sorted(set(pattern.sizes()))
        print(
            "error: users leave unequal numbers of rows uncached"
            f" ({', '.join(map(str, sizes))}), so no fill satisfies C1",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.method == "greedy":
        grid = fill_greedy(pattern)
        _write_output(args.output, format_pda(grid))
        print(f"greedy fill: S = {grid.max_symbol()}", file=sys.stderr)
        return EXIT_OK
    result = fill_exact(pattern, budget=args.budget)
    _write_output(args.output, format_pda(result.grid))
    note = "optimality certified" if result.optimal else "NOT proven optimal (budget)"
    print(
        f"exact fill: S = {result.colors} (lower bound {result.lower_bound}) — {note}",
        file=sys.stderr,
    )
    return EXIT_OK if result.optimal else EXIT_BUDGET


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args: argparse.Namespace) -> int:
    try:
        q_list = [int(tok) for tok in args.q_list.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --q-list {args.q_list!r}") from None
    if not q_list or any(q < 2 for q in q_list):
        raise _UsageError("--q-list needs integers >= 2")
    if args.m_max < 2:
        raise _UsageError("--m-max must be at least 2")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["q", "m", "s_pda", "s_derived", "s_exact", "mu", "formula_ratio"])
    for q in q_list:
        for m in range(2, args.m_max + 1):
            want_exact = (m + 1) * q <= args.exact_cap
            try:
                row = ratio_report(q, m, want_exact=want_exact)
            except ValueError as e:
                print(f"skipping q={q}, m={m}: {e}", file=sys.stderr)
                continue
            writer.writerow(
                [
                    q,
                    m,
                    row.s_pda,
                    row.s_derived,
                    "" if row.s_exact is None else row.s_exact,
                    "" if row.mu is None else f"{float(row.mu):.6f}",
                    f"{float(row.formula_ratio):.6f}",
                ]
            )
    _write_output(args.output, out.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def cmd_formulas(args: argparse.Namespace) -> int:
    failures = 0

    def check(label: str, fn) -> None:
        nonlocal failures
        try:
            detail = fn()
        except (AssertionError, ValueError) as e:
            failures += 1
            print(f"FAIL {label}: {e}")
        else:
            print(f"ok   {label}" + (f" ({detail})" if detail else ""))

    def run_phi():
        cases = 0
        for q in range(3, 65):
            prev = None
            for z in range(2, q + 1):
                value = phi(q, z)
                assert value < 1, f"phi({q},{z}) = {value} >= 1"
                if prev is not None:
                    assert value <= prev, f"phi not monotone at ({q},{z})"
                prev = value
                cases += 1
        return f"{cases} cases, q in [3,64]"

    def run_counts():
        cases = 0
        for q in range(2, 7):
            for m in range(1, 9):
                partition_counts(q, m)
                cases += 1
        return f"{cases} (q,m) grids, enumeration vs two-size law"

    def run_lemma3():
        from itertools import combinations as combos, product as prod

        cases = 0
        for q in range(2, 5):
            for m in range(2, 4):
                for tail in prod(range(1, q), repeat=m - 1):
                    for l in range(1, q):
                        for rs in combos(range(1, q + 1), l):
                            lemma3_intersection(q, m, l, rs, tail)
                            cases += 1
        return f"{cases} fiber checks"

    def run_geometric():
        for q in range(2, 11):
            for m in range(1, 13):
                geometric_sum(q, m)
        return "q in [2,10], m in [1,12]"

    def run_binomial():
        cases = 0
        for m in range(3, 17):
            for a in range(1, m):
                for b in range(1, m - a):
                    binomial_identity_check(m, a, b)
                    cases += 1
        return f"{cases} (m,a,b) triples, m <= 16"

    def run_bounds():
        assert partition_bound_closed(3, 2) == 15
        assert partition_bound_closed(3, 3) == 47
        for m in range(2, 7):
            assert partition_bound_closed(2, m) == 2 ** m
        return "(3,2)=15, (3,3)=47, q=2 column = 2^m"

    check("shrink factor below 1 and monotone", run_phi)
    check("residue class sizes", run_counts)
    check("fiber intersection closed form", run_lemma3)
    check("geometric identity", run_geometric)
    check("stage-sum identity", run_binomial)
    check("ordering bound values", run_bounds)

    printed = partition_bound_printed_odd(3, 3)
    oracle = partition_bound_closed(3, 3)
    print(
        f"note: odd-m printed constant gives {printed} = {float(printed):.3f} at "
        f"(q=3, m=3); the ordering oracle gives {oracle}. The printed form is "
        "non-integral, so it is reported but never asserted."
    )
    return EXIT_OK if failures == 0 else EXIT_INVALID


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pda-workbench",
        description="Construct, verify, bound, fill and simulate placement delivery arrays.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a PDA from a named family", allow_abbrev=False)
    p.add_argument("family", choices=["partition", "bipartite", "mn", "grouping"])
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("-o", "--output", default=None, help="write the array here instead of stdout")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", help="check the axioms of a PDA file", allow_abbrev=False)
    p.add_argument("file", nargs="?", default="-")
    _add_format(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bound", help="lower-bound S for a placement", allow_abbrev=False)
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--method",
        default="exact",
        help="exact | greedy | ordered:partition | ordered:bipartite",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="cap on the intersections the exact search expands; past it the"
        " better of the identity and greedy orderings is reported with method"
        " branch_bound and exit code 3",
    )
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    _add_format(p)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("search", help="min-max bound over all placements", allow_abbrev=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=["canonical", "exhaustive"],
        default="canonical",
        help="canonical: branch and bound over placements up to row and user"
        " relabelling, cutting partial placements by the monotone bound;"
        " exhaustive: every placement in turn, after listing all C(F, Z)"
        " subsets, as an oracle for small shapes",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on exact-bound evaluations (partial and full placements)",
    )
    p.add_argument("-o", "--witness", default=None, help="write the best placement here")
    _add_format(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("simulate", help="run the scheme on byte payloads", allow_abbrev=False)
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--files", type=int, required=True, help="library size N")
    # exactly one of --demand, --sweep and --sample
    p.add_argument("--demand", default=None, help="comma-separated file per user")
    p.add_argument("--sweep", action="store_true", help="try every demand in [N]^K")
    p.add_argument("--sample", type=int, default=None, help="try this many (>= 1) random demands")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--packet-len", type=int, default=DEFAULT_PACKET_LEN)
    p.add_argument("--transcript", default=None, help="with --demand, dump signals as JSON here")
    _add_format(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fill", help="synthesize a PDA for a star pattern", allow_abbrev=False)
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--method", choices=["exact", "greedy"], default="exact")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_COLOR_BUDGET, help="node cap for the exact search"
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_fill)

    p = sub.add_parser("table", help="bound-vs-construction comparison CSV", allow_abbrev=False)
    p.add_argument("--q-list", default="2,3,4,5")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--exact-cap", type=int, default=16, help="run the exact engine up to this many users")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("formulas", help="run the closed-form self-checks", allow_abbrev=False)
    p.set_defaults(handler=cmd_formulas)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone.  As the `signal` docs advise, point stdout at
        # devnull so that the interpreter's last flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except MalformedGridError as e:
        message, code = str(e), EXIT_INVALID
    except (_UsageError, ValueError) as e:
        message, code = str(e), EXIT_USAGE
    except OSError as e:
        verb = "read" if e.filename == getattr(args, "file", "-") else "write"
        message, code = f"cannot {verb} {e.filename or 'stdout'}: {e.strerror}", EXIT_USAGE
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
