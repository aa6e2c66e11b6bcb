"""Command-line surface: construct, verify, bound, search, simulate, fill,
table.

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

A well-formed command line is read by `_fast_parse` from the subcommand's
own argument declarations; argparse is imported only to print help or a
usage error, and for the line shapes that only it reads.
"""

from __future__ import annotations

import io
import os
import sys

from .core import (
    DEFAULT_COLOR_BUDGET,
    DEFAULT_NODE_BUDGET,
    DEFAULT_PACKET_LEN,
    MAX_ROWS,
    MalformedGridError,
    PdaGrid,
    PdaParams,
    StarPattern,
    format_pda,
    format_placement,
    parse_pda,
    parse_placement,
    pda_params,
    to_star_pattern,
    verify_pda,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Callable, Optional, Sequence, Tuple

    from .bounds import SearchReport


def _engine(module: str, name: str) -> Callable:
    """Stand in for `name` of the package module `module` until its first call.

    A process imports only the engines and family builders that its
    subcommand runs.  On its first call the stand-in imports the module,
    puts the real function in its place in this module (unless a wrapper
    has taken that place) and calls it.  These entry points stay attributes
    of this module from import on, because the benchmark's trace patches
    them here.
    """

    def stand_in(*args, **kwargs):
        # `from .<module> import <name>`, spelled out for a name known only
        # at run time.  importlib.import_module would skip the import
        # statement's path, so -X importtime would not report the module.
        real = getattr(__import__(module, globals(), None, (name,), 1), name)
        if globals()[name] is stand_in:
            globals()[name] = real
        return real(*args, **kwargs)

    return stand_in


partition_pda = _engine("constructions", "partition_pda")
bipartite_pda = _engine("constructions", "bipartite_pda")
mn_pda = _engine("constructions", "mn_pda")
grouping_pda = _engine("constructions", "grouping_pda")
theorem1_exact = _engine("bounds", "theorem1_exact")
theorem3_search = _engine("bounds", "theorem3_search")
fill_exact = _engine("filler", "fill_exact")
# No subcommand calls this; bench/layers.py patches it by this name.
fill_greedy = _engine("filler", "fill_greedy")
ratio_report = _engine("formulas", "ratio_report")
place = _engine("simulate", "place")
deliver = _engine("simulate", "deliver")
decode = _engine("simulate", "decode")
run_sweep = _engine("simulate", "run_sweep")

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
    head = (text.split(None, 1) or [""])[0]
    if head == "PDA":
        grid = parse_pda(text)
        return to_star_pattern(grid), grid
    if head == "PLC":
        return parse_placement(text), None
    raise MalformedGridError(f"unrecognized header {head!r}; want 'PDA' or 'PLC'")


def _frac_dict(r: Tuple[int, int]) -> dict:
    return {"num": r[0], "den": r[1]}


def _frac_text(r: Tuple[int, int]) -> str:  # "n/d", or "n" when d is 1
    return str(r[0]) if r[1] == 1 else f"{r[0]}/{r[1]}"


def _write_json(path: Optional[str], command: str, **fields) -> None:
    """Write the versioned envelope that every JSON output is."""
    import json

    payload = {"schema": SCHEMA, "command": command, **fields}
    _write_output(path, json.dumps(payload, indent=2) + "\n")


def _params_line(params: PdaParams) -> str:
    return (
        f"K={params.k} F={params.f} Z={params.z} S={params.s}"
        f" rate={_frac_text(params.rate)} memory={_frac_text(params.memory_ratio)}"
    )


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# family -> (its builder's name in this module, the builder's flags in
# order).  The builder is looked up by name when a command runs, so that a
# wrapper installed on this module's attribute sees the call.
_FAMILIES = {
    "partition": ("partition_pda", ("q", "m")),
    "bipartite": ("bipartite_pda", ("m", "a", "b")),
    "mn": ("mn_pda", ("k", "t")),
    "grouping": ("grouping_pda", ("m", "a", "b", "h")),
}


def _family_args(
    args: argparse.Namespace, family: str, command: str
) -> Tuple[Tuple[int, ...], str]:
    """The family's flag values and its `family(x=.., y=..)` label."""
    names = _FAMILIES[family][1]
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise _UsageError(f"{command} needs {flags}")
    values = tuple(getattr(args, n) for n in names)
    label = ", ".join(f"{n}={v}" for n, v in zip(names, values))
    return values, f"{family}({label})"


def cmd_construct(args: argparse.Namespace) -> int:
    values, label = _family_args(args, args.family, f"construct {args.family}")
    grid = globals()[_FAMILIES[args.family][0]](*values)
    params = pda_params(grid)
    _write_output(args.output, format_pda(grid))
    print(f"{label}: {_params_line(params)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    grid = parse_pda(_read_input(args.file))
    result = verify_pda(grid)
    params = pda_params(grid) if result.valid else None
    if args.format == "json":
        fields = {
            "valid": result.valid,
            "violations": [
                {"axiom": v.axiom, "cells": [list(c) for c in v.cells], "detail": v.detail}
                for v in result.violations
            ],
        }
        if params:
            fields["params"] = {
                **params._asdict(),
                "rate": _frac_dict(params.rate),
                "memory_ratio": _frac_dict(params.memory_ratio),
            }
        _write_json(None, "verify", **fields)
    elif result.valid:
        assert params is not None
        print(f"valid PDA: {_params_line(params)}")
    else:
        print(f"INVALID: {len(result.violations)} violation(s)")
        for v in result.violations:
            where = " ".join(f"({j},{k})" for j, k in v.cells) or "-"
            print(f"  {v.axiom} at {where}: {v.detail}")
    return EXIT_OK if result.valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _ordered_certificate(args: argparse.Namespace, pattern: StarPattern):
    """The `BoundCertificate` of the family ordering that --method names."""
    from .bounds import eval_ordering
    from .constructions import (
        bipartite_ordering,
        bipartite_params,
        partition_ordering,
        partition_params,
    )

    family = args.method.split(":", 1)[1]
    if family == "partition":
        shape_of, ordering = partition_params, partition_ordering
    else:
        shape_of, ordering = bipartite_params, bipartite_ordering
    values, label = _family_args(args, family, f"bound --method {args.method}")
    shape = shape_of(*values)
    if pattern.k != shape.k or pattern.f != shape.f:
        raise _UsageError(
            f"pattern is {pattern.f}x{pattern.k}, but {label} needs {shape.f}x{shape.k}"
        )
    return eval_ordering(pattern, ordering(*values))


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
    else:
        cert = _ordered_certificate(args, pattern)

    # S* <= S for every PDA with these stars, so a bound that meets a valid
    # grid's S is S*, whichever method found it.
    certified = cert.value == grid_symbols and verify_pda(grid).valid
    if certified:
        cert = cert._replace(exact=True)

    if args.format == "json":
        fields = cert.as_dict()
        if grid_symbols is not None:
            fields.update(grid_symbols=grid_symbols, certified=certified)
        _write_json(None, "bound", **fields)
    else:
        print(f"value: {cert.value}")
        print(f"rate bound: {_frac_text(cert.rate_bound)}")
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

def _floor_line(report: SearchReport) -> str:
    """The shape floor, and what it proves of the search's answer."""
    from math import comb

    k, f, z, floor = report.k, report.f, report.z, report.floor
    line = f"floor: {floor}"
    if not report.exhaustive and report.bounds_exact:
        line += f", so the min-max lies in [{floor}, {report.best_value}]"
    elif report.exhaustive and report.best_value == floor and 0 < z < f and k <= MAX_ROWS:
        h, left = divmod(k, comb(f, z))
        if not left:  # step 4 of the floor's proof: an array with S = floor
            line += f", met by construct grouping --m {f} --a {z} --b 1 --h {h}"
    return line


def cmd_search(args: argparse.Namespace) -> int:
    if args.z > args.f:
        raise _UsageError(f"need Z <= F, got Z={args.z}, F={args.f}")
    report = theorem3_search(args.k, args.f, args.z, budget=args.budget)
    if args.witness:
        _write_output(args.witness, format_placement(report.best_pattern))
    if args.format == "json":
        _write_json(None, "search", **report.as_dict())
    else:
        print(f"min-max value: {report.best_value} (rate bound {_frac_text(report.rate_bound)})")
        state = "complete" if report.exhaustive else "TRUNCATED by budget"
        print(
            f"evaluated {report.nodes_explored} placements"
            f" ({report.dedup_hits} pruned), {state}"
        )
        print(_floor_line(report))
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
    from .simulate import DecodeError, FileLibrary, all_demands, sample_demands

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
    if args.demand is not None:  # refused before any payload is drawn
        d = _parse_demand(args.demand, grid.k, args.files)
    params = pda_params(grid)
    lib = FileLibrary.generate(
        n=args.files, f=grid.f, packet_len=args.packet_len, seed=args.seed
    )

    if args.demand is not None:
        transcript = deliver(grid, lib, d)
        caches = place(grid, lib)
        try:
            outcome = decode(grid, transcript, caches, lib)
            ok = outcome.ok
            failure = None
        except DecodeError as e:  # signal None: the user's own cached row is missing
            ok = False
            failure = f"user {e.user}, row {e.row}"
            if e.signal is not None:
                failure = f"signal {e.signal}, {failure}"
        if args.transcript:
            _write_json(args.transcript, "simulate", **transcript.as_dict())
        if args.format == "json":
            _write_json(
                None,
                "simulate",
                demand=list(d),
                signals=len(transcript.signals),
                ok=ok,
                rate=_frac_dict(params.rate),
            )
        else:
            print(f"valid PDA: K={params.k} F={params.f} Z={params.z} S={params.s}")
            print("demand: " + " ".join(map(str, d)))
            for sig in transcript.signals:
                terms = " ^ ".join(f"W[{d[k - 1]},{j}]" for k, j in sig.terms)
                print(f"signal {sig.id}: {terms}")
            print("decode: " + ("OK (byte-exact)" if ok else f"FAILED ({failure})"))
            print(f"rate: {_frac_text(params.rate)}")
        return EXIT_OK if ok else EXIT_INVALID

    if args.sweep:
        demands = all_demands(args.files, grid.k)
    else:
        demands = sample_demands(args.files, grid.k, args.sample, seed=args.seed)
    sweep = run_sweep(grid, lib, demands)
    if args.format == "json":
        _write_json(
            None,
            "simulate",
            demands_checked=sweep.demands_checked,
            all_ok=sweep.all_ok,
            rate=_frac_dict(sweep.rate),
            first_failure=list(sweep.first_failure) if sweep.first_failure else None,
            stats=sweep.stats,
        )
    else:
        verdict = "all byte-exact" if sweep.all_ok else f"FAILED at demand {sweep.first_failure}"
        print(f"checked {sweep.demands_checked} demand(s): {verdict}")
        print(f"rate: {_frac_text(sweep.rate)}")
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
    result = fill_exact(pattern, budget=args.budget)
    _write_output(args.output, format_pda(result.grid))
    note = "optimality certified" if result.optimal else "NOT proven optimal (budget)"
    bound = str(result.lower_bound)
    if result.class_size is not None:
        bound += f", symbol classes of at most {result.class_size}"
    print(f"exact fill: S = {result.colors} (lower bound {bound}) — {note}", file=sys.stderr)
    return EXIT_OK if result.optimal else EXIT_BUDGET


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args: argparse.Namespace) -> int:
    import csv

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
            row = ratio_report(q, m, want_exact=(m + 1) * q <= args.exact_cap)
            try:
                numbers = [str(row.s_pda), str(row.s_derived)]
            except ValueError as e:
                # Past the interpreter's integer-to-string digit limit.
                # s_pda = (q-1)q^m only grows with m, so this q is done.
                print(f"skipping q={q}, m={m} and above: {e}", file=sys.stderr)
                break
            writer.writerow(
                [
                    q,
                    m,
                    *numbers,
                    "" if row.s_exact is None else row.s_exact,
                    "" if row.mu is None else f"{row.mu[0] / row.mu[1]:.6f}",
                    f"{row.formula_ratio[0] / row.formula_ratio[1]:.6f}",
                ]
            )
    _write_output(args.output, out.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=list(_FAMILIES))
    for flag in dict.fromkeys(n for _, names in _FAMILIES.values() for n in names):
        p.add_argument("--" + flag, type=int)
    p.add_argument("-o", "--output", default=None, help="write the array here instead of stdout")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-")
    _add_format(p)


def _bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--method", choices=["exact", "ordered:partition", "ordered:bipartite"], default="exact"
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="cap on the intersections the exact search expands; past it the"
        " better of the identity and greedy orderings is reported with method"
        " branch_bound, and with exit code 3 unless it meets a valid grid's S",
    )
    for flag in dict.fromkeys(_FAMILIES["partition"][1] + _FAMILIES["bipartite"][1]):
        p.add_argument("--" + flag, type=int)
    _add_format(p)


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on exact-bound evaluations (partial and full placements)",
    )
    p.add_argument("-o", "--witness", default=None, help="write the best placement here")
    _add_format(p)


def _simulate_args(p: argparse.ArgumentParser) -> None:
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


def _fill_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_COLOR_BUDGET,
        help="node cap for the exact search; the ordering lower bound expands at most"
        " min(budget, 1e6) intersections, so 0 returns the first-fit grid at once",
    )
    p.add_argument("-o", "--output", default=None)


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-list", default="2,3,4,5")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--exact-cap", type=int, default=16, help="run the exact engine up to this many users")
    p.add_argument("-o", "--output", default=None)


# subcommand -> (its line in the program's help, the function that adds its
# arguments, its handler), in the order the help lists them.
_COMMANDS = {
    "construct": ("emit a PDA from a named family", _construct_args, cmd_construct),
    "verify": ("check the axioms of a PDA file", _verify_args, cmd_verify),
    "bound": ("lower-bound S for a placement", _bound_args, cmd_bound),
    "search": ("min-max bound over all placements", _search_args, cmd_search),
    "simulate": ("run the scheme on byte payloads", _simulate_args, cmd_simulate),
    "fill": ("synthesize a PDA for a star pattern", _fill_args, cmd_fill),
    "table": ("bound-vs-construction comparison CSV", _table_args, cmd_table),
}


class _Declared:
    """A subcommand's arguments, recorded from its `add_argument` calls.

    An argument adder runs against this in place of an argparse parser, so
    that flags, types, defaults, choices and required flags are declared
    in one place for both readers of a command line.  An argument is
    (dest, takes no value, type, choices, required).
    """

    def __init__(self) -> None:
        self.options: dict = {}  # each option string -> its argument
        self.positionals: list = []
        self.defaults: dict = {}  # dest -> default

    def add_argument(self, *names, action=None, nargs=None, default=None, type=None,
                     choices=None, required=False, help=None) -> None:
        dest = next((n for n in names if n.startswith("--")), names[0])
        dest = dest.lstrip("-").replace("-", "_")
        switch = action == "store_true"
        self.defaults[dest] = False if switch else default
        if names[0].startswith("-"):
            self.options.update(dict.fromkeys(names, (dest, switch, type, choices, required)))
        else:
            self.positionals.append((dest, False, type, choices, nargs != "?"))


class _Namespace:  # argparse.Namespace, without importing argparse
    def __init__(self, **values) -> None:
        self.__dict__.update(values)


def _is_argument(token: str) -> bool:
    """Whether argparse reads `token` as a value rather than an option: "-",
    a token not starting with "-", or a negative decimal integer."""
    return token == "-" or not token.startswith("-") or token[1:].isdecimal()


def _fast_parse(argv: Sequence[str]) -> Optional[_Namespace]:
    """The namespace argparse would give `argv`, or None.

    Reads a strict subset of the lines argparse accepts: the subcommand
    first, then each declared option at most once, spelt as declared, with
    its value, if it takes one, in the next token, and the positionals.
    Any other line (help, `--opt=value`, `-oVALUE`, `--`, a repeated
    option, an unknown dash token, a bad value or choice, a missing
    required argument, an extra positional) gives None and is left to
    argparse, which alone prints help and usage errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    declared = _Declared()
    _COMMANDS[command][1](declared)
    positionals = iter(declared.positionals)
    values: dict = {}
    for token in tokens:
        argument = declared.options.get(token)
        if argument is None:
            argument, value = next(positionals, None), token
        else:
            value = True if argument[1] else next(tokens, None)
        if argument is None or value is None:
            return None
        dest, switch, convert, choices, _ = argument
        if dest in values:
            return None
        if not switch:
            if not _is_argument(value):
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
    arguments = [*declared.options.values(), *declared.positionals]
    if any(required and dest not in values for dest, _, _, _, required in arguments):
        return None
    values.update(command=command, handler=_COMMANDS[command][2])
    return _Namespace(**{**declared.defaults, **values})


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The program's parser, with every subcommand and its help line.

    Only `command` gets its arguments and handler, or every subcommand when
    `command` is None; a subcommand that a command line never reaches
    needs neither, and building them is a measurable share of start-up.
    argparse, with the gettext and locale that it loads, is imported here,
    so that a line that `_fast_parse` reads loads none of them.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="pda-workbench",
        description="Construct, verify, bound, fill and simulate placement delivery arrays.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        if command is None or command == name:
            add_arguments(p)
            p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv)
    if args is None:
        # argparse hands the rest of the line to the subcommand named by the
        # first positional token.  The program takes no option with a
        # value, so whenever that token is a subcommand it is the first
        # token naming one; otherwise parsing fails before any subcommand's
        # arguments are read.
        command = next((token for token in argv if token in _COMMANDS), "")
        args = _build_parser(command).parse_args(argv)
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
