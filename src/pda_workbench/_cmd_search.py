"""The search subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

from . import cli
from .cli import EXIT_BUDGET, EXIT_OK, _UsageError, _add_format, _frac_text, _write_json
from .cli import _write_output
from .core import MAX_ROWS, format_placement

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .bounds import SearchReport


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
    report = cli.theorem3_search(args.k, args.f, args.z, budget=args.budget)
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


_COMMAND = (_search_args, cmd_search)
