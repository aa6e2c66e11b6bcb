"""The fill subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

import sys

from . import cli
from .cli import EXIT_BUDGET, EXIT_OK, _load_pattern, _write_output
from .core import DEFAULT_COLOR_BUDGET, MalformedGridError, format_pda

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


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


def cmd_fill(args: argparse.Namespace) -> int:
    pattern, _ = _load_pattern(args.file)
    if pattern.uniform_z() is None:
        sizes = ", ".join(map(str, sorted(set(pattern.sizes()))))
        raise MalformedGridError(
            f"users leave unequal numbers of rows uncached ({sizes}), so no fill satisfies C1"
        )
    result = cli.fill_exact(pattern, budget=args.budget)
    _write_output(args.output, format_pda(result.grid))
    note = "optimality certified" if result.optimal else "NOT proven optimal (budget)"
    bound = str(result.lower_bound)
    if result.class_size is not None:
        bound += f", symbol classes of at most {result.class_size}"
    print(f"exact fill: S = {result.colors} (lower bound {bound}) — {note}", file=sys.stderr)
    return EXIT_OK if result.optimal else EXIT_BUDGET


_COMMAND = (_fill_args, cmd_fill)
