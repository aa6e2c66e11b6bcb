"""The construct subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

import sys

from . import cli
from .cli import EXIT_OK, _FAMILIES, _family_args, _params_line, _write_output
from .core import format_pda, pda_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=list(_FAMILIES))
    for flag in dict.fromkeys(n for _, names in _FAMILIES.values() for n in names):
        p.add_argument("--" + flag, type=int)
    p.add_argument("-o", "--output", default=None, help="write the array here instead of stdout")


def cmd_construct(args: argparse.Namespace) -> int:
    values, label = _family_args(args, args.family, f"construct {args.family}")
    grid = getattr(cli, _FAMILIES[args.family][0])(*values)
    params = pda_params(grid)
    _write_output(args.output, format_pda(grid))
    print(f"{label}: {_params_line(params)}", file=sys.stderr)
    return EXIT_OK


_COMMAND = (_construct_args, cmd_construct)
