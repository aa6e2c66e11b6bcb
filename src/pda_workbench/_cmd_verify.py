"""The verify subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

from . import cli
from .cli import EXIT_INVALID, EXIT_OK, _add_format, _frac_dict, _params_line, _read_input
from .cli import _write_json
from .core import pda_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-")
    _add_format(p)


def cmd_verify(args: argparse.Namespace) -> int:
    grid = cli.parse_pda(_read_input(args.file))
    result = cli.verify_pda(grid)
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


_COMMAND = (_verify_args, cmd_verify)
