"""The table subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

import io
import sys

from . import cli
from .cli import EXIT_OK, _UsageError, _write_output

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-list", default="2,3,4,5")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--exact-cap", type=int, default=16, help="run the exact engine up to this many users")
    p.add_argument("-o", "--output", default=None)


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
            row = cli.ratio_report(q, m, want_exact=(m + 1) * q <= args.exact_cap)
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


_COMMAND = (_table_args, cmd_table)
