"""The bound subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

from . import cli
from .cli import EXIT_BUDGET, EXIT_OK, _FAMILIES, _add_format, _family_args, _frac_text
from .cli import _load_pattern, _write_json
from .core import DEFAULT_NODE_BUDGET, MalformedGridError, pda_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Optional

    from .core import StarPattern


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
        raise ValueError(
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
            raise MalformedGridError(f"C1 fails: {e}") from None
    if args.method == "exact":
        cert = cli.theorem1_exact(pattern, budget=args.budget)
    else:
        cert = _ordered_certificate(args, pattern)

    # S* <= S for every PDA with these stars, so a bound that meets a valid
    # grid's S is S*, whichever method found it.
    certified = cert.value == grid_symbols and cli.verify_pda(grid).valid
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


_COMMAND = (_bound_args, cmd_bound)
