"""The simulate subcommand's arguments and handler, imported by `cli` to run it."""

from __future__ import annotations

from . import cli
from .cli import EXIT_INVALID, EXIT_OK, _add_format, _frac_dict, _frac_text, _read_input
from .cli import _write_json
from .core import DEFAULT_PACKET_LEN, MalformedGridError, pda_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Tuple


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


def _parse_demand(text: str, k: int, n: int) -> Tuple[int, ...]:
    try:
        d = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"bad demand {text!r}; want comma-separated file ids") from None
    if len(d) != k:
        raise ValueError(f"demand has {len(d)} entries, the array has K={k} users")
    if any(not 1 <= x <= n for x in d):
        raise ValueError(f"demand entries must lie in [1, {n}]")
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
        raise ValueError(f"need one of --demand, --sweep, --sample{got}")
    if args.sample is not None and args.sample < 1:
        raise ValueError(f"--sample needs at least 1 demand, got {args.sample}")
    if args.transcript is not None and args.demand is None:
        raise ValueError("--transcript needs --demand")
    grid = cli.parse_pda(_read_input(args.file))
    result = cli.verify_pda(grid)
    if not result.valid:
        raise MalformedGridError(f"INVALID PDA: {len(result.violations)} violation(s)")
    if args.demand is not None:  # refused before any payload is drawn
        d = _parse_demand(args.demand, grid.k, args.files)
    params = pda_params(grid)
    lib = FileLibrary.generate(
        n=args.files, f=grid.f, packet_len=args.packet_len, seed=args.seed
    )

    if args.demand is not None:
        transcript = cli.deliver(grid, lib, d)
        caches = cli.place(grid, lib)
        try:
            outcome = cli.decode(grid, transcript, caches, lib)
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
    sweep = cli.run_sweep(grid, lib, demands)
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


_COMMAND = (_simulate_args, cmd_simulate)
