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

Each subcommand's arguments and handler live in its own module
(`_cmd_construct` ... `_cmd_table`), imported only for a line that names
it, so a process compiles no other subcommand's code.  The handlers look
the engines, `parse_pda` and `verify_pda` up on this module at call time,
because the benchmark's trace patches them here.
"""

from __future__ import annotations

import os
import sys

from . import core
from .core import (
    MalformedGridError,
    PdaGrid,
    PdaParams,
    StarPattern,
    parse_pda,
    parse_placement,
    to_star_pattern,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Callable, Optional, Sequence, Tuple


def _engine(module: str, name: str) -> Callable:
    """Stand in for `name` of the package module `module` until its first call.

    A process imports only the engines and family builders that its
    subcommand runs.  On its first call the stand-in imports the module,
    puts the real function in its place in this module (unless a wrapper
    has taken that place) and calls it.  These entry points stay attributes
    of this module from import on, because the benchmark's trace patches
    them here; the command modules look them up here at call time, so a
    wrapper in a stand-in's place sees every call.
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


# The trace patches this here, so the command modules call it through this
# module, as they call `parse_pda` and the stand-ins below.
verify_pda = core.verify_pda
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


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")


# subcommand -> (its line in the program's help, the module that holds its
# argument adder and handler), in the order the help lists them.
_COMMANDS = {
    "construct": ("emit a PDA from a named family", "_cmd_construct"),
    "verify": ("check the axioms of a PDA file", "_cmd_verify"),
    "bound": ("lower-bound S for a placement", "_cmd_bound"),
    "search": ("min-max bound over all placements", "_cmd_search"),
    "simulate": ("run the scheme on byte payloads", "_cmd_simulate"),
    "fill": ("synthesize a PDA for a star pattern", "_cmd_fill"),
    "table": ("bound-vs-construction comparison CSV", "_cmd_table"),
}


def _command(name: str) -> Tuple[Callable, Callable]:
    """Subcommand `name`'s argument adder and handler, from its module."""
    # `from ._cmd_<name> import _COMMAND`, spelled out as in `_engine`.
    return __import__(_COMMANDS[name][1], globals(), None, ("_COMMAND",), 1)._COMMAND


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
    add_arguments, handler = _command(command)
    declared = _Declared()
    add_arguments(declared)
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
    values.update(command=command, handler=handler)
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
    for name, (help_line, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        if command is None or command == name:
            add_arguments, handler = _command(name)
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
    # Under `python -m` this module runs as __main__.  A command module's
    # `from . import cli` must get this module, not compile and run a copy.
    sys.modules.setdefault("pda_workbench.cli", sys.modules[__name__])
    sys.exit(main())
