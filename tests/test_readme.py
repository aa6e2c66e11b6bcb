"""The README's console blocks, replayed through the CLI.

Each ```console block is run in a fresh directory, one `$ pda-workbench ...`
line after another, so files written by `-o` feed the lines that follow.
A `|` pipes one stage's stdout into the next, and `2>/dev/null` drops a
stage's stderr.  The text shown under a line must equal every kept stderr,
stage by stage, followed by the last stage's stdout, line for line (the
table's CSV ends its lines in CRLF, which a terminal shows as plain lines).
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from pda_workbench.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def console_blocks():
    """Per console block, its (command line, shown output lines) pairs."""
    text = README.read_text(encoding="utf-8")
    parsed = []
    for block in re.findall(r"^```console\n(.*?)^```$", text, re.M | re.S):
        commands = []
        for line in block.splitlines():
            if line.startswith("$ "):
                commands.append((line[2:], []))
            else:
                commands[-1][1].append(line)
        parsed.append(commands)
    return parsed


def replay(command):
    """Run one shell line of pda-workbench stages; return what it shows."""
    stages = [[]]
    for tok in shlex.split(command):
        if tok == "|":
            stages.append([])
        else:
            stages[-1].append(tok)
    shown, stdout = "", ""
    for argv in stages:
        assert argv[0] == "pda-workbench", command
        keep_err = "2>/dev/null" not in argv
        argv = [tok for tok in argv[1:] if tok != "2>/dev/null"]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdout)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_OK, (command, err.getvalue())
        stdout = out.getvalue()
        if keep_err:
            shown += err.getvalue()
    return shown + stdout


BLOCKS = console_blocks()


def test_readme_has_console_blocks():
    assert BLOCKS and all(BLOCKS)


@pytest.mark.parametrize("commands", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_console_block_matches_the_cli(commands, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, shown in commands:
        assert replay(command).splitlines() == shown, command
