"""The README's CLI block, run as written."""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import lanenas
from lanenas.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block_commands():
    """The `lanenas ...` lines of the first `sh` block under `## CLI`,
    split as a shell splits them, comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("lanenas ")]


def test_readme_cli_block_runs_without_warning(tmp_path):
    """Each line, in order, in one empty directory, as
    `python -X warn_default_encoding -W error -m lanenas ...`: a warning,
    such as the `EncodingWarning` of text I/O that names no encoding,
    would be an internal error (exit 3)."""
    commands = cli_block_commands()
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert {argv[1] for argv in commands} == set(subcommands)
    src = os.path.dirname(os.path.dirname(lanenas.__file__))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error",
                               "-m", "lanenas", *argv[1:]],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
        assert "Warning" not in proc.stderr, (argv, proc.stderr[-2000:])
