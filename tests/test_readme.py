"""The README's Quick start commands run as written."""

import shlex
from pathlib import Path

from groupnb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands():
    """argv lists of the ``groupnb`` commands in the first sh block under "## Quick start"."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "groupnb", line
        commands.append(argv[1:])
    return commands


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    # The section's second block, the bench sweep, is left out: it runs for
    # minutes. tests/test_cli.py runs bench with small settings instead.
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == ["gen", "split", "train", "classify", "score"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
