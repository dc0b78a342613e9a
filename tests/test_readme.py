"""The README's Quick start commands and Python API block run as written."""

import shlex
from pathlib import Path

from groupnb import SyntheticSpec, generate_synthetic
from groupnb.cli import main
from groupnb.corpus import serialize_sample

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def quick_start_commands():
    """argv lists of the ``groupnb`` commands in the first sh block under "## Quick start"."""
    commands = []
    for line in _block("## Quick start", "sh").replace("\\\n", " ").splitlines():
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


def test_python_api_block_runs(capsys):
    """The block's free name ``lines`` is bound to a small generated corpus."""
    samples = generate_synthetic(SyntheticSpec(6, 12, 96, 0.8, 0))
    namespace = {"lines": [serialize_sample(s) for s in samples]}
    exec(compile(_block("## Python API", "python"), "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "1\n"  # 48 test samples: one lane
    assert namespace["bundles"][40].trained_ids == namespace["bundle"].trained_ids
