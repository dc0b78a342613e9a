"""The README's Quick start commands and Python API block run, or parse, as written."""

import shlex
from pathlib import Path

import pytest

from groupnb import BenchConfig, SyntheticSpec, bench, generate_synthetic
from groupnb.cli import build_parser, main
from groupnb.corpus import serialize_sample
from groupnb.lanes import host_threads

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str, index: int = 0) -> str:
    """The ``language`` code block number ``index`` (from 0) under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n")[index + 1].split("```", 1)[0]


def quick_start_commands(index: int = 0):
    """argv lists of the ``groupnb`` commands in sh block ``index`` under "## Quick start"."""
    commands = []
    for line in _block("## Quick start", "sh", index).replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "groupnb", line
        commands.append(argv[1:])
    return commands


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
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


def test_quick_start_bench_block_parses():
    """The bench sweep runs for minutes, so its flags are only parsed; tests/test_cli.py runs
    bench with small settings."""
    (argv,) = quick_start_commands(1)
    assert build_parser().parse_args(argv).command == "bench"


def test_bench_lanes_default_as_classify_does():
    classify = build_parser().parse_args(["classify", "--bundle", "a", "--in", "b", "--out", "c"])
    assert BenchConfig().lanes == classify.lanes == host_threads()


@pytest.mark.parametrize("flags, expected", [
    ((), BenchConfig()),
    (("--k", "5", "--reps", "1"), BenchConfig(k_values=(5,), repetitions=1)),
], ids=["no-sweep-flags", "k-and-reps"])
def test_bench_flags_not_given_take_the_bench_config_defaults(tmp_path, monkeypatch, flags,
                                                              expected):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(serialize_sample(s) + "\n"
                              for s in generate_synthetic(SyntheticSpec(1, 6, 8, 0.8, 0))))
    configs = []

    def record(train, test_samples, config):
        configs.append(config)
        return ()

    monkeypatch.setattr(bench, "run_bench", record)
    argv = ["bench", "--train", str(corpus), "--test", str(corpus), *flags,
            "--out", str(tmp_path / "bench.csv")]
    assert main(argv) == 0
    assert configs == [expected]
