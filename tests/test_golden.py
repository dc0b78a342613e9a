"""End-to-end golden files: bundle, prediction, score and split bytes held fixed.

tests/data/golden holds a small hand-edited corpus and the bytes the
program writes for it; its README.md lists what each edge line covers.

- Prediction bytes from a committed bundle need only IEEE-754 multiplies
  and adds, so they hold on any platform.
- Bundle bytes also depend on libm's log. CI runs only on Linux, where
  they were made.
- Rewriting an expected file changes the program's output, and must be
  declared as such.
"""

import contextlib
import io
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from groupnb import cli, corpus, engine
from groupnb.corpus import GroupingConfig, parse_corpus, partition_by_group

from helpers import deadline

DATA = Path(__file__).parent / "data" / "golden"
TRAIN = DATA / "train.jsonl"
SCAN = DATA / "scan.jsonl"
KS = (1, 8, 200)
CREATED_AT = "2026-01-01T00:00:00+00:00"


def _expected(name: str) -> bytes:
    return (DATA / name).read_bytes()


def _training_corpus():
    with open(TRAIN, encoding="utf-8") as fp:
        grouped, rejected = partition_by_group(parse_corpus(fp), GroupingConfig())
    assert [s.id for s in rejected] == ["m-over"]
    return grouped


def _main(*argv) -> str:
    """Run the CLI; return what it printed, after asserting it exited 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(map(str, argv))) == 0
    return out.getvalue()


def test_data_keeps_its_crlf_line_ends():
    """A checkout that rewrote line ends would test another input (see .gitattributes)."""
    assert _expected("train.jsonl").count(b"\r\n") == 12
    assert _expected("scan.jsonl").count(b"\r\n") == 12


def test_one_train_bundles_call_writes_the_golden_bundles():
    bundles = engine.train_bundles(_training_corpus(), KS, created_at=CREATED_AT)
    for k in KS:
        assert engine.bundle_to_json(bundles[k]).encode() == _expected(f"bundle-k{k}.json"), k


def test_a_k_sweep_on_one_corpus_writes_the_golden_bundles():
    """Later calls on the corpus take their features from its kept ranking, in any k order."""
    grouped = _training_corpus()
    for k in sorted(KS, reverse=True) + list(KS):
        bundle = engine.train_bundle(grouped, k, created_at=CREATED_AT)
        assert engine.bundle_to_json(bundle).encode() == _expected(f"bundle-k{k}.json"), k


@pytest.mark.parametrize("k", KS)
def test_train_command_writes_the_golden_bundle(k, tmp_path, capsys):
    out = tmp_path / "bundle.json"
    _main("train", "--in", TRAIN, "--k", k, "--out", out)
    assert "skipped 1 samples outside the size range" in capsys.readouterr().err
    text = re.sub(r'"created_at": "[^"]*"', f'"created_at": "{CREATED_AT}"',
                  out.read_text(encoding="utf-8"), count=1)
    assert text.encode() == _expected(f"bundle-k{k}.json")


def _classify(k: int, out: Path, *mode) -> str:
    return _main("classify", "--bundle", DATA / f"bundle-k{k}.json", "--in", SCAN,
                 "--out", out, *mode)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("block_chars", [corpus._BLOCK_CHARS, 2048])
def test_sequential_classify_writes_the_golden_predictions(k, block_chars, tmp_path,
                                                           monkeypatch):
    """At 2048 characters a parse block holds about six lines, so the scan's blocks
    take every decode path: joint with its names checked as a union, joint with
    names checked per line, and line by line."""
    monkeypatch.setattr(corpus, "_BLOCK_CHARS", block_chars)
    out = tmp_path / "predictions.jsonl"
    _classify(k, out, "--sequential")
    assert out.read_bytes() == _expected(f"predictions-k{k}.jsonl")


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_parallel_classify_writes_the_golden_predictions(k, lanes, method, tmp_path,
                                                         monkeypatch):
    """Kernel blocks of 4 samples give the 38-line scan enough blocks for 3 lanes."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    if method == "spawn":
        methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(lanes)), raising=False)
    monkeypatch.setattr(engine, "_BLOCK", 4)
    out = tmp_path / "predictions.jsonl"
    with deadline(60):
        printed = _classify(k, out, "--parallel", "--lanes", lanes)
    assert f"(parallel, {lanes} lanes," in printed
    assert out.read_bytes() == _expected(f"predictions-k{k}.jsonl")


def test_score_prints_the_golden_line():
    printed = _main("score", "--preds", DATA / "predictions-k8.jsonl", "--truth", TRAIN)
    assert printed.encode() == _expected("score-k8.json")


@pytest.mark.parametrize("seed, ratio, name, summary", [
    (0, "2:1", "seed0-2to1", "split 22 samples 2:1 -> 17 train, 5 test\n"),
    (7, "1:3", "seed7-1to3", "split 22 samples 1:3 -> 8 train, 14 test\n"),
], ids=["seed0-2to1", "seed7-1to3"])
def test_split_command_writes_the_golden_sides(seed, ratio, name, summary, tmp_path, capsys):
    """The empty strata of the one-class groups draw nothing from the seeded stream, so
    every later stratum's shuffle, and so every side's bytes, stay fixed."""
    assert _expected("split.jsonl").count(b"\r\n") == 8
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    printed = _main("split", "--in", DATA / "split.jsonl", "--seed", seed, "--ratio", ratio,
                    "--train", train, "--test", test)
    assert capsys.readouterr().err == "warning: skipped 1 samples outside the size range\n"
    assert printed == summary
    assert train.read_bytes() == _expected(f"split-{name}-train.jsonl")
    assert test.read_bytes() == _expected(f"split-{name}-test.jsonl")
