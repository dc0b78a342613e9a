"""End-to-end runs of the command-line interface."""

import argparse
import csv
import io
import json
import multiprocessing
import os
from dataclasses import fields

import pytest

import groupnb
from groupnb import cli, engine
from groupnb.bench import BenchConfig
from groupnb.cli import main
from groupnb.corpus import _BLOCK_CHARS, GroupingConfig, assign_group, parse_corpus
from groupnb.engine import (_BLOCK, bundle_to_json, load_bundle, route, save_bundle,
                            train_bundle, train_bundles)

from helpers import deadline, grouped, kill_worker_lanes, two_class_group


def _run(*argv):
    return main(list(argv))


@pytest.fixture()
def pipeline_files(tmp_path):
    """A generated corpus split into train/test plus common paths."""
    paths = {
        "corpus": tmp_path / "corpus.jsonl",
        "train": tmp_path / "train.jsonl",
        "test": tmp_path / "test.jsonl",
        "bundle": tmp_path / "bundle.json",
        "preds": tmp_path / "preds.jsonl",
    }
    assert (
        _run(
            "gen",
            "--groups", "4",
            "--per-class", "24",
            "--vocab", "32",
            "--divergence", "1.0",
            "--seed", "5",
            "--out", str(paths["corpus"]),
        )
        == 0
    )
    assert (
        _run(
            "split",
            "--in", str(paths["corpus"]),
            "--ratio", "2:1",
            "--seed", "3",
            "--train", str(paths["train"]),
            "--test", str(paths["test"]),
        )
        == 0
    )
    return paths


class TestPipeline:
    def test_split_partitions_the_corpus(self, pipeline_files):
        corpus = paths_lines(pipeline_files["corpus"])
        train = paths_lines(pipeline_files["train"])
        test = paths_lines(pipeline_files["test"])
        assert len(train) + len(test) == len(corpus) == 4 * 24 * 2
        corpus_ids = {json.loads(line)["id"] for line in corpus}
        split_ids = {json.loads(line)["id"] for line in train + test}
        assert split_ids == corpus_ids

    def test_train_classify_score(self, pipeline_files, capsys):
        paths = pipeline_files
        assert (
            _run(
                "train",
                "--in", str(paths["train"]),
                "--k", "20",
                "--alpha", "1.0",
                "--out", str(paths["bundle"]),
            )
            == 0
        )
        assert (
            _run(
                "classify",
                "--bundle", str(paths["bundle"]),
                "--in", str(paths["test"]),
                "--sequential",
                "--out", str(paths["preds"]),
            )
            == 0
        )
        capsys.readouterr()
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        # Fully separated class vocabularies: held-out accuracy is perfect.
        assert payload["accuracy"] == 1.0
        assert payload["errors"] == 0
        assert payload["missing"] == 0
        assert payload["per_class"]["malware"]["recall"] == 1.0

    def test_train_alpha_is_the_bundle_alpha(self, pipeline_files):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "12", "--alpha", "0.5",
                    "--out", str(paths["bundle"])) == 0
        written = json.loads(paths["bundle"].read_text(encoding="utf-8"))
        assert written["meta"]["alpha"] == 0.5
        corpus = grouped(cli._read_corpus(str(paths["train"])))
        expected = json.loads(bundle_to_json(train_bundles(corpus, (12,), 0.5)[12]))
        for doc in (written, expected):
            del doc["meta"]["created_at"]
        assert written == expected

    def test_parallel_classify_matches_sequential(self, pipeline_files, tmp_path, capsys,
                                                  monkeypatch):
        """Byte-identical output below and at two kernel blocks; the summary names the lanes."""
        paths = pipeline_files
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)  # so --lanes 3 is not capped
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        big = cycled(paths["test"], 2 * _BLOCK)
        for source, lanes in ((paths["test"], "1 lane"), (big, "2 lanes")):
            outs = []
            for mode in (["--sequential"], ["--parallel", "--lanes", "3"]):
                outs.append(tmp_path / f"{source.stem}{mode[0]}.jsonl")
                capsys.readouterr()
                assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(source),
                            *mode, "--out", str(outs[-1])) == 0
            assert f"(parallel, {lanes}, 0 errors)" in capsys.readouterr().out
            assert outs[0].read_text() == outs[1].read_text()

    def test_parallel_lanes_default_to_the_hardware_threads(self, pipeline_files, tmp_path,
                                                            capsys, monkeypatch):
        """3 * 512 samples would get 3 lanes; this process may use 2 of the machine's 8 CPUs."""
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        big = cycled(paths["test"], 3 * _BLOCK)
        outs = [tmp_path / "seq.jsonl", tmp_path / "par.jsonl"]
        for mode, out in zip(("--sequential", "--parallel"), outs):
            capsys.readouterr()
            assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(big), mode,
                        "--out", str(out)) == 0
        assert "(parallel, 2 lanes, 0 errors)" in capsys.readouterr().out
        assert outs[0].read_text() == outs[1].read_text()

    def test_lanes_flag_is_capped_at_the_hardware_threads(self, pipeline_files, tmp_path,
                                                          capsys, monkeypatch):
        """3 * 512 samples would get 3 lanes; the 2 CPUs this process may use cap them at 2."""
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        capsys.readouterr()
        assert _run("classify", "--bundle", str(paths["bundle"]),
                    "--in", str(cycled(paths["test"], 3 * _BLOCK)), "--parallel",
                    "--lanes", "4096", "--out", str(paths["preds"])) == 0
        assert "(parallel, 2 lanes, 0 errors)" in capsys.readouterr().out
        report = tmp_path / "report.csv"
        assert _run("bench", "--train", str(paths["train"]), "--test", str(paths["test"]),
                    "--k", "10", "--batch-sizes", str(3 * _BLOCK), "--lanes", "4096",
                    "--reps", "1", "--out", str(report)) == 0
        with open(report, newline="") as fp:
            lanes = {row["mode"]: row["lanes"] for row in csv.DictReader(fp)}
        assert lanes == {"sequential": "1", "parallel": "2"}

    def test_overflowing_log_score_is_a_per_sample_error(self, pipeline_files, tmp_path, capsys):
        """A sample whose log-score leaves the float range gets an error line, on every lane."""
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        bundle = load_bundle(paths["bundle"])
        group = bundle.trained_ids[0]
        # The three features' log-likelihoods sum to at most 3 * log(1/3) per class, so
        # 10**308 of each overflows both log-scores.
        huge = {"id": "huge", "label": "malware", "size_bytes": group * 5120,
                "opcodes": dict.fromkeys(bundle.models[group].features.opcodes[:3], 10**308)}
        paths["test"].write_text(paths["test"].read_text() + json.dumps(huge) + "\n")
        assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                    "--out", str(paths["preds"])) == 0
        assert paths_lines(paths["preds"])[-1] == (
            '{"id": "huge", "error": "log-score is not a finite float"}')
        capsys.readouterr()
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == 1

        big = cycled(paths["test"], 2 * _BLOCK)
        failing = sum(json.loads(line)["opcodes"] == huge["opcodes"] for line in paths_lines(big))
        outs = [tmp_path / "seq.jsonl", tmp_path / "par.jsonl"]
        for mode, out in zip((["--sequential"], ["--parallel", "--lanes", "2"]), outs):
            capsys.readouterr()
            assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(big), *mode,
                        "--out", str(out)) == 0
        assert f"(parallel, 2 lanes, {failing} errors)" in capsys.readouterr().out
        assert outs[0].read_text() == outs[1].read_text()

    def test_group_ids_past_int64_are_written(self, tmp_path, capsys, monkeypatch):
        """A bundle of 2**70 one-byte groups may hold a model for group 2**65."""
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(
            '{"format": 3, "config": {"group_size_bytes": 1, '
            '"max_size_bytes": 1180591620717411303424, "min_per_class": 6}, '
            '"meta": {"k": 2, "alpha": 1.0, "seed": 0, "created_at": "2026-01-01T00:00:00+00:00"}, '
            '"models": [\n'
            '{"group": 36893488147419103232, "features": ["evil", "mov"], '
            '"log_prior": {"malware": -0.6931471805599453, "benign": -0.6931471805599453}, '
            '"log_likelihood": {"malware": {"evil": -0.2876820724517809, '
            '"mov": -1.3862943611198906}, "benign": {"evil": -1.3862943611198906, '
            '"mov": -0.2876820724517809}}}\n'
            ']}\n', encoding="utf-8")
        corpus = tmp_path / "samples.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"s{size}", "size_bytes": size, "opcodes": {"evil": 3, "mov": 1}})
            + "\n" for size in (7, 2**65, 2**66)))
        outs = [tmp_path / "seq.jsonl", tmp_path / "par.jsonl"]
        for mode, out in zip((["--sequential"], ["--parallel", "--lanes", "2"]), outs):
            assert _run("classify", "--bundle", str(bundle_path), "--in", str(corpus), *mode,
                        "--out", str(out)) == 0
        lines = [json.loads(line) for line in paths_lines(outs[0])]
        assert [line["effective_group"] for line in lines] == [36893488147419103232] * 3
        assert {line["label"] for line in lines} == {"malware"}
        assert outs[0].read_text() == outs[1].read_text()

        monkeypatch.setattr(engine, "_BLOCK", 1)  # 3 samples allow 2 lanes
        bundle = load_bundle(bundle_path)
        samples = tuple(cli._read_corpus(str(corpus), allow_unlabeled=True))
        seq = engine.classify_sequential(bundle, engine.Workload(samples, 1), warmup=False)
        par = engine.classify_parallel(bundle, engine.Workload(samples, 2), warmup=False)
        assert (seq.lanes, par.lanes) == (1, 2)
        assert par.predictions == seq.predictions
        assert [p.effective_group for p in par.predictions] == [2**65] * 3

    def test_classify_reads_a_bundle_file_replaced_between_calls(self, pipeline_files, capsys):
        """Each in-process classify call scores with the bundle its file holds at that call."""
        paths = pipeline_files
        with open(paths["test"], encoding="utf-8") as fp:
            samples = parse_corpus(fp, allow_unlabeled=True)
        outputs = []
        for k in ("10", "4"):
            assert _run("train", "--in", str(paths["train"]), "--k", k,
                        "--out", str(paths["bundle"])) == 0
            assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                        "--out", str(paths["preds"])) == 0
            fresh = engine.bundle_from_json(paths["bundle"].read_text(encoding="utf-8"))
            run = engine.classify_sequential(fresh, engine.Workload(tuple(samples), 1))
            expected = io.StringIO()
            engine.write_predictions(run, samples, expected)
            assert paths["preds"].read_text(encoding="utf-8") == expected.getvalue()
            outputs.append(expected.getvalue())
        assert outputs[0] != outputs[1]

    def test_score_counts_missing_predictions(self, pipeline_files, capsys):
        """An error line holding "[" sends its block of lines through per-line decoding."""
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
             "--out", str(paths["preds"]))
        preds = paths_lines(paths["preds"])
        for message in ("e", "size_bytes 600000 outside [0, 512000)"):
            error = json.dumps({"id": json.loads(preds[1])["id"], "error": message})
            paths["preds"].write_text("\n".join(preds[3:] + [error]) + "\n")
            capsys.readouterr()
            assert _run("score", "--preds", str(paths["preds"]),
                        "--truth", str(paths["test"])) == 0
            payload = json.loads(capsys.readouterr().out)
            assert (payload["samples"], payload["errors"], payload["missing"]) == (61, 1, 2)
            assert payload["accuracy"] == 1.0

    def test_score_rejects_bundle_alias(self, pipeline_files, capsys):
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        _run(
            "classify",
            "--bundle", str(paths["bundle"]),
            "--in", str(paths["test"]),
            "--sequential",
            "--out", str(paths["preds"]),
        )
        capsys.readouterr()
        assert _run("score", "--bundle", str(paths["preds"]), "--truth", str(paths["test"])) == 1
        assert "usage: groupnb score" in capsys.readouterr().err
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 0
        assert json.loads(capsys.readouterr().out.strip())["accuracy"] == 1.0

    def test_score_skips_blank_prediction_lines(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"id": "a", "label": "malware", "size_bytes": 7, "opcodes": {}}\n')
        preds = tmp_path / "preds.jsonl"
        preds.write_text('\n{"id": "a", "label": "malware"}\n \n')
        assert _run("score", "--preds", str(preds), "--truth", str(truth)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["samples"], payload["errors"], payload["accuracy"]) == (1, 0, 1.0)

    @pytest.mark.parametrize("truth, preds, expected", [
        # Confusion table (truth -> predicted): malware->malware 4, malware->benign 1,
        # benign->malware 2, benign->benign 3; "e" is an error line, "z" is missing.
        ("MMMMMBBBBBMM", "MMMMBMMBBB" + "E",
         '{"accuracy": 0.7, "samples": 10, "errors": 1, "missing": 1, "per_class": '
         '{"malware": {"precision": 0.6666666666666666, "recall": 0.8}, '
         '"benign": {"precision": 0.75, "recall": 0.6}}}'),
        ("MB", "BB",
         '{"accuracy": 0.5, "samples": 2, "errors": 0, "missing": 0, "per_class": '
         '{"malware": {"precision": null, "recall": 0.0}, '
         '"benign": {"precision": 0.5, "recall": 1.0}}}'),
        ("MB", "EE",
         '{"accuracy": null, "samples": 0, "errors": 2, "missing": 0, "per_class": '
         '{"malware": {"precision": null, "recall": null}, '
         '"benign": {"precision": null, "recall": null}}}'),
    ], ids=["four_distinct_cells", "class_never_predicted", "only_error_lines"])
    def test_score_prints_the_full_payload(self, tmp_path, capsys, truth, preds, expected):
        """Sample i has truth label truth[i] and prediction preds[i]: M, B or an E error line."""
        names = {"M": "malware", "B": "benign"}
        truth_path = tmp_path / "truth.jsonl"
        truth_path.write_text("".join(
            json.dumps({"id": f"s{i}", "label": names[t], "size_bytes": 7, "opcodes": {}}) + "\n"
            for i, t in enumerate(truth)))
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("".join(
            json.dumps({"id": f"s{i}", "error": "e"} if p == "E" else
                       {"id": f"s{i}", "label": names[p]}) + "\n"
            for i, p in enumerate(preds)))
        assert _run("score", "--preds", str(preds_path), "--truth", str(truth_path)) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            _run(
                "gen",
                "--groups", "2",
                "--per-class", "5",
                "--vocab", "16",
                "--divergence", "0.5",
                "--seed", "9",
                "--out", str(path),
            )
        assert a.read_text() == b.read_text()

    def test_bench_writes_a_consistent_report(self, pipeline_files, tmp_path):
        paths = pipeline_files
        report_path = tmp_path / "report.csv"
        assert (
            _run(
                "bench",
                "--train", str(paths["train"]),
                "--test", str(paths["test"]),
                "--k", "5,10",
                "--batch-sizes", "16,32",
                "--lanes", "2",
                "--reps", "1",
                "--out", str(report_path),
            )
            == 0
        )
        with open(report_path, newline="") as fp:
            report = list(csv.DictReader(fp))
        assert len(report) == 2 * 2 * 2
        for row in report:
            if row["mode"] == "parallel":
                sibling = next(
                    r
                    for r in report
                    if r["mode"] == "sequential"
                    and (r["k"], r["batch_size"]) == (row["k"], row["batch_size"])
                )
                assert float(row["speedup"]) == (
                    int(sibling["elapsed_ns_median"]) / int(row["elapsed_ns_median"]))


def test_bench_sweep_flags_are_the_bench_config_fields():
    """_cmd_bench keeps only the options named like a BenchConfig field, so a flag
    without a field would be accepted and then ignored."""
    (subcommands,) = (action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subcommands.choices["bench"]._actions}
    assert dests - {"train", "test", "out", "help"} == {f.name for f in fields(BenchConfig)}


class TestGeometry:
    """The CLI groups by the default geometry; classify uses the bundle's own."""

    def test_split_train_and_bench_skip_the_same_samples(self, pipeline_files, tmp_path, capsys):
        paths = pipeline_files
        corpus = tmp_path / "oversize.jsonl"
        extra = "".join(
            json.dumps({"id": f"big{size}", "label": label, "size_bytes": size,
                        "opcodes": {"mov": 1}}) + "\n"
            for size, label in ((512000, "malware"), (600000, "benign"), (10**12, "malware")))
        corpus.write_text(paths["corpus"].read_text() + extra)
        out = tmp_path / "out"
        runs = [
            (("split", "--in", corpus, "--train", out, "--test", tmp_path / "out2"), "samples"),
            (("train", "--in", corpus, "--k", "8", "--out", out), "samples"),
            (("bench", "--train", corpus, "--test", paths["test"], "--k", "5",
              "--batch-sizes", "16", "--lanes", "1", "--reps", "1",
              "--out", out), "train samples"),
        ]
        for argv, what in runs:
            capsys.readouterr()
            assert _run(*map(str, argv)) == 0, argv[0]
            assert capsys.readouterr().err == f"warning: skipped 3 {what} outside the size range\n"

    @pytest.mark.parametrize("flag, value", [
        ("--group-kb", "5"), ("--max-kb", "500"), ("--min-per-class", "6")])
    def test_removed_geometry_flags_exit_one(self, pipeline_files, capsys, flag, value):
        paths = pipeline_files
        capsys.readouterr()
        assert _run("train", "--in", str(paths["train"]), "--k", "8", flag, value,
                    "--out", str(paths["bundle"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: groupnb")
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert not paths["bundle"].exists()

    def test_classify_routes_by_the_bundle_geometry(self, tmp_path, capsys):
        config = GroupingConfig(1024, 10240, 2)
        samples = two_class_group(2, 2, 2, width=1024) + two_class_group(7, 2, 2, width=1024)
        bundle = train_bundle(grouped(samples, config), 2)
        assert bundle.trained_ids == (2, 7)
        save_bundle(bundle, tmp_path / "bundle.json")
        # Under the default geometry the first four would all route to group 2.
        sizes = [0, 5120, 7 * 1024 + 5, 10239, 10240]
        source = tmp_path / "in.jsonl"
        source.write_text("".join(
            json.dumps({"id": f"s{size}", "size_bytes": size, "opcodes": {"evil": 2}}) + "\n"
            for size in sizes))
        preds = tmp_path / "preds.jsonl"
        assert _run("classify", "--bundle", str(tmp_path / "bundle.json"), "--in", str(source),
                    "--out", str(preds)) == 0
        lines = [json.loads(line) for line in paths_lines(preds)]
        assert [line.get("effective_group") for line in lines] == [2, 7, 7, 7, None]
        assert [line["effective_group"] for line in lines[:4]] == [
            route(bundle, assign_group(size, config)) for size in sizes[:4]]
        assert lines[4]["error"] == "size_bytes 10240 outside [0, 10240)"


def _put_bad_byte(path, after):
    """Put byte 0xff into the first line of ``path`` that starts at or after byte ``after``.

    The byte goes right after the line's first 8 bytes (inside its id
    string). Returns that line's number.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    start = 0
    for line_no, line in enumerate(lines, start=1):
        if start >= after:
            break
        start += len(line)
    else:
        raise AssertionError(f"{path} has no line past byte {after}")
    lines[line_no - 1] = line[:8] + b"\xff" + line[8:]
    path.write_bytes(b"".join(lines))
    return line_no


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path):
        assert _run() == 1
        assert _run("gen", "--nope") == 1
        assert _run("split", "--in", "x", "--ratio", "banana", "--train", "a", "--test", "b") == 1
        for ratio in ("1", "a:b", "0:1"):
            assert _run("split", "--in", "x", "--ratio", ratio, "--train", "a", "--test", "b") == 1
        for flag, value in (("--k", "x"), ("--batch-sizes", "1,,2")):
            assert _run("bench", "--train", "a", "--test", "b", flag, value, "--out", "c") == 1

    def test_config_errors_exit_one(self, tmp_path):
        out = tmp_path / "c.jsonl"
        code = _run(
            "gen", "--groups", "2", "--per-class", "3", "--divergence", "2.0", "--out", str(out)
        )
        assert code == 1

    def test_negative_split_seed_exits_one(self, pipeline_files, tmp_path, capsys):
        train, test = tmp_path / "t.jsonl", tmp_path / "v.jsonl"
        capsys.readouterr()
        assert _run("split", "--in", str(pipeline_files["corpus"]), "--seed", "-1",
                    "--train", str(train), "--test", str(test)) == 1
        err = capsys.readouterr().err
        assert err == "groupnb: config error: seed must be a non-negative integer, got -1\n"
        assert not train.exists() and not test.exists()

    def test_split_refuses_one_file_for_train_and_test(self, tmp_path, capsys, monkeypatch):
        """Checked before --in is read, so a missing --in is not reached (exit 1, not 3)."""
        monkeypatch.chdir(tmp_path)
        assert _run("split", "--in", "missing.jsonl", "--train", "x", "--test", "./x") == 1
        assert capsys.readouterr().err == (
            "groupnb: config error: --train and --test name the same file: ./x\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, clash", [
        (["split", "--in", "{corpus}", "--train", "{corpus}", "--test", "{new}"],
         "--train would overwrite --in: {corpus}"),
        (["split", "--in", "{corpus}", "--train", "{new}", "--test", "{dot}/corpus.jsonl"],
         "--test would overwrite --in: {dot}/corpus.jsonl"),
        (["train", "--in", "{train}", "--k", "8", "--out", "{train}"],
         "--out would overwrite --in: {train}"),
        (["classify", "--bundle", "{bundle}", "--in", "{test}", "--out", "{test}"],
         "--out would overwrite --in: {test}"),
        (["classify", "--bundle", "{bundle}", "--in", "{test}", "--out", "{bundle}"],
         "--out would overwrite --bundle: {bundle}"),
        (["bench", "--train", "{train}", "--test", "{test}", "--k", "8", "--out", "{train}"],
         "--out would overwrite --train: {train}"),
        (["bench", "--train", "{train}", "--test", "{test}", "--k", "8", "--out", "{test}"],
         "--out would overwrite --test: {test}"),
    ], ids=["split_train", "split_test", "train", "classify_in", "classify_bundle", "bench_train",
            "bench_test"])
    def test_no_command_overwrites_a_file_it_reads(self, pipeline_files, tmp_path, capsys, argv,
                                                   clash):
        paths = {key: str(path) for key, path in pipeline_files.items()}
        paths.update(new=str(tmp_path / "new.jsonl"), dot=str(tmp_path / "."))
        assert _run("train", "--in", paths["train"], "--k", "8", "--out", paths["bundle"]) == 0
        inputs = ("corpus", "train", "test", "bundle")
        before = [pipeline_files[key].read_bytes() for key in inputs]
        capsys.readouterr()
        assert _run(*(arg.format(**paths) for arg in argv)) == 1
        assert capsys.readouterr().err == f"groupnb: config error: {clash.format(**paths)}\n"
        assert [pipeline_files[key].read_bytes() for key in inputs] == before
        assert not (tmp_path / "new.jsonl").exists()

    @pytest.mark.parametrize("argv, clash", [
        (["split", "--in", "{corpus}", "--train", "{link}", "--test", "{new}"],
         "--train would overwrite --in: {link}"),
        (["split", "--in", "{corpus}", "--train", "{new}", "--test", "{link}"],
         "--test would overwrite --in: {link}"),
        (["split", "--in", "{test}", "--train", "{corpus}", "--test", "{link}"],
         "--train and --test name the same file: {link}"),
        (["train", "--in", "{corpus}", "--k", "8", "--out", "{link}"],
         "--out would overwrite --in: {link}"),
        (["classify", "--bundle", "{bundle}", "--in", "{corpus}", "--out", "{link}"],
         "--out would overwrite --in: {link}"),
        (["bench", "--train", "{train}", "--test", "{corpus}", "--k", "8", "--out", "{link}"],
         "--out would overwrite --test: {link}"),
    ], ids=["split_train", "split_test", "split_train_test", "train", "classify", "bench"])
    def test_a_hard_link_to_a_file_it_reads_is_refused(self, pipeline_files, tmp_path, capsys,
                                                       argv, clash):
        """A hard link has its own real path, so the file is matched by device and inode."""
        paths = {key: str(path) for key, path in pipeline_files.items()}
        assert _run("train", "--in", paths["train"], "--k", "8", "--out", paths["bundle"]) == 0
        link = tmp_path / "alias.jsonl"
        os.link(pipeline_files["corpus"], link)
        paths.update(link=str(link), new=str(tmp_path / "new.jsonl"))
        inputs = ("corpus", "train", "test", "bundle")
        before = [pipeline_files[key].read_bytes() for key in inputs]
        capsys.readouterr()
        assert _run(*(arg.format(**paths) for arg in argv)) == 1
        assert capsys.readouterr().err == f"groupnb: config error: {clash.format(**paths)}\n"
        assert [pipeline_files[key].read_bytes() for key in inputs] == before
        assert link.read_bytes() == before[0]
        assert not (tmp_path / "new.jsonl").exists()

    def test_a_clash_is_refused_before_any_file_is_opened(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _run("classify", "--bundle", "b.json", "--in", "x.jsonl", "--out", "./x.jsonl") == 1
        assert capsys.readouterr().err == (
            "groupnb: config error: --out would overwrite --in: ./x.jsonl\n")
        assert not (tmp_path / "x.jsonl").exists()

    def test_inputs_may_share_a_path(self, pipeline_files, tmp_path):
        train = str(pipeline_files["train"])
        assert _run("bench", "--train", train, "--test", train, "--k", "8", "--batch-sizes", "8",
                    "--lanes", "1", "--reps", "1", "--out", str(tmp_path / "b.csv")) == 0
        assert _run("score", "--preds", train, "--truth", train) == 0

    def test_gen_groups_past_the_default_geometry_exits_one(self, tmp_path, capsys):
        """Group 100 would start at 512,000 bytes, a size every later command skips."""
        out = tmp_path / "c.jsonl"
        capsys.readouterr()
        assert _run("gen", "--groups", "101", "--per-class", "6", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "groupnb: config error: group_count must be at most 100, got 101\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
    def test_non_finite_alpha_exits_one(self, pipeline_files, capsys, alpha):
        # 1e308 is finite, but alpha * 8 features is not.
        paths = pipeline_files
        capsys.readouterr()
        assert _run("train", "--in", str(paths["train"]), "--k", "8", "--alpha", alpha,
                    "--out", str(paths["bundle"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("groupnb: config error: alpha")
        assert len(err.splitlines()) == 1
        assert not paths["bundle"].exists()

    def test_alpha_too_small_for_a_likelihood_exits_one(self, tmp_path, capsys):
        """Classes that share no opcode: a smoothed likelihood of 5e-324 / total underflows."""
        corpus = tmp_path / "disjoint.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"{label}{i}", "label": label, "size_bytes": 100 + i,
                        "opcodes": {"evil": 5, "bad": 2} if label == "malware" else {"mov": 4}})
            + "\n" for label in ("malware", "benign") for i in range(6)))
        bundle = tmp_path / "bundle.json"
        assert _run("train", "--in", str(corpus), "--k", "3", "--alpha", "5e-324",
                    "--out", str(bundle)) == 1
        err = capsys.readouterr().err
        assert err.startswith("groupnb: config error: alpha 5e-324 is too small")
        assert len(err.splitlines()) == 1
        assert not bundle.exists()

    def test_data_errors_exit_two(self, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"id":"a"...\n')
        train = tmp_path / "t.jsonl"
        test = tmp_path / "s.jsonl"
        assert _run("split", "--in", str(corrupt), "--train", str(train), "--test", str(test)) == 2

        bad_bundle = tmp_path / "bundle.json"
        bad_bundle.write_text("{}")
        good = tmp_path / "in.jsonl"
        good.write_text('{"id":"a","size_bytes":10,"opcodes":{"mov":1}}\n')
        preds = tmp_path / "p.jsonl"
        assert (
            _run(
                "classify",
                "--bundle", str(bad_bundle),
                "--in", str(good),
                "--sequential",
                "--out", str(preds),
            )
            == 2
        )

    def test_classify_data_errors_exit_two(self, pipeline_files, capsys):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        classify = ("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                    "--out", str(paths["preds"]))
        good = paths["test"].read_text()

        huge = '{"id":"huge","size_bytes":10,"opcodes":{"mov":%d}}\n' % 2**1024
        paths["test"].write_text(good + huge)
        assert _run(*classify) == 2
        assert "line %d" % (len(paths_lines(paths["test"]))) in capsys.readouterr().err

        paths["test"].write_text(good)
        doc = json.loads(paths["bundle"].read_text())
        doc["models"][0]["log_prior"]["malware"] = [-0.5]
        paths["bundle"].write_text(json.dumps(doc))
        assert _run(*classify) == 2

    @pytest.mark.parametrize("line", [
        '{"id": "x", "label": "malware", "n": %s}' % ("9" * 5000),
        '{"id": [1], "label": "malware"}',
        '{"id": "TRUTH_ID", "label": "spyware", "error": "e"}',
        '{"id": "", "error": "e"}',
    ], ids=["huge_integer", "list_id", "error_with_unknown_label", "empty_id"])
    def test_score_rejects_malformed_predictions(self, pipeline_files, capsys, line):
        paths = pipeline_files
        first_id, second_id = (json.loads(t)["id"] for t in paths_lines(paths["test"])[:2])
        line = line.replace("TRUTH_ID", second_id)
        paths["preds"].write_text(json.dumps({"id": first_id, "error": "e"}) + "\n" + line + "\n")
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"groupnb: data error: {paths['preds']}: line 2: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("first", [
        '{"id": "a", "label": "benign"}',
        '{"id": "a", "error": "size_bytes 600000 outside [0, 512000)"}',
    ], ids=["labeled", "error"])
    def test_score_rejects_duplicate_prediction_ids(self, tmp_path, capsys, first):
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"id": "a", "label": "malware", "size_bytes": 7, "opcodes": {}}\n')
        preds = tmp_path / "preds.jsonl"
        preds.write_text(first + '\n{"id": "a", "label": "malware"}\n')
        assert _run("score", "--preds", str(preds), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert err == f"groupnb: data error: {preds}: duplicate id 'a' at line 2\n"

    def test_score_mutations_exit_two_without_a_traceback(self, tmp_path, capsys):
        """Every field score reads, replaced by values of every JSON type or deleted."""
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"id": "a", "label": "malware", "size_bytes": 7, "opcodes": {}}\n')
        labeled = {"id": "a", "label": "malware",
                   "log_posterior": {"malware": -1.5, "benign": -2.0}, "effective_group": 0}
        failed = {"id": "a", "error": "size_bytes 600000 outside [0, 512000)"}
        replacements = [None, True, False, "", "b", "MALWARE", [], ["a"], [[1]], {}, {"id": "a"},
                        1.5, -1, 0, 2**64, 10**400]
        huge = "9" * 5000  # past the int-to-str digit limit
        lines = ['"a"', "[]", "[[1]]", "null", "true", "1e999", huge,
                 '{"id": "a", "label": %s}' % huge, '{"id": %s, "label": "malware"}' % huge,
                 '{"id": %s, "error": "e"}' % huge]
        cases = [(labeled, "id", replacements), (labeled, "label", replacements),
                 (failed, "id", replacements)]
        for doc, key, values in cases:
            lines.append(json.dumps({k: v for k, v in doc.items() if k != key}))
            lines += [json.dumps({**doc, key: value}) for value in values]
        preds = tmp_path / "preds.jsonl"
        for line in lines:
            preds.write_text(line + "\n")
            assert _run("score", "--preds", str(preds), "--truth", str(truth)) == 2, line
            err = capsys.readouterr().err
            assert err.startswith("groupnb: data error: ") and err.count("\n") == 1, line

    @pytest.mark.parametrize("after", [0, 8 * 1024 + 1], ids=["line_1", "past_8_KiB"])
    @pytest.mark.parametrize("reader", [
        "split", "train", "classify", "bench_train", "bench_test", "score_truth", "score_preds"])
    def test_lines_that_are_not_utf8_exit_two(self, pipeline_files, tmp_path, capsys, reader,
                                              after):
        """A bad byte in any line-read file; past 8 KiB it is met partway through the stream."""
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        paths["preds"].write_text("".join(
            json.dumps({"id": json.loads(line)["id"], "error": "padding " * 40}) + "\n"
            for line in paths_lines(paths["test"])))
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(paths["preds" if reader == "score_preds" else "test"].read_bytes())
        line_no = _put_bad_byte(bad, after)
        out = tmp_path / "out"
        argv = {
            "split": ("split", "--in", bad, "--train", out, "--test", tmp_path / "out2"),
            "train": ("train", "--in", bad, "--k", "8", "--out", out),
            "classify": ("classify", "--bundle", paths["bundle"], "--in", bad, "--out", out),
            "bench_train": ("bench", "--train", bad, "--test", paths["test"], "--out", out),
            "bench_test": ("bench", "--train", paths["train"], "--test", bad, "--out", out),
            "score_truth": ("score", "--preds", paths["preds"], "--truth", bad),
            "score_preds": ("score", "--preds", bad, "--truth", paths["test"]),
        }[reader]
        capsys.readouterr()
        assert _run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert err == f"groupnb: data error: {bad}: line {line_no}: byte 0xff is not valid UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("block", ["first", "second"])
    @pytest.mark.parametrize("command", ["train", "classify", "score"])
    def test_earlier_bad_record_is_reported_before_a_later_bad_byte(self, pipeline_files,
                                                                    tmp_path, capsys, command,
                                                                    block):
        """The parser reads ahead a block of lines, but reports errors in line order.

        Corpus lines are also prediction lines, so score reads the same file as predictions.
        """
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        good = paths_lines(paths["train"])
        pad = []
        if block == "second":  # good lines that fill the first block
            pad = [json.dumps({**json.loads(line), "id": f"pad{i}", "pad": "x" * 4096})
                   for i, line in enumerate(good * (_BLOCK_CHARS // (4096 * len(good)) + 1))]
            assert sum(map(len, pad)) >= _BLOCK_CHARS
        bad_label = json.dumps({**json.loads(good[0]), "label": "spyware"})
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes("".join(line + "\n" for line in pad + [good[1], bad_label, good[2]])
                        .encode() + b'{"id": "\xff"}\n')
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(line + "\n" for line in pad + good))
        out = tmp_path / "out"
        argv = {
            "train": ("train", "--in", bad, "--k", "8", "--out", out),
            "classify": ("classify", "--bundle", paths["bundle"], "--in", bad, "--out", out),
            "score": ("score", "--preds", bad, "--truth", truth),
        }[command]
        capsys.readouterr()
        assert _run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert err == f"groupnb: data error: {bad}: line {len(pad) + 2}: unknown label 'spyware'\n"
        assert not out.exists()

    @pytest.mark.parametrize("reader", [
        "split", "train", "classify", "bench_train", "bench_test", "score_truth"])
    def test_duplicate_ids_name_the_file(self, pipeline_files, tmp_path, capsys, reader):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        reads_test = reader in ("classify", "bench_test", "score_truth")
        lines = paths_lines(paths["test" if reads_test else "train"])
        bad = tmp_path / "dup.jsonl"
        bad.write_text("".join(line + "\n" for line in lines[:3] + lines[1:2] + lines[3:]))
        out = tmp_path / "out"
        argv = {
            "split": ("split", "--in", bad, "--train", out, "--test", tmp_path / "out2"),
            "train": ("train", "--in", bad, "--k", "8", "--out", out),
            "classify": ("classify", "--bundle", paths["bundle"], "--in", bad, "--out", out),
            "bench_train": ("bench", "--train", bad, "--test", paths["test"], "--out", out),
            "bench_test": ("bench", "--train", paths["train"], "--test", bad, "--out", out),
            "score_truth": ("score", "--preds", paths["preds"], "--truth", bad),
        }[reader]
        capsys.readouterr()
        assert _run(*map(str, argv)) == 2
        dup = json.loads(lines[1])["id"]
        err = capsys.readouterr().err
        assert err == f"groupnb: data error: {bad}: duplicate id {dup!r} at line 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("after", [0, 8 * 1024 + 1], ids=["first_byte", "past_8_KiB"])
    def test_bundle_that_is_not_utf8_exits_two(self, pipeline_files, capsys, after):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        text = paths["bundle"].read_bytes()
        padded = text[:-2] + b" " * after + text[-2:]  # whitespace before the closing brace
        offset = 0 if after == 0 else len(text) - 2 + after
        paths["bundle"].write_bytes(padded[:offset] + b"\xff" + padded[offset:])
        capsys.readouterr()
        assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                    "--out", str(paths["preds"])) == 2
        err = capsys.readouterr().err
        assert err == f"groupnb: data error: bundle is not valid UTF-8 at byte offset {offset}\n"
        assert not paths["preds"].exists()

    def test_non_ascii_text_still_reads(self, tmp_path):
        """Valid multi-byte UTF-8 passes, including characters cut by the file's read chunks."""

        def line(sid):
            doc = {"id": sid, "label": "malware", "size_bytes": 9, "opcodes": {"mov": 1}}
            return json.dumps(doc, ensure_ascii=False) + "\n"

        ids = ["\u00e9t\u00e9", "\U0001f600", "\u00e9" * 6000]  # the last id is 12,000 bytes
        head = "".join(map(line, ids[:2])) + '{"id": "'
        if len(head.encode()) % 2 == 0:
            # Start the 2-byte characters at an odd offset, so every read-chunk edge
            # inside them (a multiple of 4 KiB) cuts one in half.
            ids[0] += "!"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(map(line, ids)), encoding="utf-8")
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        assert _run("split", "--in", str(corpus), "--train", str(train), "--test", str(test)) == 0
        split_ids = {json.loads(line)["id"] for line in paths_lines(train) + paths_lines(test)}
        assert split_ids == set(ids)

    @pytest.mark.parametrize("target", ["in", "bundle", "preds"])
    def test_deep_nesting_exits_two(self, pipeline_files, tmp_path, capsys, target):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        argv, expected = {
            "in": (("classify", "--bundle", paths["bundle"], "--in", deep, "--out", paths["preds"]),
                   f"{deep}: line 1: invalid JSON: nested too deeply"),
            "bundle": (("classify", "--bundle", deep, "--in", paths["test"], "--out", paths["preds"]),
                       "invalid bundle JSON: nested too deeply"),
            "preds": (("score", "--preds", deep, "--truth", paths["test"]),
                      f"{deep}: line 1: invalid JSON: nested too deeply"),
        }[target]
        capsys.readouterr()
        assert _run(*map(str, argv)) == 2
        assert capsys.readouterr().err == f"groupnb: data error: {expected}\n"

    def test_class_total_past_the_float_range_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "huge.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"{label[0]}{i}", "label": label, "size_bytes": 10,
                        "opcodes": ops}) + "\n"
            for i in range(6)
            for label, ops in (("malware", {"evil": 10**308, "mov": 1}),
                               ("benign", {"add": 2, "mov": 3}))))
        bundle = tmp_path / "bundle.json"
        assert _run("train", "--in", str(corpus), "--k", "2", "--out", str(bundle)) == 2
        assert capsys.readouterr().err == (
            "groupnb: data error: group 0: malware feature total plus alpha * 2 "
            "is not a finite float\n")
        assert not bundle.exists()

    @pytest.mark.parametrize("per_class", [0, 5], ids=["empty", "below_threshold"])
    def test_train_without_a_trainable_group_exits_two(self, tmp_path, capsys, per_class):
        corpus = tmp_path / "few.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"{label[0]}{i}", "label": label, "size_bytes": 10,
                        "opcodes": {"mov": 1, label: 2}}) + "\n"
            for i in range(per_class) for label in ("malware", "benign")))
        bundle = tmp_path / "bundle.json"
        assert _run("train", "--in", str(corpus), "--k", "2", "--out", str(bundle)) == 2
        assert capsys.readouterr().err == (
            "groupnb: data error: no size group has 6 training samples of each class; "
            "no bundle written\n")
        assert not bundle.exists()

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--alpha", "nan")])
    def test_bad_k_or_alpha_exits_one_whether_or_not_a_group_trains(self, pipeline_files,
                                                                    tmp_path, capsys, flag, value):
        untrainable = tmp_path / "few.jsonl"
        untrainable.write_text("".join(
            json.dumps({"id": f"{label[0]}{i}", "label": label, "size_bytes": 10,
                        "opcodes": {"mov": 1, label: 2}}) + "\n"
            for i in range(5) for label in ("malware", "benign")))
        bundle = pipeline_files["bundle"]
        capsys.readouterr()
        for corpus in (pipeline_files["train"], untrainable):
            argv = {"--in": str(corpus), "--k": "3", "--out": str(bundle), flag: value}
            assert _run("train", *(part for item in argv.items() for part in item)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"groupnb: config error: {flag[2:]} must be ")
            assert len(err.splitlines()) == 1
            assert not bundle.exists()

    @pytest.mark.parametrize("per_class", [0, 5], ids=["empty", "below_threshold"])
    def test_bench_without_a_trainable_group_exits_two(self, tmp_path, capsys, per_class):
        """bench refuses the corpus with train's words, before it times anything."""
        corpus = tmp_path / "few.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"{label[0]}{i}", "label": label, "size_bytes": 10,
                        "opcodes": {"mov": 1, label: 2}}) + "\n"
            for i in range(per_class) for label in ("malware", "benign")))
        test = tmp_path / "test.jsonl"
        test.write_text(json.dumps({"id": "t0", "label": "malware", "size_bytes": 10,
                                    "opcodes": {"mov": 1}}) + "\n")
        report = tmp_path / "bench.csv"
        assert _run("bench", "--train", str(corpus), "--test", str(test), "--k", "2",
                    "--batch-sizes", "8", "--lanes", "1",
                    "--reps", "1", "--out", str(report)) == 2
        assert capsys.readouterr().err == (
            "groupnb: data error: no size group has 6 training samples of each class; "
            "no bundle written\n")
        assert not report.exists()

    def test_bench_with_an_empty_test_set_exits_two_before_training(self, pipeline_files,
                                                                     tmp_path, capsys,
                                                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bench trained before it checked its test set")

        monkeypatch.setattr(engine, "train_bundles", refuse)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        report = tmp_path / "bench.csv"
        for train in (pipeline_files["train"], empty):
            capsys.readouterr()
            assert _run("bench", "--train", str(train), "--test", str(empty), "--k", "5",
                        "--batch-sizes", "8", "--reps", "1", "--out", str(report)) == 2
            assert capsys.readouterr().err == "groupnb: data error: no test samples to batch\n"
            assert not report.exists()

    @pytest.mark.parametrize("mode", ["--sequential", "--parallel"])
    def test_classify_checks_lanes_before_it_opens_a_file(self, tmp_path, capsys, mode):
        preds = tmp_path / "preds.jsonl"
        assert _run("classify", "--bundle", str(tmp_path / "missing.json"),
                    "--in", str(tmp_path / "missing.jsonl"), mode, "--lanes", "0",
                    "--out", str(preds)) == 1
        assert capsys.readouterr().err == (
            "groupnb: config error: lanes must be a positive integer, got 0\n")
        assert not preds.exists()

    @pytest.mark.parametrize("argv, error", [
        (["train", "--k", "0", "--out", "{out}"], "k must be a positive integer, got 0"),
        (["train", "--k", "3", "--alpha", "nan", "--out", "{out}"],
         "alpha must be positive and finite, got nan"),
        (["train", "--k", "0", "--out", "{missing}"], "k must be a positive integer, got 0"),
        (["split", "--seed", "-1", "--train", "{out}", "--test", "{out}"],
         "seed must be a non-negative integer, got -1"),
    ], ids=["train_k", "train_alpha", "train_k_before_clash", "split_seed_before_clash"])
    def test_train_and_split_check_flags_before_they_open_a_file(self, tmp_path, capsys, argv,
                                                                 error):
        """A missing --in is not reached (exit 1, not 3), nor is a clash of the outputs."""
        names = {"missing": str(tmp_path / "missing.jsonl"), "out": str(tmp_path / "out")}
        command, *rest = (arg.format(**names) for arg in argv)
        assert _run(command, "--in", names["missing"], *rest) == 1
        assert capsys.readouterr().err == f"groupnb: config error: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_classify_with_an_empty_model_array_exits_two(self, pipeline_files, capsys):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        doc = json.loads(paths["bundle"].read_text(encoding="utf-8"))
        doc["models"] = []
        paths["bundle"].write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                    "--out", str(paths["preds"])) == 2
        assert capsys.readouterr().err == "groupnb: data error: bundle has no trained models\n"
        assert not paths["preds"].exists()

    def test_classify_with_a_format_2_bundle_exits_two(self, pipeline_files, capsys):
        """A format-2 bundle, whose models also carried alpha and training counts."""
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        doc = json.loads(paths["bundle"].read_text(encoding="utf-8"))
        doc["format"] = 2
        for model in doc["models"]:
            model.update(alpha=1.0, train_counts={"malware": 6, "benign": 6})
        paths["bundle"].write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
                    "--out", str(paths["preds"])) == 2
        assert capsys.readouterr().err == "groupnb: data error: unsupported bundle format 2\n"
        assert not paths["preds"].exists()

    @pytest.mark.parametrize("name", [
        name for name in groupnb.__all__
        if isinstance(getattr(groupnb, name), type)
        and issubclass(getattr(groupnb, name), groupnb.GroupNBError)
        and getattr(groupnb, name) is not groupnb.GroupNBError])
    def test_every_error_class_has_its_exit_code(self, tmp_path, capsys, monkeypatch, name):
        """Config errors exit 1, every DataError 2, LaneError 3, each with one stderr line."""
        error = getattr(groupnb, name)
        kinds = {groupnb.InvalidConfigError: (1, "config error"),
                 groupnb.DataError: (2, "data error"), groupnb.LaneError: (3, "lane error")}
        [(code, kind)] = [value for base, value in kinds.items() if issubclass(error, base)]

        def command(args):
            raise error(7, "boom") if error is groupnb.ParseError else error("boom")

        monkeypatch.setattr(cli, "_cmd_gen", command)
        assert _run("gen", "--groups", "1", "--per-class", "1",
                    "--out", str(tmp_path / "c.jsonl")) == code
        err = capsys.readouterr().err
        assert err.startswith(f"groupnb: {kind}: ") and err.count("\n") == 1, err

    def test_dead_lane_exits_three(self, pipeline_files, capsys, monkeypatch):
        paths = pipeline_files
        assert _run("train", "--in", str(paths["train"]), "--k", "8",
                    "--out", str(paths["bundle"])) == 0
        capsys.readouterr()
        big = cycled(paths["test"], 2 * _BLOCK)  # two kernel blocks: the second lane starts
        kill_worker_lanes(monkeypatch)
        with deadline(30):
            code = _run("classify", "--bundle", str(paths["bundle"]), "--in", str(big),
                        "--parallel", "--lanes", "2", "--out", str(paths["preds"]))
        assert code == 3
        err = capsys.readouterr().err
        assert err == "groupnb: lane error: lane 1 exited with code 9 before returning its chunk\n"
        assert multiprocessing.active_children() == []

    def test_io_errors_exit_three(self, tmp_path):
        missing = tmp_path / "does-not-exist.jsonl"
        assert (
            _run(
                "split",
                "--in", str(missing),
                "--train", str(tmp_path / "a"),
                "--test", str(tmp_path / "b"),
            )
            == 3
        )

    def test_help_exits_zero(self, capsys):
        assert _run("--help") == 0
        capsys.readouterr()


def paths_lines(path):
    return [line for line in path.read_text().splitlines() if line]


def cycled(path, n):
    """A sibling of ``path`` holding n of its lines, cycled, with unique ids."""
    lines = paths_lines(path)
    out = path.with_name(f"cycled-{n}.jsonl")
    out.write_text("".join(
        json.dumps({**json.loads(lines[i % len(lines)]), "id": f"c{i}"}) + "\n"
        for i in range(n)))
    return out
