"""End-to-end runs of the command-line interface."""

import json
import multiprocessing

import pytest

from groupnb.bench import parse_csv
from groupnb.cli import main
from groupnb.engine import _BLOCK

from helpers import deadline, kill_worker_lanes


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

    def test_parallel_classify_matches_sequential(self, pipeline_files, tmp_path, capsys):
        """Byte-identical output below and at two kernel blocks; the summary names the lanes."""
        paths = pipeline_files
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

    def test_score_counts_missing_predictions(self, pipeline_files, capsys):
        paths = pipeline_files
        _run("train", "--in", str(paths["train"]), "--k", "10", "--out", str(paths["bundle"]))
        _run("classify", "--bundle", str(paths["bundle"]), "--in", str(paths["test"]),
             "--out", str(paths["preds"]))
        preds = paths_lines(paths["preds"])
        error = json.dumps({"id": json.loads(preds[1])["id"], "error": "e"})
        paths["preds"].write_text("\n".join(preds[3:] + [error]) + "\n")
        capsys.readouterr()
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["samples"], payload["errors"], payload["missing"]) == (61, 1, 2)

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
                "--batch-multiple", "16",
                "--batch-counts", "1,2",
                "--lanes", "2",
                "--reps", "1",
                "--out", str(report_path),
            )
            == 0
        )
        report = parse_csv(report_path.read_text())
        assert len(report.rows) == 2 * 2 * 2
        for row in report.rows:
            if row.mode == "parallel":
                sibling = next(
                    r
                    for r in report.rows
                    if r.mode == "sequential" and (r.k, r.batch_size) == (row.k, row.batch_size)
                )
                assert row.speedup == sibling.elapsed_ns_median / row.elapsed_ns_median


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path):
        assert _run() == 1
        assert _run("gen", "--nope") == 1
        assert _run("split", "--in", "x", "--ratio", "banana", "--train", "a", "--test", "b") == 1

    def test_config_errors_exit_one(self, tmp_path):
        out = tmp_path / "c.jsonl"
        code = _run(
            "gen", "--groups", "2", "--per-class", "3", "--divergence", "2.0", "--out", str(out)
        )
        assert code == 1

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
    ], ids=["huge_integer", "list_id"])
    def test_score_rejects_malformed_predictions(self, pipeline_files, capsys, line):
        paths = pipeline_files
        first_id = json.loads(paths_lines(paths["test"])[0])["id"]
        paths["preds"].write_text(json.dumps({"id": first_id, "error": "e"}) + "\n" + line + "\n")
        assert _run("score", "--preds", str(paths["preds"]), "--truth", str(paths["test"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("groupnb: data error: line 2: ")
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
        assert err == "groupnb: data error: duplicate prediction id 'a' at line 2\n"

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
