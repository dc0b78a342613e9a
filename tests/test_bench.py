"""Benchmark sweep, CSV emission, and re-parsing."""

import io
import os

import pytest

from groupnb.bench import (
    BenchConfig,
    BenchRow,
    CSV_HEADER,
    emit_csv,
    make_batches,
    parse_csv,
    run_bench,
)
from groupnb.corpus import Label
from groupnb.engine import _BLOCK, train_bundle, train_bundles
from groupnb.errors import InvalidConfigError, ParseError

from helpers import grouped, make_sample, two_class_group


def _train_corpus():
    return grouped(two_class_group(0, 8, 8) + two_class_group(1, 8, 8))


def _test_samples(n=10):
    samples = []
    for i in range(n):
        label = Label.MALWARE if i % 2 else Label.BENIGN
        ops = {"evil": 2, "mov": 1} if label is Label.MALWARE else {"mov": 3, "add": 1}
        samples.append(make_sample(f"t{i}", label, (i % 2) * 5120 + i, ops))
    return samples


class TestBenchConfig:
    def test_defaults(self):
        config = BenchConfig()
        assert config.k_values == (20, 40, 80, 100, 160, 200)
        assert config.batch_multiple == 768
        assert config.batch_counts == (1, 2, 4, 8, 16)
        assert config.repetitions == 5
        assert config.lanes == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_values": ()},
            {"k_values": (20, 0)},
            {"batch_multiple": 0},
            {"batch_counts": ()},
            {"lanes": 0},
            {"repetitions": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidConfigError):
            BenchConfig(**kwargs)


class TestMakeBatches:
    def test_cycles_to_the_exact_size(self):
        samples = _test_samples(100)
        workload = make_batches(samples, 768, 1, lanes=4)
        assert len(workload.samples) == 768
        assert workload.lanes == 4
        counts = {}
        for s in workload.samples:
            counts[s.id] = counts.get(s.id, 0) + 1
        assert set(counts.values()) <= {7, 8}

    def test_count_multiplies(self):
        workload = make_batches(_test_samples(100), 768, 2, lanes=1)
        assert len(workload.samples) == 1536

    def test_single_sample_degenerates_to_copies(self):
        (sample,) = _test_samples(1)
        workload = make_batches([sample], 768, 1, lanes=1)
        assert len(workload.samples) == 768
        assert all(s is sample for s in workload.samples)

    def test_order_is_round_robin(self):
        samples = _test_samples(4)
        workload = make_batches(samples, 6, 1, lanes=1)
        assert [s.id for s in workload.samples] == ["t0", "t1", "t2", "t3", "t0", "t1"]

    def test_empty_test_set_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_batches([], 768, 1, lanes=1)


class TestTrainBundles:
    def test_one_bundle_per_k(self):
        bundles = train_bundles(_train_corpus(), (2, 3), created_at="t")
        assert set(bundles) == {2, 3}
        for k, bundle in bundles.items():
            assert bundle.meta.k == k
            for model in bundle.models.values():
                assert len(model.features.opcodes) <= k

    def test_matches_direct_training(self):
        corpus = _train_corpus()
        shared = train_bundles(corpus, (3,), created_at="t")[3]
        direct = train_bundle(corpus, 3, created_at="t")
        assert shared.models == direct.models


class TestRunBench:
    def _report(self, reps=1, counts=(1,), lanes=2):
        corpus = _train_corpus()
        bundles = train_bundles(corpus, (2, 3), created_at="t")
        config = BenchConfig(
            k_values=(2, 3),
            batch_multiple=8,
            batch_counts=counts,
            lanes=lanes,
            repetitions=reps,
        )
        return run_bench(bundles, _test_samples(), config)

    def test_two_rows_per_cell(self):
        corpus = _train_corpus()
        bundles = train_bundles(corpus, (2,), created_at="t")
        config = BenchConfig(k_values=(2,), batch_multiple=8, batch_counts=(1,), lanes=2, repetitions=1)
        report = run_bench(bundles, _test_samples(), config)
        assert len(report) == 2

    def test_cardinality_and_order(self):
        report = self._report(counts=(1, 2))
        assert len(report) == 2 * 2 * 2
        shape = [(r.k, r.batch_size, r.mode) for r in report]
        assert shape == [
            (2, 8, "sequential"),
            (2, 8, "parallel"),
            (2, 16, "sequential"),
            (2, 16, "parallel"),
            (3, 8, "sequential"),
            (3, 8, "parallel"),
            (3, 16, "sequential"),
            (3, 16, "parallel"),
        ]

    def test_speedup_recomputable_from_rows(self):
        report = self._report(reps=2, counts=(1, 2))
        by_key = {}
        for row in report:
            by_key.setdefault((row.k, row.batch_size), {})[row.mode] = row
        for pair in by_key.values():
            seq, par = pair["sequential"], pair["parallel"]
            assert seq.speedup is None
            assert seq.lanes == 1
            assert par.speedup == seq.elapsed_ns_median / par.elapsed_ns_median
            assert par.elapsed_ns_min <= par.elapsed_ns_median

    def test_parallel_rows_report_the_lanes_that_ran(self):
        report = self._report(counts=(1, 2 * _BLOCK // 8))  # 8 and 2 * _BLOCK samples
        lanes = {(r.k, r.batch_size): r.lanes for r in report if r.mode == "parallel"}
        assert lanes == {(2, 8): 1, (2, 2 * _BLOCK): 2, (3, 8): 1, (3, 2 * _BLOCK): 2}
        sink = io.StringIO()
        emit_csv(report, sink)
        assert parse_csv(sink.getvalue()) == report

    def test_missing_bundle_fails_before_running(self):
        corpus = _train_corpus()
        bundles = train_bundles(corpus, (2,), created_at="t")
        config = BenchConfig(k_values=(2, 3), batch_multiple=8, batch_counts=(1,), lanes=1, repetitions=1)
        with pytest.raises(InvalidConfigError, match="k=\\[3\\]"):
            run_bench(bundles, _test_samples(), config)


class TestCsv:
    def _rows(self):
        return (
            BenchRow(2, 8, "sequential", 1, 1000, 900, None),
            BenchRow(2, 8, "parallel", 4, 500, 450, 2.0),
        )

    def test_empty_report_is_header_only(self):
        sink = io.StringIO()
        emit_csv((), sink)
        assert sink.getvalue() == CSV_HEADER + "\n"

    def test_two_rows_make_three_lines(self):
        sink = io.StringIO()
        emit_csv(self._rows(), sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[1] == "2,8,sequential,1,1000,900,"
        assert lines[2] == "2,8,parallel,4,500,450,2.0"

    def test_emit_is_deterministic(self):
        report = self._rows()
        a, b = io.StringIO(), io.StringIO()
        emit_csv(report, a)
        emit_csv(report, b)
        assert a.getvalue() == b.getvalue()

    def test_parse_inverts_emit(self):
        report = self._rows()
        sink = io.StringIO()
        emit_csv(report, sink)
        parsed = parse_csv(sink.getvalue())
        assert parsed == report
        second = io.StringIO()
        emit_csv(parsed, second)
        assert second.getvalue() == sink.getvalue()

    def test_parse_round_trips_real_measurements(self):
        corpus = _train_corpus()
        bundles = train_bundles(corpus, (2,), created_at="t")
        config = BenchConfig(k_values=(2,), batch_multiple=8, batch_counts=(1,), lanes=2, repetitions=1)
        report = run_bench(bundles, _test_samples(), config)
        sink = io.StringIO()
        emit_csv(report, sink)
        assert parse_csv(sink.getvalue()) == report

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "wrong,header\n1,2,3",
            CSV_HEADER + "\n1,2,sequential,1,10",
            CSV_HEADER + "\n1,2,warp,1,10,9,",
            CSV_HEADER + "\nx,2,sequential,1,10,9,",
        ],
    )
    def test_parse_rejects_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_csv(text)


class TestLineBreaks:
    """A CSV text breaks at universal newlines only, as parse_corpus's text does."""

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                      "\x1d", "\x1e"])
    def test_other_line_breaks_stay_inside_a_line(self, char):
        text = CSV_HEADER + "\n1,2,sequential,1,5,5," + char + "\n2,8,sequential,1,1000,900,\n"
        with pytest.raises(ParseError) as info:
            parse_csv(text)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("ending, blank", [
        ("\n", ""), ("\r\n", ""), ("\r", ""), ("\n", " \t"), ("\r\n", " \t"), ("\r", " \t"),
    ], ids=["lf", "crlf", "cr", "lf_whitespace", "crlf_whitespace", "cr_whitespace"])
    def test_line_numbers_count_every_line(self, ending, blank):
        """Blank lines, empty or whitespace only, are skipped as parse_corpus skips them."""
        lines = [blank, CSV_HEADER, "2,8,sequential,1,1000,900,", blank,
                 "x,8,parallel,2,500,450,2.0"]
        with pytest.raises(ParseError, match="^line 5: ") as info:
            parse_csv(ending.join(lines) + ending)
        assert info.value.line_no == 5
        assert parse_csv(ending.join(lines[:3]) + ending) == (
            BenchRow(2, 8, "sequential", 1, 1000, 900, None),)
