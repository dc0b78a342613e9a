"""Benchmark sweep and CSV emission."""

import csv
import io
import os

import pytest

from groupnb.bench import (
    BenchConfig,
    BenchRow,
    CSV_HEADER,
    emit_csv,
    make_batches,
    run_bench,
)
from groupnb.corpus import Label
from groupnb.engine import _BLOCK, train_bundle, train_bundles
from groupnb.errors import IntegrityError, InvalidConfigError

from helpers import grouped, make_sample, two_class_group


def _train_corpus():
    return grouped(two_class_group(0, 8, 8) + two_class_group(1, 8, 8))


def _read_csv(text):
    """The rows of an emit_csv text, read by the csv module."""
    return tuple(
        BenchRow(int(r["k"]), int(r["batch_size"]), r["mode"], int(r["lanes"]),
                 int(r["elapsed_ns_median"]), int(r["elapsed_ns_min"]),
                 float(r["speedup"]) if r["speedup"] else None)
        for r in csv.DictReader(io.StringIO(text))
    )


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
        assert config.batch_sizes == (768, 1536, 3072, 6144, 12288)
        assert config.repetitions == 5
        assert config.lanes == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_values": ()},
            {"k_values": (20, 0)},
            {"batch_sizes": (768, 0)},
            {"batch_sizes": ()},
            {"lanes": 0},
            {"repetitions": 0},
            {"k_values": 5},
            {"lanes": None},
            {"batch_sizes": 768},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidConfigError):
            BenchConfig(**kwargs)


class TestMakeBatches:
    def test_cycles_to_the_exact_size(self):
        samples = _test_samples(100)
        workload = make_batches(samples, 768, lanes=4)
        assert len(workload.samples) == 768
        assert workload.lanes == 4
        counts = {}
        for s in workload.samples:
            counts[s.id] = counts.get(s.id, 0) + 1
        assert set(counts.values()) <= {7, 8}

    def test_single_sample_degenerates_to_copies(self):
        (sample,) = _test_samples(1)
        workload = make_batches([sample], 768, lanes=1)
        assert len(workload.samples) == 768
        assert all(s is sample for s in workload.samples)

    def test_order_is_round_robin(self):
        samples = _test_samples(4)
        workload = make_batches(samples, 6, lanes=1)
        assert [s.id for s in workload.samples] == ["t0", "t1", "t2", "t3", "t0", "t1"]

    def test_empty_test_set_rejected(self):
        with pytest.raises(IntegrityError, match="no test samples to batch"):
            make_batches([], 768, lanes=1)


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
    def _report(self, reps=1, sizes=(8,), lanes=2):
        config = BenchConfig(
            k_values=(2, 3),
            batch_sizes=sizes,
            lanes=lanes,
            repetitions=reps,
        )
        return run_bench(_train_corpus(), _test_samples(), config)

    def test_two_rows_per_cell(self):
        config = BenchConfig(k_values=(2,), batch_sizes=(8,), lanes=2, repetitions=1)
        report = run_bench(_train_corpus(), _test_samples(), config)
        assert len(report) == 2

    def test_cardinality_and_order(self):
        report = self._report(sizes=(8, 16))
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
        report = self._report(reps=2, sizes=(8, 16))
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
        report = self._report(sizes=(8, 2 * _BLOCK))
        lanes = {(r.k, r.batch_size): r.lanes for r in report if r.mode == "parallel"}
        assert lanes == {(2, 8): 1, (2, 2 * _BLOCK): 2, (3, 8): 1, (3, 2 * _BLOCK): 2}
        sink = io.StringIO()
        emit_csv(report, sink)
        assert _read_csv(sink.getvalue()) == report


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
        assert CSV_HEADER == "k,batch_size,mode,lanes,elapsed_ns_median,elapsed_ns_min,speedup"

    def test_two_rows_make_three_lines(self):
        sink = io.StringIO()
        emit_csv(self._rows(), sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[1] == "2,8,sequential,1,1000,900,"
        assert lines[2] == "2,8,parallel,4,500,450,2.0"

    def test_float_and_large_int_bytes(self):
        """A speedup is written as its shortest round-trip text, an elapsed count in full."""
        rows = (
            BenchRow(200, 12288, "parallel", 2, 3 * 10**12, 10**12 + 7, 1 / 3),
            BenchRow(200, 12288, "parallel", 2, 10**13, 123456789012345, 1e-05),
            BenchRow(20, 768, "parallel", 4, 2_000_000_000_001, 10**12 + 1, 2.0),
            BenchRow(20, 768, "parallel", 4, 10**15, 999_999_999_999_999, 1e16),
        )
        sink = io.StringIO()
        emit_csv(rows, sink)
        assert sink.getvalue().splitlines()[1:] == [
            "200,12288,parallel,2,3000000000000,1000000000007,0.3333333333333333",
            "200,12288,parallel,2,10000000000000,123456789012345,1e-05",
            "20,768,parallel,4,2000000000001,1000000000001,2.0",
            "20,768,parallel,4,1000000000000000,999999999999999,1e+16",
        ]

    def test_emit_is_deterministic(self):
        report = self._rows()
        a, b = io.StringIO(), io.StringIO()
        emit_csv(report, a)
        emit_csv(report, b)
        assert a.getvalue() == b.getvalue()
