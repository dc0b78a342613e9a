"""Benchmark sweep: sequential vs lane-parallel classification time.

Workloads are built in multiples of a fixed batch size by cycling the
test set, classified repeatedly at each feature-budget k in both modes,
and summarized as median/min elapsed nanoseconds plus the
median-over-median speedup. The rows serialize to CSV deterministically
and parse back for self-consistency checks.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

from . import engine
from .corpus import SampleRecord, _numbered_lines
from .engine import ModelBundle, Workload
from .errors import InvalidConfigError, ParseError, positive_int

CSV_HEADER = "k,batch_size,mode,lanes,elapsed_ns_median,elapsed_ns_min,speedup"

MODE_SEQUENTIAL = "sequential"
MODE_PARALLEL = "parallel"


def _check_positive_ints(name: str, values: Sequence[int]) -> None:
    if not values:
        raise InvalidConfigError(f"{name} must be non-empty")
    for value in values:
        positive_int(f"{name} entry", value)


@dataclass(frozen=True)
class BenchConfig:
    k_values: tuple[int, ...] = (20, 40, 80, 100, 160, 200)
    batch_multiple: int = 768
    batch_counts: tuple[int, ...] = (1, 2, 4, 8, 16)
    lanes: int | None = None  # None: detected hardware threads
    repetitions: int = 5

    def __post_init__(self):
        _check_positive_ints("k_values", self.k_values)
        _check_positive_ints("batch_counts", self.batch_counts)
        if self.lanes is None:
            object.__setattr__(self, "lanes", os.cpu_count() or 1)
        positive_int("batch_multiple", self.batch_multiple)
        positive_int("lanes", self.lanes)
        positive_int("repetitions", self.repetitions)


@dataclass(frozen=True)
class BenchRow:
    k: int
    batch_size: int
    mode: str
    lanes: int
    elapsed_ns_median: int
    elapsed_ns_min: int
    speedup: float | None  # None on sequential rows


def make_batches(
    test_samples: Sequence[SampleRecord],
    batch_multiple: int,
    batch_count: int,
    lanes: int,
) -> Workload:
    """Workload of exactly batch_multiple * batch_count samples.

    The test set is cycled round-robin in its given order, so every
    original sample appears either floor or ceil of total/len times.
    """
    if not test_samples:
        raise InvalidConfigError("no test samples to batch")
    total = batch_multiple * batch_count
    n = len(test_samples)
    samples = tuple(test_samples[i % n] for i in range(total))
    return Workload(samples=samples, lanes=lanes)


def run_bench(
    bundles: Mapping[int, ModelBundle],
    test_samples: Sequence[SampleRecord],
    config: BenchConfig,
) -> tuple[BenchRow, ...]:
    """Time every (k, batch_size) cell in both modes; returns one row per cell and mode.

    Rows come out ordered k ascending, batch size ascending, sequential
    before parallel; each mode runs config.repetitions times and the
    speedup is the ratio of the two stored medians. A parallel row's
    lanes are the lanes that ran, at most config.lanes (see
    engine.classify_parallel).
    """
    missing = [k for k in config.k_values if k not in bundles]
    if missing:
        raise InvalidConfigError(f"no bundle trained for k={missing}")
    k_values = sorted(set(config.k_values))
    counts = sorted(set(config.batch_counts))
    workloads = {
        count: make_batches(test_samples, config.batch_multiple, count, config.lanes)
        for count in counts
    }
    rows: list[BenchRow] = []
    for k in k_values:
        bundle = bundles[k]
        for count in counts:
            workload = workloads[count]
            batch_size = len(workload.samples)
            seq_ns = [
                engine.classify_sequential(bundle, workload).elapsed_ns
                for _ in range(config.repetitions)
            ]
            par_runs = [
                engine.classify_parallel(bundle, workload) for _ in range(config.repetitions)
            ]
            par_ns = [run.elapsed_ns for run in par_runs]
            seq_median = int(round(statistics.median(seq_ns)))
            par_median = int(round(statistics.median(par_ns)))
            rows.append(
                BenchRow(
                    k=k,
                    batch_size=batch_size,
                    mode=MODE_SEQUENTIAL,
                    lanes=1,
                    elapsed_ns_median=seq_median,
                    elapsed_ns_min=min(seq_ns),
                    speedup=None,
                )
            )
            rows.append(
                BenchRow(
                    k=k,
                    batch_size=batch_size,
                    mode=MODE_PARALLEL,
                    lanes=par_runs[0].lanes,
                    elapsed_ns_median=par_median,
                    elapsed_ns_min=min(par_ns),
                    speedup=engine.speedup(seq_median, par_median),
                )
            )
    return tuple(rows)


def emit_csv(rows: Sequence[BenchRow], sink: TextIO) -> None:
    """Write the rows under CSV_HEADER; emitting the same rows twice is byte-identical."""
    sink.write(CSV_HEADER + "\n")
    for row in rows:
        speedup = "" if row.speedup is None else repr(row.speedup)
        sink.write(
            f"{row.k},{row.batch_size},{row.mode},{row.lanes},"
            f"{row.elapsed_ns_median},{row.elapsed_ns_min},{speedup}\n"
        )


def parse_csv(text: str) -> tuple[BenchRow, ...]:
    """The rows of an emit_csv text; emit(parse(emit(rows))) == emit(rows).

    Lines break, and blank ones are skipped but counted, as in parse_corpus.
    """
    lines = list(_numbered_lines(text))
    if not lines or lines[0][1] != CSV_HEADER:
        raise ParseError(lines[0][0] if lines else 1, f"expected header {CSV_HEADER!r}")
    rows = []
    for line_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(line_no, f"expected 7 fields, got {len(parts)}")
        try:
            k, batch_size, mode, lanes, median, minimum, raw_speedup = parts
            if mode not in (MODE_SEQUENTIAL, MODE_PARALLEL):
                raise ValueError(f"unknown mode {mode!r}")
            rows.append(
                BenchRow(
                    k=int(k),
                    batch_size=int(batch_size),
                    mode=mode,
                    lanes=int(lanes),
                    elapsed_ns_median=int(median),
                    elapsed_ns_min=int(minimum),
                    speedup=None if raw_speedup == "" else float(raw_speedup),
                )
            )
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return tuple(rows)
