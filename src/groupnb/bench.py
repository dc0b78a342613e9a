"""Benchmark sweep: sequential vs lane-parallel classification time.

Workloads are built in multiples of a fixed batch size by cycling the
test set, classified repeatedly at each feature-budget k in both modes,
and summarized as median/min elapsed nanoseconds plus the
median-over-median speedup. The rows serialize to CSV deterministically.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

from . import engine
from .corpus import SampleRecord
from .engine import ModelBundle, Workload
from .errors import InvalidConfigError, positive_int

__all__ = [
    "BenchConfig",
    "BenchRow",
    "emit_csv",
    "make_batches",
    "run_bench",
]

CSV_HEADER = "k,batch_size,mode,lanes,elapsed_ns_median,elapsed_ns_min,speedup"

MODE_SEQUENTIAL = "sequential"
MODE_PARALLEL = "parallel"


def _check_positive_ints(name: str, values: Sequence[int]) -> None:
    if not isinstance(values, Sequence) or not values:
        raise InvalidConfigError(f"{name} must be a non-empty sequence, got {values!r}")
    for value in values:
        positive_int(f"{name} entry", value)


@dataclass(frozen=True)
class BenchConfig:
    k_values: tuple[int, ...] = (20, 40, 80, 100, 160, 200)
    batch_multiple: int = 768
    batch_counts: tuple[int, ...] = (1, 2, 4, 8, 16)
    lanes: int = os.cpu_count() or 1  # at most this many lanes per parallel run
    repetitions: int = 5

    def __post_init__(self):
        _check_positive_ints("k_values", self.k_values)
        _check_positive_ints("batch_counts", self.batch_counts)
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

