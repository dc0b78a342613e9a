"""Benchmark sweep: sequential vs lane-parallel classification time.

One bundle is trained per feature budget k. A workload of each listed
batch size cycles the test set, is classified repeatedly at each k in
both modes, and is summarized as median/min elapsed nanoseconds plus the
median-over-median speedup. The rows serialize to CSV deterministically.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import astuple, dataclass, fields
from typing import Sequence, TextIO

from . import engine
from .corpus import GroupedCorpus, SampleRecord
from .engine import Workload
from .errors import IntegrityError, InvalidConfigError, positive_int

__all__ = [
    "BenchConfig",
    "BenchRow",
    "emit_csv",
    "make_batches",
    "run_bench",
]

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
    batch_sizes: tuple[int, ...] = (768, 1536, 3072, 6144, 12288)
    lanes: int = os.cpu_count() or 1  # at most this many lanes per parallel run
    repetitions: int = 5

    def __post_init__(self):
        _check_positive_ints("k_values", self.k_values)
        _check_positive_ints("batch_sizes", self.batch_sizes)
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


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def make_batches(
    test_samples: Sequence[SampleRecord],
    size: int,
    lanes: int,
) -> Workload:
    """Workload of exactly size samples.

    The test set is cycled round-robin in its given order, so every
    original sample appears either floor or ceil of size/len times.
    """
    if not test_samples:
        raise IntegrityError("no test samples to batch")
    n = len(test_samples)
    samples = tuple(test_samples[i % n] for i in range(size))
    return Workload(samples=samples, lanes=lanes)


def run_bench(
    train: GroupedCorpus,
    test_samples: Sequence[SampleRecord],
    config: BenchConfig,
) -> tuple[BenchRow, ...]:
    """Train one bundle per k, then time every (k, batch_size) cell in both modes.

    Training is engine.train_bundles(train, config.k_values), with its
    errors; an empty test set fails before it. Rows come out one per
    cell and mode, ordered k ascending, batch size ascending,
    sequential before parallel; each mode runs
    config.repetitions times and the speedup is the ratio of the two
    stored medians. A parallel row's lanes are the lanes that ran, at
    most config.lanes (see engine.classify_parallel).
    """
    workloads = [make_batches(test_samples, size, config.lanes)
                 for size in sorted(set(config.batch_sizes))]
    bundles = engine.train_bundles(train, config.k_values)
    rows: list[BenchRow] = []
    for k, bundle in sorted(bundles.items()):
        for workload in workloads:
            seq_median = None  # set by the sequential row; the parallel row's speedup baseline
            for mode, classify in ((MODE_SEQUENTIAL, engine.classify_sequential),
                                   (MODE_PARALLEL, engine.classify_parallel)):
                runs = [classify(bundle, workload) for _ in range(config.repetitions)]
                elapsed = [run.elapsed_ns for run in runs]
                median = int(round(statistics.median(elapsed)))
                rows.append(
                    BenchRow(
                        k=k,
                        batch_size=len(workload.samples),
                        mode=mode,
                        lanes=runs[0].lanes,
                        elapsed_ns_median=median,
                        elapsed_ns_min=min(elapsed),
                        speedup=None if seq_median is None else engine.speedup(seq_median, median),
                    )
                )
                seq_median = median
    return tuple(rows)


def emit_csv(rows: Sequence[BenchRow], sink: TextIO) -> None:
    """Write the rows under CSV_HEADER; emitting the same rows twice is byte-identical."""
    sink.write(CSV_HEADER + "\n")
    for row in rows:
        sink.write(",".join("" if v is None else str(v) for v in astuple(row)) + "\n")

