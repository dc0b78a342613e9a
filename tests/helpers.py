"""Small builders shared across the test suite."""

import contextlib
import os
import signal

import pytest

from groupnb import engine
from groupnb.corpus import (
    GroupedCorpus,
    GroupingConfig,
    Label,
    OpcodeHistogram,
    SampleRecord,
    partition_by_group,
)


def make_sample(sid: str, label: Label, size_bytes: int, opcodes: dict) -> SampleRecord:
    return SampleRecord(
        id=sid,
        label=label,
        size_bytes=size_bytes,
        histogram=OpcodeHistogram.from_counts(opcodes),
    )


def grouped(samples, config: GroupingConfig | None = None) -> GroupedCorpus:
    corpus, rejected = partition_by_group(samples, config or GroupingConfig())
    assert not rejected, "helper corpora must fit the size range"
    return corpus


def two_class_group(
    group: int,
    n_malware: int = 6,
    n_benign: int = 6,
    width: int = 5120,
) -> list[SampleRecord]:
    """Separable malware/benign samples all falling inside one size group."""
    base = group * width
    samples = []
    for i in range(n_malware):
        samples.append(
            make_sample(
                f"m{group:03d}-{i:03d}",
                Label.MALWARE,
                base + i,
                {"evil": 3 + i % 2, "mov": 1},
            )
        )
    for i in range(n_benign):
        samples.append(
            make_sample(
                f"b{group:03d}-{i:03d}",
                Label.BENIGN,
                base + i,
                {"mov": 3, "add": 1 + i % 2},
            )
        )
    return samples


def seeded_group(rng, max_samples: int = 10) -> list[SampleRecord]:
    """Random two-class sample list drawn from a ``random.Random``, where both
    classes have occurrences. Histograms are built directly, so some keys
    carry a count of 0, which ``from_counts`` would drop."""
    pool = ["add", "call", "jmp", "lea", "mov", "pop", "push", "ret", "sub", "xor"]
    vocab = rng.sample(pool, rng.randint(2, len(pool)))
    samples = []
    for i in range(rng.randint(2, max_samples)):
        label = Label.MALWARE if i % 2 == 0 else Label.BENIGN
        ops = {op: rng.randint(0, 30) for op in rng.sample(vocab, rng.randint(1, len(vocab)))}
        ops[rng.choice(vocab)] = rng.randint(1, 30)
        samples.append(SampleRecord(f"s{i}", label, 100 + i, OpcodeHistogram(ops)))
    return samples


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        # Not an OSError: multiprocessing's join swallows those.
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def kill_worker_lanes(monkeypatch, code: int = 9, lane: int | None = None) -> None:
    """Make every worker lane (or only lane ``lane``) exit with ``code`` when it
    starts scoring its share; the calling process is spared."""
    test_pid = os.getpid()
    real = engine.run_lanes

    def run_lanes(body, lane_args, warmup):
        def body_or_exit(i, *args):
            if os.getpid() != test_pid and lane in (None, i):
                os._exit(code)
            return body(*args)

        return real(body_or_exit, [(i, *args) for i, args in enumerate(lane_args)], warmup)

    monkeypatch.setattr(engine, "run_lanes", run_lanes)
