"""Acceptance checks: one test per release criterion.

Each test prints one [ACCEPTANCE] line through the session recorder so
the run ends with a readable checklist. Oracles here are written
independently of the implementation: exact rational arithmetic for the
posterior check, double loops for feature scoring, linear scans for
routing, and a full boundary sweep for grouping.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from groupnb.bench import BenchConfig, make_batches, run_bench
from groupnb.classifier import log_posterior, normalized_posterior, train_group
from groupnb.corpus import (
    GroupingConfig,
    Label,
    OpcodeHistogram,
    assign_group,
    partition_by_group,
    split_train_test,
    trainable_groups,
)
from groupnb.engine import (
    _BLOCK,
    Workload,
    classify_parallel,
    classify_sequential,
    route,
    speedup,
    train_bundle,
    train_bundles,
)
from groupnb.errors import SizeRangeError
from groupnb.features import FeatureSet, score_opcodes, select_top_k
from groupnb.synth import SyntheticSpec, generate_synthetic

from helpers import grouped, make_sample, two_class_group


def test_c1_grouping_fidelity(acceptance):
    """Default geometry yields 100 groups and matches a full boundary sweep."""
    config = GroupingConfig()
    assert config.group_size_bytes == 5120
    assert config.max_size_bytes == 512000
    assert config.group_count == 100

    t0 = time.perf_counter()
    mismatches = [s for s in range(512000) if assign_group(s, config) != s // 5120]
    assert mismatches == []
    for size in (512000, 512001, -1):
        with pytest.raises(SizeRangeError):
            assign_group(size, config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    acceptance("C1", "grouping-fidelity", "PASS", f"512002 sizes in {elapsed:.2f}s")


def test_c2_nb_posterior_oracle(acceptance):
    """Normalized posteriors match exact rational Bayes on 200 micro-instances."""
    rng = np.random.default_rng(2026)
    pool = ("a", "b", "c", "d")
    worst = 0.0
    for case in range(200):
        n_features = int(rng.integers(1, 5))
        features = tuple(sorted(rng.choice(pool, size=n_features, replace=False)))
        alpha = int(rng.integers(1, 3))
        n_m = int(rng.integers(1, 4))
        n_b = int(rng.integers(1, 4))
        counts_m = {o: int(rng.integers(0, 6)) for o in features}
        counts_b = {o: int(rng.integers(0, 6)) for o in features}

        samples = []
        for i in range(n_m):
            ops = {o: c for o, c in counts_m.items() if c} if i == 0 else {}
            samples.append(make_sample(f"m{case}-{i}", Label.MALWARE, 10 + i, {**ops, "zzz": 1}))
        for i in range(n_b):
            ops = {o: c for o, c in counts_b.items() if c} if i == 0 else {}
            samples.append(make_sample(f"b{case}-{i}", Label.BENIGN, 20 + i, {**ops, "zzz": 1}))
        model = train_group(samples, FeatureSet(features), float(alpha))

        budget = int(rng.integers(0, 7))
        hist: dict[str, int] = {}
        for o in features + ("noise",):
            if budget == 0:
                break
            c = int(rng.integers(0, budget + 1))
            budget -= c
            if c:
                hist[o] = c
        histogram = OpcodeHistogram.from_counts(hist)

        joint = {}
        for label, n_c, counts in (
            (Label.MALWARE, n_m, counts_m),
            (Label.BENIGN, n_b, counts_b),
        ):
            total = sum(counts[o] for o in features)
            prob = Fraction(n_c, n_m + n_b)
            for o in features:
                theta = Fraction(counts[o] + alpha, total + alpha * len(features))
                prob *= theta ** histogram.entries.get(o, 0)
            joint[label] = prob
        expected = joint[Label.MALWARE] / (joint[Label.MALWARE] + joint[Label.BENIGN])

        got = normalized_posterior(log_posterior(model, histogram))[Label.MALWARE]
        worst = max(worst, abs(got - float(expected)))
        assert abs(got - float(expected)) < 1e-9
    acceptance("C2", "nb-posterior-oracle", "PASS", f"200 instances, worst gap {worst:.2e}")


def test_c3_feature_selection_oracle(acceptance):
    """Scoring and top-k match a double-loop oracle on 100 random corpora."""
    rng = np.random.default_rng(33)
    pool = ["add", "call", "jmp", "lea", "mov", "pop", "push", "ret", "sub", "xor"]
    for case in range(100):
        vocab = list(rng.choice(pool, size=int(rng.integers(2, 11)), replace=False))
        samples = []
        for i in range(int(rng.integers(2, 11))):
            label = Label.MALWARE if i % 2 == 0 else Label.BENIGN
            ops = {
                op: int(rng.integers(1, 40))
                for op in rng.choice(vocab, size=int(rng.integers(1, len(vocab) + 1)), replace=False)
            }
            samples.append(make_sample(f"c{case}-{i}", label, 100 + i, ops))

        totals = {Label.MALWARE: 0, Label.BENIGN: 0}
        counts = {Label.MALWARE: {}, Label.BENIGN: {}}
        for s in samples:
            for op, n in s.histogram.entries.items():
                counts[s.label][op] = counts[s.label].get(op, 0) + n
                totals[s.label] += n
        oracle = {}
        for op in set(counts[Label.MALWARE]) | set(counts[Label.BENIGN]):
            f_m = counts[Label.MALWARE].get(op, 0) / totals[Label.MALWARE]
            f_b = counts[Label.BENIGN].get(op, 0) / totals[Label.BENIGN]
            oracle[op] = abs(f_m - f_b)

        table = score_opcodes(samples)
        assert set(table.scores) == set(oracle)
        for op, expected in oracle.items():
            assert abs(table.scores[op] - expected) < 1e-12

        k = int(rng.integers(1, 12))
        expected_order = tuple(
            op for op, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        )
        assert select_top_k(table, k).opcodes == expected_order
    acceptance("C3", "feature-selection-oracle", "PASS", "100 corpora, scores and order exact")


def test_c4_parallel_sequential_equivalence(acceptance):
    """Lane-parallel output is bit-identical to the baseline on 50 random runs."""
    rng = np.random.default_rng(404)
    lane_cycle = (1, 2, 4, 8)
    for case in range(50):
        spec = SyntheticSpec(
            group_count=int(rng.integers(1, 4)),
            samples_per_group_per_class=int(rng.integers(6, 10)),
            vocabulary_size=int(rng.integers(8, 25)),
            divergence=float(rng.uniform(0.0, 1.0)),
            seed=int(rng.integers(0, 10_000)),
        )
        corpus = generate_synthetic(spec)
        train, rejected = partition_by_group(corpus, GroupingConfig())
        assert not rejected
        bundle = train_bundle(train, k=int(rng.integers(3, 12)), created_at="t")

        order = rng.permutation(len(corpus))
        lanes = lane_cycle[case % 4]
        # A lane only starts for a full kernel block, so each lane gets one.
        n = int(rng.integers(10, 50)) + lanes * _BLOCK
        samples = [corpus[order[i % len(corpus)]] for i in range(n)]
        if case % 5 == 0:
            samples[n // 2] = make_sample("big", Label.UNKNOWN, 512000 + case, {"mov": 1})
        workload = Workload(tuple(samples), lanes=lanes)

        seq = classify_sequential(bundle, workload, warmup=False)
        par = classify_parallel(bundle, workload, warmup=False)
        assert par.predictions == seq.predictions  # labels and float-exact scores
        assert par.errors == seq.errors
        assert par.lanes == lanes
    acceptance(
        "C4", "parallel-sequential-equivalence", "PASS", "50 runs at lanes 1/2/4/8, bit-identical"
    )


def test_c5_speedup_methodology(acceptance):
    """Parallel lanes beat the sequential baseline on a multi-core host."""
    threads = os.cpu_count() or 1
    if threads < 4:
        acceptance(
            "C5",
            "speedup-methodology",
            "SKIP",
            f"needs >= 4 hardware threads, host has {threads}",
        )
        pytest.skip(
            f"speedup >= 1.5 is only claimed for hosts with >= 4 hardware threads; "
            f"this host has {threads}"
        )

    t0 = time.perf_counter()
    spec = SyntheticSpec(
        group_count=4,
        samples_per_group_per_class=12,
        vocabulary_size=256,
        divergence=0.8,
        seed=2026,
    )
    corpus = generate_synthetic(spec)
    train, _ = partition_by_group(corpus, GroupingConfig())
    bundles = train_bundles(train, (20, 40, 80, 100, 160, 200), created_at="t")

    workload = make_batches(corpus, 7680, lanes=threads)
    assert len(workload.samples) >= 7680
    seq = classify_sequential(bundles[200], workload)
    par = classify_parallel(bundles[200], workload)
    ratio = speedup(seq.elapsed_ns, par.elapsed_ns)
    assert ratio >= 1.5

    config = BenchConfig(lanes=threads)
    report = run_bench(train, corpus, config)
    assert len(report) == 6 * 5 * 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    acceptance(
        "C5",
        "speedup-methodology",
        "PASS",
        f"speedup {ratio:.2f} at {threads} lanes, sweep in {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def cost_trend_report():
    """Small honest sweep at k=20 vs k=200 used by the cost-trend check."""
    spec = SyntheticSpec(
        group_count=3,
        samples_per_group_per_class=12,
        vocabulary_size=256,
        divergence=0.8,
        seed=7,
    )
    corpus = generate_synthetic(spec)
    train, _ = partition_by_group(corpus, GroupingConfig())
    config = BenchConfig(
        k_values=(20, 200),
        batch_sizes=(768,),
        lanes=min(4, os.cpu_count() or 1),
        repetitions=3,
    )
    return run_bench(train, corpus, config)


def test_c6_feature_cost_trend(acceptance, cost_trend_report):
    """Sequential cost grows with the feature budget (>= 10% at 20 vs 200)."""
    rows = {(r.k, r.mode): r for r in cost_trend_report}
    fast = rows[(20, "sequential")].elapsed_ns_median
    slow = rows[(200, "sequential")].elapsed_ns_median
    assert slow > fast * 1.10
    acceptance(
        "C6",
        "feature-cost-trend",
        "PASS",
        f"k=200 median {slow} ns vs k=20 median {fast} ns ({slow / fast:.1f}x)",
    )


def test_c7_exclusion_and_fallback(acceptance):
    """Groups short one class are excluded and their files route upward."""
    short = {5, 8, 61}
    samples = []
    for g in range(100):
        n_malware = 5 if g in short else 6
        samples += two_class_group(g, n_malware=n_malware, n_benign=6)
    config = GroupingConfig()
    corpus = grouped(samples, config)

    assert trainable_groups(corpus, config) == set(range(100)) - short

    bundle = train_bundle(corpus, k=3, created_at="t")
    assert bundle.trained_ids == tuple(sorted(set(range(100)) - short))
    probes = tuple(
        make_sample(f"p{g}", Label.UNKNOWN, g * 5120 + 100, {"mov": 2, "evil": 1})
        for g in sorted(short)
    )
    run = classify_sequential(bundle, Workload(probes, lanes=1), warmup=False)
    assert [p.effective_group for p in run.predictions] == [6, 9, 62]
    for g in short:
        assert route(bundle, g) == g + 1
    acceptance("C7", "exclusion-and-fallback", "PASS", "excluded {5, 8, 61}; routed to 6/9/62")


def _held_out_accuracy(divergence, seed, split_seed=0, k=20, groups=8, per_class=45):
    spec = SyntheticSpec(
        group_count=groups,
        samples_per_group_per_class=per_class,
        vocabulary_size=40,
        divergence=divergence,
        seed=seed,
    )
    corpus = generate_synthetic(spec)
    train, _ = partition_by_group(corpus, GroupingConfig())
    split = split_train_test(train, (2, 1), seed=split_seed)
    bundle = train_bundle(split.train, k=k, alpha=1.0, created_at="t")
    test = tuple(split.test.all_samples())
    run = classify_sequential(bundle, Workload(test, lanes=1), warmup=False)
    correct = sum(1 for s, p in zip(test, run.predictions) if p.label is s.label)
    return correct / len(test)


def test_c8_learnability_sanity(acceptance):
    """Disjoint vocabularies are fully learnable; identical ones are not."""
    t0 = time.perf_counter()
    separable = _held_out_accuracy(divergence=1.0, seed=11)
    assert separable == 1.0
    chance = _held_out_accuracy(divergence=0.0, seed=11)
    # Balanced classes: the majority-class prior is 0.5.
    assert abs(chance - 0.5) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    acceptance(
        "C8",
        "learnability-sanity",
        "PASS",
        f"acc {separable:.3f} at divergence 1.0, {chance:.3f} at 0.0, {elapsed:.1f}s",
    )


def test_c9_split_determinism(acceptance):
    """A fixed seed reproduces the exact stratified 2:1 partition."""
    spec = SyntheticSpec(
        group_count=10,
        samples_per_group_per_class=50,
        vocabulary_size=16,
        divergence=0.5,
        seed=99,
    )
    corpus = generate_synthetic(spec)
    assert len(corpus) == 1000
    train, _ = partition_by_group(corpus, GroupingConfig())

    first = split_train_test(train, (2, 1), seed=17)
    second = split_train_test(train, (2, 1), seed=17)
    assert [s.id for s in first.train.all_samples()] == [s.id for s in second.train.all_samples()]
    assert [s.id for s in first.test.all_samples()] == [s.id for s in second.test.all_samples()]

    for g, bucket in train.groups.items():
        for label in (Label.MALWARE, Label.BENIGN):
            n = sum(1 for s in bucket if s.label is label)
            got = sum(1 for s in first.train.groups[g] if s.label is label)
            assert got == math.ceil(n * 2 / 3)
    train_ids = {s.id for s in first.train.all_samples()}
    test_ids = {s.id for s in first.test.all_samples()}
    assert len(train_ids) + len(test_ids) == 1000
    assert train_ids.isdisjoint(test_ids)
    acceptance("C9", "split-determinism", "PASS", "1000 samples, 34/16 per stratum, repeatable")
