"""Per-group opcode scoring and top-k selection."""

import random

import numpy as np
import pytest

from groupnb.corpus import Label, OpcodeHistogram, SampleRecord
from groupnb.errors import InsufficientClassError, InvalidConfigError
from groupnb.features import (
    ScoreTable,
    count_group,
    score_opcodes,
    select_top_k,
)

from helpers import make_sample, seeded_group

_POOL = ["add", "call", "jmp", "lea", "mov", "pop", "push", "ret", "sub", "xor"]


def _random_group(rng, max_samples=10, max_opcodes=10):
    """Random two-class sample list where both classes have occurrences."""
    vocab = list(rng.choice(_POOL, size=int(rng.integers(2, max_opcodes + 1)), replace=False))
    samples = []
    n = int(rng.integers(2, max_samples + 1))
    for i in range(n):
        label = Label.MALWARE if i % 2 == 0 else Label.BENIGN
        ops = {
            op: int(rng.integers(1, 30))
            for op in rng.choice(vocab, size=int(rng.integers(1, len(vocab) + 1)), replace=False)
        }
        samples.append(make_sample(f"s{i}", label, 100 + i, ops))
    return samples


class TestCountGroup:
    def test_single_sample(self):
        samples = [make_sample("m", Label.MALWARE, 10, {"mov": 3, "jmp": 1})]
        counts = count_group(samples)
        assert counts.opcodes == {Label.MALWARE: {"mov": 3, "jmp": 1}, Label.BENIGN: {}}
        assert counts.samples == {Label.MALWARE: 1, Label.BENIGN: 0}
        assert counts.unlabeled is None

    def test_absent_class(self):
        samples = [make_sample("m", Label.MALWARE, 10, {"mov": 3})]
        counts = count_group(samples)
        assert counts.opcodes[Label.BENIGN] == {}
        assert counts.samples[Label.BENIGN] == 0

    def test_aggregates_across_samples(self):
        samples = [
            make_sample("a", Label.BENIGN, 10, {"mov": 1}),
            make_sample("b", Label.BENIGN, 11, {"mov": 1, "add": 2}),
        ]
        counts = count_group(samples)
        assert counts.opcodes[Label.BENIGN] == {"mov": 2, "add": 2}
        assert counts.samples == {Label.MALWARE: 0, Label.BENIGN: 2}

    def test_keeps_zero_count_keys(self):
        samples = [
            SampleRecord("z", Label.MALWARE, 10, OpcodeHistogram({"mov": 0, "add": 2})),
            make_sample("b", Label.BENIGN, 11, {"jmp": 1}),
        ]
        assert count_group(samples).opcodes[Label.MALWARE] == {"mov": 0, "add": 2}
        # The zero-count key is still scored: |0/2 - 0/1| = 0.
        assert score_opcodes(samples).scores == {"add": 1.0, "jmp": 1.0, "mov": 0.0}

    def test_records_the_first_unlabeled_sample(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"mov": 1}),
            make_sample("u1", Label.UNKNOWN, 11, {"mov": 5}),
            make_sample("u2", Label.UNKNOWN, 12, {"add": 5}),
        ]
        counts = count_group(samples)
        assert counts.unlabeled == "u1"
        assert counts.opcodes == {Label.MALWARE: {"mov": 1}, Label.BENIGN: {}}
        assert counts.samples == {Label.MALWARE: 1, Label.BENIGN: 0}

    def test_totals_match_the_histograms(self):
        rng = random.Random(5)
        for _ in range(25):
            samples = seeded_group(rng)
            counts = count_group(samples)
            for label in (Label.MALWARE, Label.BENIGN):
                members = [s for s in samples if s.label is label]
                assert counts.samples[label] == len(members)
                assert sum(counts.opcodes[label].values()) == sum(
                    sum(s.histogram.entries.values()) for s in members
                )
                assert set(counts.opcodes[label]) == {
                    op for s in members for op in s.histogram.entries
                }


class TestScoreOpcodes:
    def test_worked_example(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"mov": 3, "jmp": 1}),
            make_sample("b", Label.BENIGN, 11, {"mov": 1, "add": 3}),
        ]
        table = score_opcodes(samples, group=0)
        assert table.scores == pytest.approx({"mov": 0.5, "jmp": 0.25, "add": 0.75})

    def test_identical_distributions_score_zero(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"mov": 2, "add": 2}),
            make_sample("b", Label.BENIGN, 11, {"mov": 3, "add": 3}),
        ]
        table = score_opcodes(samples)
        assert all(score == pytest.approx(0.0) for score in table.scores.values())

    def test_single_class_opcode_scores_its_frequency(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"evil": 1, "mov": 3}),
            make_sample("b", Label.BENIGN, 11, {"mov": 4}),
        ]
        table = score_opcodes(samples)
        assert table.scores["evil"] == pytest.approx(0.25)

    @pytest.mark.parametrize("keep", [Label.MALWARE, Label.BENIGN])
    def test_missing_class_is_an_error(self, keep):
        samples = [make_sample("s", keep, 10, {"mov": 1})]
        with pytest.raises(InsufficientClassError):
            score_opcodes(samples, group=7)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            samples = _random_group(rng)
            table = score_opcodes(samples)
            oracle = _oracle_scores(samples)
            assert set(table.scores) == set(oracle)
            for op in oracle:
                assert abs(table.scores[op] - oracle[op]) < 1e-12

    def test_matches_double_loop_oracle_exactly(self):
        rng = random.Random(29)
        for _ in range(100):
            samples = seeded_group(rng)
            table = score_opcodes(samples)
            oracle = _oracle_scores(samples)
            assert list(table.scores) == sorted(oracle)
            assert {op: v.hex() for op, v in table.scores.items()} == {
                op: v.hex() for op, v in oracle.items()
            }

    def test_ignores_unlabeled_samples(self):
        samples = seeded_group(random.Random(3))
        unlabeled = make_sample("u", Label.UNKNOWN, 7, {"mov": 50, "new": 9})
        assert score_opcodes(samples + [unlabeled]) == score_opcodes(samples)

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            samples = _random_group(rng)
            scaled = [
                make_sample(
                    s.id,
                    s.label,
                    s.size_bytes,
                    {op: n * 7 for op, n in s.histogram.entries.items()},
                )
                if s.label is Label.MALWARE
                else s
                for s in samples
            ]
            assert score_opcodes(samples).scores == pytest.approx(
                score_opcodes(scaled).scores, abs=1e-12
            )
            assert select_top_k(score_opcodes(samples), 5) == select_top_k(
                score_opcodes(scaled), 5
            )

    def test_sample_order_does_not_matter(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            samples = _random_group(rng)
            shuffled = list(samples)
            rng.shuffle(shuffled)
            assert score_opcodes(samples).scores == score_opcodes(shuffled).scores
            assert select_top_k(score_opcodes(samples), 3) == select_top_k(
                score_opcodes(shuffled), 3
            )


class TestSelectTopK:
    def test_worked_example(self):
        table = ScoreTable({"mov": 0.5, "jmp": 0.25, "add": 0.75})
        assert select_top_k(table, 2).opcodes == ("add", "mov")

    def test_k_beyond_vocabulary_returns_all(self):
        table = ScoreTable({"mov": 0.5, "jmp": 0.25})
        features = select_top_k(table, 10)
        assert features.opcodes == ("mov", "jmp")

    def test_ties_break_lexicographically(self):
        table = ScoreTable({"bbb": 0.5, "aaa": 0.5})
        assert select_top_k(table, 1).opcodes == ("aaa",)

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(InvalidConfigError):
            select_top_k(ScoreTable({"mov": 0.5}), k)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            samples = _random_group(rng)
            table = score_opcodes(samples)
            k = int(rng.integers(1, 12))
            expected = tuple(
                op for op, _ in sorted(table.scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            )
            assert select_top_k(table, k).opcodes == expected


def _oracle_scores(samples):
    totals = {Label.MALWARE: 0, Label.BENIGN: 0}
    counts = {Label.MALWARE: {}, Label.BENIGN: {}}
    for s in samples:
        for op, n in s.histogram.entries.items():
            counts[s.label][op] = counts[s.label].get(op, 0) + n
            totals[s.label] += n
    scores = {}
    for op in set(counts[Label.MALWARE]) | set(counts[Label.BENIGN]):
        f_m = counts[Label.MALWARE].get(op, 0) / totals[Label.MALWARE]
        f_b = counts[Label.BENIGN].get(op, 0) / totals[Label.BENIGN]
        scores[op] = abs(f_m - f_b)
    return scores
