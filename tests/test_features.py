"""Per-group opcode scoring and top-k selection."""

import dataclasses
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupnb.corpus import Label, OpcodeHistogram, SampleRecord, parse_corpus
from groupnb.errors import (
    InsufficientClassError, IntegrityError, InvalidConfigError, ParseError,
)
from groupnb.features import (
    FeatureSet,
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
        assert [field.name for field in dataclasses.fields(counts)] == ["opcodes", "samples"]

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

    def test_refuses_the_first_unlabeled_sample(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"mov": 1}),
            make_sample("u1", Label.UNKNOWN, 11, {"mov": 5}),
            make_sample("u2", Label.UNKNOWN, 12, {"add": 5}),
        ]
        with pytest.raises(IntegrityError, match="^sample 'u1' has no training label$"):
            count_group(samples)

    def test_counts_of_two_halves_sum_to_the_whole(self):
        rng = random.Random(11)
        for _ in range(25):
            samples = seeded_group(rng)
            cut = rng.randrange(len(samples) + 1)
            whole = count_group(samples)
            halves = count_group(samples[:cut]), count_group(samples[cut:])
            for label in (Label.MALWARE, Label.BENIGN):
                summed = dict(halves[0].opcodes[label])
                for op, n in halves[1].opcodes[label].items():
                    summed[op] = summed.get(op, 0) + n
                assert summed == whole.opcodes[label]
                assert halves[0].samples[label] + halves[1].samples[label] == whole.samples[label]

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

    def test_refuses_unlabeled_samples(self):
        samples = seeded_group(random.Random(3))
        unlabeled = make_sample("u", Label.UNKNOWN, 7, {"mov": 50, "new": 9})
        with pytest.raises(IntegrityError, match="^sample 'u' has no training label$"):
            score_opcodes(samples + [unlabeled])

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


def _key_sort_top_k(table, k):
    """Top-k by one sort on the (-score, name) key: the oracle of the ranking."""
    return tuple(op for op, _ in sorted(table.scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k])


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
            assert select_top_k(table, k).opcodes == _key_sort_top_k(table, k)


# Few distinct scores, so most draws tie; -0.0 and 0.0 are equal and tie too.
_TIED_SCORES = st.sampled_from([0.0, -0.0, 5e-324, 0.125, 0.25, 1 / 3, 1.0])


class TestRanking:
    """select_top_k is the first k of one ranking, equal to the key sort at every k."""

    def test_ties_zeros_and_prefix_names(self):
        table = ScoreTable({"jmp": 0.5, "c": 0.0, "ja": 0.5, "b": -0.0, "j": 0.5, "a": 0.0,
                            "add": 0.75})
        order = ("add", "j", "ja", "jmp", "a", "b", "c")
        for k in range(1, len(order) + 3):
            assert select_top_k(table, k).opcodes == order[:k] == _key_sort_top_k(table, k)

    @settings(max_examples=200)
    @given(st.dictionaries(st.text("jamp", min_size=1, max_size=4), _TIED_SCORES,
                           min_size=1, max_size=24))
    def test_matches_the_key_sort_at_every_k(self, scores):
        """Keys come in the order drawn, not sorted."""
        table = ScoreTable(scores)
        for k in range(1, len(scores) + 3):
            assert select_top_k(table, k).opcodes == _key_sort_top_k(table, k)

    def test_a_nan_score_gives_k_distinct_opcodes_of_the_table(self):
        table = ScoreTable({"mov": 0.5, "add": float("nan"), "jmp": 0.25, "xor": 0.0})
        for k in range(1, 6):
            opcodes = select_top_k(table, k).opcodes
            assert len(opcodes) == len(set(opcodes)) == min(k, 4)
            assert set(opcodes) <= table.scores.keys()


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


# Opcode names of every kind the one name rule sees: ASCII of either case,
# the empty name, NUL, and letters whose lower() changes their length (İ)
# or depends on their place (Σ, σ, ς).
_NAMES = st.one_of(
    st.just(""),
    st.text(st.sampled_from("movMOV\0İΣσςéÉßǅ"), min_size=1, max_size=4),
    st.text(st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo")), max_size=3),
)


class TestOneNameRule:
    """FeatureSet accepts exactly the names that a parse keys a histogram by without from_counts,
    and those are the names that from_counts keeps as they are."""

    @settings(max_examples=300)
    @given(_NAMES)
    def test_feature_set_accepts_what_the_parse_keeps_unfolded(self, name):
        calls = []
        build = OpcodeHistogram.from_counts
        spy = classmethod(lambda cls, counts: calls.append(counts) or build(counts))
        line = json.dumps({"id": "a", "label": "malware", "size_bytes": 1, "opcodes": {name: 1}})
        with mock.patch.object(OpcodeHistogram, "from_counts", spy):
            try:
                (record,) = parse_corpus([line])
            except ParseError:
                record = None
        unfolded = record is not None and record.histogram.entries == {name: 1} and calls == []
        try:
            kept = OpcodeHistogram.from_counts({name: 1}).entries == {name: 1}
        except ValueError:
            kept = False
        try:
            FeatureSet((name,))
        except InvalidConfigError as exc:
            assert str(exc) == f"opcode must be a non-empty lowercase string, got {name!r}"
            accepted = False
        else:
            accepted = True
        assert accepted == unfolded == kept

    @settings(max_examples=100)
    @given(st.one_of(st.integers(), st.none(), st.booleans(), st.binary(max_size=3),
                     st.lists(st.text(max_size=2), max_size=2),
                     st.tuples(st.text(max_size=2))), st.booleans())
    def test_a_name_that_is_not_a_str_is_refused(self, name, after_a_good_name):
        names = ("mov", name) if after_a_good_name else (name,)
        with pytest.raises(InvalidConfigError) as info:
            FeatureSet(names)
        assert str(info.value) == f"opcode must be a non-empty lowercase string, got {name!r}"
