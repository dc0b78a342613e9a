"""Synthetic corpus generation."""

import numpy as np
import pytest

from groupnb.corpus import GroupingConfig, Label
from groupnb.errors import InvalidConfigError
from groupnb.synth import (
    SyntheticSpec,
    class_distributions,
    generate_synthetic,
    vocabulary,
)


def _spec(**overrides):
    base = dict(
        group_count=4,
        samples_per_group_per_class=5,
        vocabulary_size=10,
        divergence=0.5,
        seed=123,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"group_count": 0},
            {"samples_per_group_per_class": 0},
            {"vocabulary_size": 1},
            {"divergence": -0.1},
            {"divergence": 1.5},
            {"seed": -1},
            {"group_count": 2.0},
            {"seed": None},
            {"seed": 1.5},
            {"seed": "x"},
            {"seed": True},
            {"seed": [1]},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(InvalidConfigError):
            _spec(**overrides)

    def test_accepts_boundary_divergences(self):
        _spec(divergence=0.0)
        _spec(divergence=1.0)
        _spec(divergence=1)


class TestVocabulary:
    def test_padded_and_unique(self):
        vocab = vocabulary(12)
        assert vocab[0] == "op00"
        assert vocab[11] == "op11"
        assert len(set(vocab)) == 12

    def test_width_grows_with_size(self):
        vocab = vocabulary(120)
        assert vocab[0] == "op000"
        assert vocab[119] == "op119"


class TestClassDistributions:
    def test_zero_divergence_is_one_shared_distribution(self):
        malware, benign = class_distributions(_spec(divergence=0.0))
        np.testing.assert_allclose(malware, benign)
        assert malware.sum() == pytest.approx(1.0)

    def test_full_divergence_means_disjoint_supports(self):
        malware, benign = class_distributions(_spec(divergence=1.0))
        assert not np.any((malware > 0) & (benign > 0))
        assert malware.sum() == pytest.approx(1.0)
        assert benign.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_total_variation_tracks_divergence(self, d):
        # For an even vocabulary split, TV distance is d / (2 - d).
        malware, benign = class_distributions(_spec(divergence=d))
        tv = 0.5 * np.abs(malware - benign).sum()
        assert tv == pytest.approx(d / (2 - d))

    def test_total_variation_is_monotone(self):
        values = []
        for d in (0.0, 0.25, 0.5, 0.75, 1.0):
            malware, benign = class_distributions(_spec(divergence=d))
            values.append(0.5 * np.abs(malware - benign).sum())
        assert values == sorted(values)


class TestGenerateSynthetic:
    def test_same_spec_same_corpus(self):
        a = generate_synthetic(_spec())
        b = generate_synthetic(_spec())
        assert a == b

    def test_different_seed_different_corpus(self):
        assert generate_synthetic(_spec()) != generate_synthetic(_spec(seed=124))

    def test_covers_every_cell(self):
        spec = _spec(group_count=3, samples_per_group_per_class=4)
        samples = generate_synthetic(spec)
        width = GroupingConfig().group_size_bytes
        assert len(samples) == 3 * 4 * 2
        assert len({s.id for s in samples}) == len(samples)
        for g in range(3):
            for label in (Label.MALWARE, Label.BENIGN):
                cell = [
                    s
                    for s in samples
                    if s.label is label and g * width <= s.size_bytes < (g + 1) * width
                ]
                assert len(cell) == 4

    def test_histogram_totals_track_file_size(self):
        for sample in generate_synthetic(_spec()):
            assert sum(sample.histogram.entries.values()) == 64 + sample.size_bytes // 64

    def test_disjoint_supports_at_full_divergence(self):
        spec = _spec(divergence=1.0, vocabulary_size=10)
        vocab = vocabulary(10)
        first_half = set(vocab[:5])
        second_half = set(vocab[5:])
        for sample in generate_synthetic(spec):
            support = set(sample.histogram.entries)
            if sample.label is Label.MALWARE:
                assert support <= first_half
            else:
                assert support <= second_half
