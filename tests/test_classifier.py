"""Multinomial model training and log-space scoring."""

import dataclasses
import decimal
import math
import random

import numpy as np
import pytest

from groupnb.corpus import Label, OpcodeHistogram
from groupnb.errors import (
    BundleValidationError, InsufficientClassError, IntegrityError, InvalidConfigError,
)
from groupnb.features import FeatureSet
from groupnb.classifier import (
    log_posterior,
    normalized_posterior,
    predict,
    train_group,
)

from helpers import make_sample, seeded_group


def _example_model(alpha=1.0):
    """One malware sample {a:2}, one benign sample {b:2}, features (a, b)."""
    samples = [
        make_sample("m", Label.MALWARE, 10, {"a": 2}),
        make_sample("b", Label.BENIGN, 11, {"b": 2}),
    ]
    return train_group(samples, FeatureSet(("a", "b")), alpha, group=3)


class TestTrainGroup:
    def test_worked_example(self):
        model = _example_model()
        assert model.group == 3
        assert model.log_prior[Label.MALWARE] == pytest.approx(math.log(0.5))
        assert model.log_prior[Label.BENIGN] == pytest.approx(math.log(0.5))
        # theta(a|M) = (2+1)/(2+2), theta(b|M) = (0+1)/(2+2), mirrored for B
        assert model.log_likelihood[Label.MALWARE][0] == pytest.approx(math.log(3 / 4))
        assert model.log_likelihood[Label.MALWARE][1] == pytest.approx(math.log(1 / 4))
        assert model.log_likelihood[Label.BENIGN][0] == pytest.approx(math.log(1 / 4))
        assert model.log_likelihood[Label.BENIGN][1] == pytest.approx(math.log(3 / 4))

    def test_identical_classes_give_identical_likelihoods(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 3, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 3, "b": 1}),
        ]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        assert model.log_likelihood[Label.MALWARE] == model.log_likelihood[Label.BENIGN]

    def test_unseen_class_smooths_to_uniform(self):
        # Malware has no feature occurrences at all: theta = 1/|features|.
        samples = [
            make_sample("m", Label.MALWARE, 10, {"zzz": 5}),
            make_sample("b", Label.BENIGN, 11, {"a": 2, "b": 1}),
        ]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        assert model.log_likelihood[Label.MALWARE][0] == pytest.approx(math.log(0.5))
        assert model.log_likelihood[Label.MALWARE][1] == pytest.approx(math.log(0.5))

    def test_counts_restricted_to_features(self):
        # Off-feature opcodes must not leak into the denominator.
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 2, "noise": 100}),
            make_sample("b", Label.BENIGN, 11, {"b": 2}),
        ]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        assert model.log_likelihood[Label.MALWARE][0] == pytest.approx(math.log(3 / 4))

    def test_prior_follows_class_counts(self):
        samples = [
            make_sample(f"m{i}", Label.MALWARE, 10 + i, {"a": 1}) for i in range(3)
        ] + [make_sample("b0", Label.BENIGN, 20, {"b": 1})]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        assert model.log_prior[Label.MALWARE] == pytest.approx(math.log(3 / 4))
        assert model.log_prior[Label.BENIGN] == pytest.approx(math.log(1 / 4))

    def test_error_cases(self):
        only_malware = [make_sample("m", Label.MALWARE, 10, {"a": 1})]
        with pytest.raises(InsufficientClassError):
            train_group(only_malware, FeatureSet(("a",)), 1.0)
        both = [
            make_sample("m", Label.MALWARE, 10, {"a": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1}),
        ]
        with pytest.raises(InvalidConfigError):
            train_group(both, FeatureSet(()), 1.0)
        for opcodes in ("a", "ab", ["a"], None):  # a str would give one opcode per letter
            with pytest.raises(InvalidConfigError, match="^opcodes must be a tuple, got "):
                FeatureSet(opcodes)
        with pytest.raises(InvalidConfigError):
            train_group(both, FeatureSet(("a",)), 0.0)
        with pytest.raises(InvalidConfigError):
            train_group(both, FeatureSet(("a",)), -1.0)

    def test_alpha_must_stay_finite(self):
        """alpha * |features| must be finite too; test_engine's one alpha rule covers alpha alone."""
        both = [
            make_sample("m", Label.MALWARE, 10, {"a": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1}),
        ]
        # 1e308 alone is finite; alpha * |features| = 2e308 is not.
        with pytest.raises(InvalidConfigError, match="alpha"):
            train_group(both, FeatureSet(("a", "b")), 1e308)

    def test_alpha_too_small_for_a_likelihood(self):
        # 5e-324 / 3 rounds to 0.0 for the opcode the malware class lacks.
        both = [
            make_sample("m", Label.MALWARE, 10, {"a": 3}),
            make_sample("b", Label.BENIGN, 11, {"b": 3}),
        ]
        with pytest.raises(InvalidConfigError, match="^alpha 5e-324 is too small: a smoothed "
                                                     "malware likelihood of group 7 underflows"):
            train_group(both, FeatureSet(("a", "b")), 5e-324, group=7)

    def test_class_total_must_fit_a_float(self):
        # Each count converts to float; their malware total (6e308) does not.
        samples = [make_sample(f"m{i}", Label.MALWARE, 10, {"evil": 10**308}) for i in range(6)]
        samples.append(make_sample("b", Label.BENIGN, 11, {"mov": 3}))
        with pytest.raises(IntegrityError, match="^group 4: malware feature total"):
            train_group(samples, FeatureSet(("evil", "mov")), group=4)

    def test_total_plus_smoothing_must_stay_finite(self):
        # The benign total fits a float, and so does alpha * 2, but not their sum.
        samples = [
            make_sample("m", Label.MALWARE, 10, {"evil": 1}),
            make_sample("b", Label.BENIGN, 11, {"mov": int(1.7e308)}),
        ]
        with pytest.raises(IntegrityError, match="^group 5: benign feature total"):
            train_group(samples, FeatureSet(("evil", "mov")), 1e307, group=5)

    def test_matches_double_loop_oracle_exactly(self):
        rng = random.Random(17)
        for _ in range(100):
            samples = seeded_group(rng)
            pool = sorted({op for s in samples for op in s.histogram.entries} | {"absent"})
            features = FeatureSet(tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            alpha = rng.choice([1, 0.5, 2.0, 1e-3, 3.7])
            model = train_group(samples, features, alpha, group=2)
            expected = _oracle_log_likelihood(samples, features.opcodes, alpha)
            assert {
                c.value: {op: v.hex() for op, v in zip(features.opcodes, row)}
                for c, row in model.log_likelihood.items()
            } == expected
            n = {c: sum(1 for s in samples if s.label is c) for c in (Label.MALWARE, Label.BENIGN)}
            assert {c: v.hex() for c, v in model.log_prior.items()} == {
                c: math.log(n[c] / len(samples)).hex() for c in n
            }

    def test_model_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        pool = ["a", "b", "c", "d", "e", "f"]
        for _ in range(30):
            features = FeatureSet(
                tuple(rng.choice(pool, size=int(rng.integers(1, 6)), replace=False))
            )
            samples = []
            for i in range(int(rng.integers(2, 9))):
                label = Label.MALWARE if i % 2 else Label.BENIGN
                ops = {
                    op: int(rng.integers(0, 20))
                    for op in rng.choice(pool, size=3, replace=False)
                }
                ops = {op: n for op, n in ops.items() if n} or {"a": 1}
                samples.append(make_sample(f"s{i}", label, 50 + i, ops))
            model = train_group(samples, features, float(rng.integers(1, 4)))
            assert abs(sum(math.exp(p) for p in model.log_prior.values()) - 1.0) < 1e-9
            for row in model.log_likelihood.values():
                assert abs(sum(math.exp(v) for v in row) - 1.0) < 1e-9
                assert all(math.isfinite(v) for v in row)


class TestLogPosterior:
    def test_worked_example(self):
        model = _example_model()
        scores = log_posterior(model, OpcodeHistogram.from_counts({"a": 1}))
        assert scores[Label.MALWARE] == pytest.approx(math.log(1 / 2) + math.log(3 / 4))
        assert scores[Label.BENIGN] == pytest.approx(math.log(1 / 2) + math.log(1 / 4))

    def test_empty_histogram_scores_the_priors(self):
        model = _example_model()
        scores = log_posterior(model, OpcodeHistogram.from_counts({}))
        assert scores[Label.MALWARE] == model.log_prior[Label.MALWARE]
        assert scores[Label.BENIGN] == model.log_prior[Label.BENIGN]

    def test_non_feature_opcodes_are_ignored(self):
        model = _example_model()
        scores = log_posterior(model, OpcodeHistogram.from_counts({"zzz": 50}))
        assert scores[Label.MALWARE] == model.log_prior[Label.MALWARE]
        assert scores[Label.BENIGN] == model.log_prior[Label.BENIGN]

    def test_counts_scale_the_likelihood_terms(self):
        model = _example_model()
        scores = log_posterior(model, OpcodeHistogram.from_counts({"a": 2, "b": 3}))
        expected_m = math.log(1 / 2) + 2 * math.log(3 / 4) + 3 * math.log(1 / 4)
        assert scores[Label.MALWARE] == pytest.approx(expected_m)

    def test_no_nan_or_negative_infinity(self):
        model = _example_model()
        rng = np.random.default_rng(19)
        for _ in range(50):
            ops = {
                op: int(rng.integers(1, 10_000))
                for op in ("a", "b", "huge")
                if rng.integers(2)
            }
            scores = log_posterior(model, OpcodeHistogram.from_counts(ops))
            for value in scores.values():
                assert math.isfinite(value)


# Zeros that are not an int or a float. Beside -800.0 (whose exp is 0.0)
# each makes a distribution, so only the number rule refuses it.
_ZEROS_OF_OTHER_TYPES = (False, np.int64(0), decimal.Decimal(0))


class TestGroupModel:
    def test_likelihood_rows_must_cover_every_feature(self):
        model = _example_model()
        partial = {Label.MALWARE: (-0.5,), Label.BENIGN: model.log_likelihood[Label.BENIGN]}
        with pytest.raises(BundleValidationError, match="^model for group 3: malware likelihoods "
                                                        "are not a tuple of one value per feature$"):
            dataclasses.replace(model, log_likelihood=partial)

    @pytest.mark.parametrize("row", [
        (math.log(0.5), math.log(0.25), math.log(0.25)),
        {"a": math.log(0.5), "b": math.log(0.5)},
        [math.log(0.5), math.log(0.5)],
    ], ids=["one-long", "dict", "list"])
    def test_a_row_is_a_tuple_of_one_value_per_feature(self, row):
        """Features (a, b): each row is a distribution, but only a 2-tuple is a row."""
        model = _example_model()
        with pytest.raises(BundleValidationError, match="^model for group 3: benign likelihoods "
                                                        "are not a tuple of one value per feature$"):
            dataclasses.replace(model, log_likelihood={**model.log_likelihood, Label.BENIGN: row})

    @pytest.mark.parametrize("change,message", [
        ({"log_prior": {Label.MALWARE: "x", Label.BENIGN: math.log(0.5)}},
         "priors are not all numbers"),
        ({"log_likelihood": {Label.MALWARE: ("x", math.log(0.5)),
                             Label.BENIGN: (math.log(0.5), math.log(0.5))}},
         "malware likelihoods are not all numbers"),
        ({"log_likelihood": [1, 2]}, "log_likelihood is not a mapping of class to values"),
        ({"log_prior": None}, "log_prior is not a mapping of class to values"),
        ({"features": ("a", "b")}, "features is not a FeatureSet"),
        *[({"log_prior": {Label.MALWARE: zero, Label.BENIGN: -800.0}},
           "priors are not all numbers") for zero in _ZEROS_OF_OTHER_TYPES],
        *[({"log_likelihood": {Label.MALWARE: (zero, -800.0), Label.BENIGN: (-800.0, 0.0)}},
           "malware likelihoods are not all numbers") for zero in _ZEROS_OF_OTHER_TYPES],
    ], ids=["str-prior", "str-likelihood", "list-likelihoods", "no-priors", "tuple-features",
            "bool-prior", "int64-prior", "decimal-prior",
            "bool-likelihood", "int64-likelihood", "decimal-likelihood"])
    def test_a_field_of_the_wrong_type_is_a_validation_error(self, change, message):
        with pytest.raises(BundleValidationError, match=f"^model for group 3: {message}$"):
            dataclasses.replace(_example_model(), **change)

    def test_values_are_stored_as_floats_keyed_by_the_two_classes(self):
        model = dataclasses.replace(
            _example_model(),
            log_prior={Label.MALWARE: 0, Label.BENIGN: np.float64(-800.0), Label.UNKNOWN: "x"},
            log_likelihood={Label.MALWARE: (np.float64(-0.0), -800),
                            Label.BENIGN: (-800.0, 0), Label.UNKNOWN: None})
        assert model.log_prior == {Label.MALWARE: 0.0, Label.BENIGN: -800.0}
        assert model.log_likelihood == {Label.MALWARE: (0.0, -800.0), Label.BENIGN: (-800.0, 0.0)}
        values = [*model.log_prior.values(), *model.log_likelihood[Label.MALWARE],
                  *model.log_likelihood[Label.BENIGN]]
        assert [type(v) for v in values] == [float] * 6
        assert model.log_likelihood[Label.MALWARE][0].hex() == "-0x0.0p+0"


class TestPredict:
    def test_overflowing_log_score_is_an_integrity_error(self):
        """As the batch kernel fails such a sample; log_posterior still returns the raw sums."""
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 2, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"b": 1, "c": 2}),
        ]
        model = train_group(samples, FeatureSet(("a", "b", "c")), 1.0, group=3)
        histogram = OpcodeHistogram.from_counts(dict.fromkeys("abc", 10**308))
        assert log_posterior(model, histogram) == {
            Label.MALWARE: -math.inf, Label.BENIGN: -math.inf}
        with pytest.raises(IntegrityError, match="group 3: log-score is not a finite float"):
            predict(model, histogram)

    def test_malware_when_strictly_higher(self):
        model = _example_model()
        prediction = predict(model, OpcodeHistogram.from_counts({"a": 1}))
        assert prediction.label is Label.MALWARE
        assert prediction.effective_group == 3

    def test_benign_on_exact_tie(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 1, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1, "b": 1}),
        ]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        prediction = predict(model, OpcodeHistogram.from_counts({"a": 4}))
        assert prediction.log_posterior[Label.MALWARE] == prediction.log_posterior[Label.BENIGN]
        assert prediction.label is Label.BENIGN

    def test_benign_side_of_the_example(self):
        prediction = predict(_example_model(), OpcodeHistogram.from_counts({"b": 5}))
        assert prediction.label is Label.BENIGN

    def test_duplicating_training_samples_changes_nothing(self):
        # Tripling every sample triples all counts; scaling alpha by the
        # same factor keeps every theta exactly equal, so predictions
        # must match bit for bit, not just in label.
        base = [
            make_sample("m", Label.MALWARE, 10, {"a": 5, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1, "b": 7}),
        ]
        features = FeatureSet(("a", "b"))
        model_1 = train_group(base, features, 1.0)
        tripled = [
            make_sample(f"{s.id}-{i}", s.label, s.size_bytes, dict(s.histogram.entries))
            for s in base
            for i in range(3)
        ]
        model_3 = train_group(tripled, features, 3.0)
        assert model_1.log_prior == model_3.log_prior
        rng = np.random.default_rng(7)
        for _ in range(30):
            ops = {op: int(rng.integers(0, 9)) for op in ("a", "b")}
            ops = {op: n for op, n in ops.items() if n}
            histogram = OpcodeHistogram.from_counts(ops)
            first = predict(model_1, histogram)
            third = predict(model_3, histogram)
            assert first.label is third.label
            assert first.log_posterior == pytest.approx(third.log_posterior)

    def test_training_is_deterministic(self):
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 5, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1, "b": 7}),
        ]
        features = FeatureSet(("b", "a"))
        a = train_group(samples, features, 1.0)
        b = train_group(samples, features, 1.0)
        assert a == b
        histogram = OpcodeHistogram.from_counts({"a": 3, "b": 2})
        assert log_posterior(a, histogram) == log_posterior(b, histogram)


class TestNormalizedPosterior:
    def test_sums_to_one_and_orders_like_the_scores(self):
        model = _example_model()
        rng = np.random.default_rng(43)
        for _ in range(30):
            ops = {op: int(rng.integers(0, 12)) for op in ("a", "b")}
            ops = {op: n for op, n in ops.items() if n}
            scores = log_posterior(model, OpcodeHistogram.from_counts(ops))
            posterior = normalized_posterior(scores)
            assert sum(posterior.values()) == pytest.approx(1.0)
            ranked_scores = sorted(scores, key=scores.get)
            ranked_posterior = sorted(posterior, key=posterior.get)
            assert ranked_scores == ranked_posterior


    @pytest.mark.parametrize("scores", [
        (-math.inf, -math.inf), (math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0),
        (-1.0, -math.inf),
    ], ids=["both-minus-inf", "plus-inf-malware", "plus-inf-benign", "nan", "one-minus-inf"])
    def test_non_finite_score_is_an_integrity_error(self, scores):
        """As predict rejects such scores, rather than returning nan probabilities."""
        with pytest.raises(IntegrityError, match="^log-score is not a finite float$"):
            normalized_posterior(dict(zip((Label.MALWARE, Label.BENIGN), scores)))


def _oracle_log_likelihood(samples, features, alpha):
    """ln theta(c, o) by a loop over classes, features and samples, as float.hex."""
    out = {}
    for c in (Label.MALWARE, Label.BENIGN):
        counts = {
            op: sum(s.histogram.entries.get(op, 0) for s in samples if s.label is c)
            for op in features
        }
        denom = sum(counts.values()) + alpha * len(features)
        out[c.value] = {op: math.log((counts[op] + alpha) / denom).hex() for op in features}
    return out
