"""Multinomial Naive Bayes over a group's selected opcode features.

Training and scoring work entirely in log space with Laplace smoothing,
so no feature/class pair ever scores -inf. Opcodes outside the feature
set are ignored at both train and predict time. A model is fitted from
a group's counted samples (fit_counts over features.count_group), so
one count serves every feature set; train_group counts and fits in one
call. A GroupModel checks its own invariants when built, so a fitted
model and a loaded one pass the same checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import CLASSES, Label, OpcodeHistogram, SampleRecord
from .errors import BundleValidationError, InsufficientClassError, IntegrityError, InvalidConfigError
from .features import FeatureSet, GroupCounts, count_group

__all__ = [
    "GroupModel",
    "Prediction",
    "log_posterior",
    "normalized_posterior",
    "predict",
    "train_group",
]


def valid_alpha(alpha) -> bool:
    """True for a positive, finite int or float smoothing pseudo-count (bool excluded)."""
    return (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
            and 0 < alpha <= sys.float_info.max)


# How far the exps of a model's log priors, or of one likelihood row, may sum from 1.
_SUM_TOLERANCE = 1e-9


def _check_distribution(log_values: list[float], where: str, what: str) -> None:
    """BundleValidationError unless every value is finite and their exps sum to 1."""
    if not all(map(math.isfinite, log_values)):
        raise BundleValidationError(f"{where}: non-finite {what}")
    try:
        total = sum(map(math.exp, log_values))
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise BundleValidationError(f"{where}: {what} sum to {total!r}, not 1")


@dataclass(frozen=True)
class GroupModel:
    """Trained Naive Bayes parameters for one size group.

    log_prior exponentiates to class probabilities summing to 1;
    log_likelihood holds ln theta(class, opcode) for exactly the
    features, and exp of each class's row sums to 1. The constructor
    checks this, a positive finite alpha and a training sample of each
    class, and raises BundleValidationError otherwise.
    """

    group: int
    features: FeatureSet
    log_prior: dict[Label, float]
    log_likelihood: dict[Label, dict[str, float]]
    alpha: float
    train_counts: dict[Label, int]

    def __post_init__(self):
        where = f"model for group {self.group}"
        features = self.features.opcodes
        if not valid_alpha(self.alpha):
            raise BundleValidationError(f"{where}: alpha must be positive and finite")
        _check_distribution([self.log_prior.get(c, math.nan) for c in CLASSES], where, "priors")
        for c in CLASSES:
            if self.train_counts.get(c, 0) < 1:
                raise BundleValidationError(f"{where}: no {c.value} training samples recorded")
            row = self.log_likelihood.get(c, {})
            for op in features:
                if op not in row:
                    raise BundleValidationError(f"{where}: log_likelihood missing feature {op!r}")
            if len(row) != len(features):
                raise BundleValidationError(f"{where}: {c.value} likelihoods hold a non-feature")
            _check_distribution([row[op] for op in features], where, f"{c.value} likelihoods")


@dataclass(frozen=True)
class Prediction:
    """Classification verdict plus the unnormalized joint log-scores.

    label is MALWARE iff the malware score is strictly higher; ties go
    to BENIGN. effective_group is the group whose model produced it.
    """

    label: Label
    log_posterior: dict[Label, float]
    effective_group: int


def train_group(
    samples: Sequence[SampleRecord],
    features: FeatureSet,
    alpha: float = 1.0,
    *,
    group: int = 0,
) -> GroupModel:
    """Train one group's model on its training samples (see fit_counts)."""
    return fit_counts(count_group(samples), features, alpha, group=group)


def fit_counts(counts: GroupCounts, features: FeatureSet, alpha: float, *, group: int) -> GroupModel:
    """Fit one group's model from its counted training samples.

    Priors are sample-count fractions; likelihoods are smoothed count
    fractions restricted to the feature set:

        theta(c, o) = (count_c(o) + alpha) / (total_c + alpha * |features|)

    where total_c sums counts over the feature set only. alpha must be
    positive and finite, and so must alpha * |features| (else
    InvalidConfigError); so must total_c + alpha * |features| (else
    IntegrityError, a data error). An alpha so small that a smoothed
    likelihood underflows to 0 raises InvalidConfigError.
    """
    if not valid_alpha(alpha):
        raise InvalidConfigError(f"alpha must be positive and finite, got {alpha!r}")
    n_features = len(features.opcodes)
    alpha = float(alpha)
    if not math.isfinite(alpha * n_features):
        raise InvalidConfigError(f"alpha * {n_features} features is not finite, got {alpha!r}")
    if counts.unlabeled is not None:
        raise IntegrityError(f"sample {counts.unlabeled!r} has no training label")

    n_samples = counts.samples
    for c in CLASSES:
        if n_samples[c] == 0:
            raise InsufficientClassError(
                f"group {group}: no {c.value} samples to train on"
            )

    n_total = n_samples[Label.MALWARE] + n_samples[Label.BENIGN]
    log_prior = {c: math.log(n_samples[c] / n_total) for c in CLASSES}

    log_likelihood: dict[Label, dict[str, float]] = {}
    for c in CLASSES:
        class_counts = counts.opcodes[c]
        feature_counts = {op: class_counts.get(op, 0) for op in features.opcodes}
        try:
            denom = sum(feature_counts.values()) + alpha * n_features
        except OverflowError:  # the integer total alone does not fit a float
            denom = math.inf
        if not math.isfinite(denom):
            raise IntegrityError(
                f"group {group}: {c.value} feature total plus alpha * {n_features} "
                "is not a finite float"
            )
        try:
            log_likelihood[c] = {
                op: math.log((feature_counts[op] + alpha) / denom) for op in features.opcodes
            }
        except ValueError:  # (count + alpha) / denom underflowed to 0
            raise InvalidConfigError(
                f"alpha {alpha!r} is too small: a smoothed {c.value} likelihood of group "
                f"{group} underflows to 0"
            ) from None

    return GroupModel(group, features, log_prior, log_likelihood, alpha, dict(n_samples))


def log_posterior(model: GroupModel, histogram: OpcodeHistogram) -> dict[Label, float]:
    """Unnormalized joint log-score per class.

    score(c) = log_prior(c) + sum over features of count(o) * ln theta(c, o).
    The evidence term is class-constant and intentionally omitted; use
    normalized_posterior for actual probabilities. Opcodes outside the
    feature set contribute nothing. Terms are added in feature order,
    straight from the log_likelihood rows; the batch kernel in engine
    reproduces this sum bit for bit, and this scalar form is its oracle.
    """
    score_m = model.log_prior[Label.MALWARE]
    score_b = model.log_prior[Label.BENIGN]
    ll_m = model.log_likelihood[Label.MALWARE]
    ll_b = model.log_likelihood[Label.BENIGN]
    get = histogram.entries.get
    for op in model.features.opcodes:
        n = get(op)
        if n is not None:
            score_m += n * ll_m[op]
            score_b += n * ll_b[op]
    return {Label.MALWARE: score_m, Label.BENIGN: score_b}


def predict(model: GroupModel, histogram: OpcodeHistogram) -> Prediction:
    """Classify one histogram: malware iff its log-score is strictly higher.

    A log-score that overflows the float range raises IntegrityError, the
    failure the batch kernel records for that sample.
    """
    scores = log_posterior(model, histogram)
    if not all(map(math.isfinite, scores.values())):
        raise IntegrityError(f"group {model.group}: log-score is not a finite float")
    if scores[Label.MALWARE] > scores[Label.BENIGN]:
        label = Label.MALWARE
    else:
        label = Label.BENIGN
    return Prediction(label=label, log_posterior=scores, effective_group=model.group)


def normalized_posterior(scores: Mapping[Label, float]) -> dict[Label, float]:
    """Diagnostic accessor: exponentiate-and-normalize joint log-scores.

    A score that is not a finite float raises IntegrityError, as in predict.
    """
    if not all(map(math.isfinite, scores.values())):
        raise IntegrityError("log-score is not a finite float")
    peak = max(scores.values())
    exps = {c: math.exp(s - peak) for c, s in scores.items()}
    total = sum(exps.values())
    return {c: e / total for c, e in exps.items()}
