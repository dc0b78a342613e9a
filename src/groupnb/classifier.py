"""Multinomial Naive Bayes over a group's selected opcode features.

Training and scoring work entirely in log space with Laplace smoothing,
so no feature/class pair ever scores -inf. Opcodes outside the feature
set are ignored at both train and predict time. A model is fitted from
a group's counted samples (fit_counts over features.count_group), so
one count serves every feature set; train_group counts and fits in one
call. A model holds each class's likelihoods as a row in feature order.
A GroupModel checks its own invariants when built, so a fitted model
and a loaded one pass the same checks; _distribution is the one rule for
a prior or likelihood value, and the model stores each as a float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import CLASSES, Label, OpcodeHistogram, SampleRecord
from .errors import (BundleValidationError, InsufficientClassError, IntegrityError,
                     InvalidConfigError, non_negative_int)
from .features import FeatureSet, GroupCounts, count_group

__all__ = [
    "GroupModel",
    "Prediction",
    "log_posterior",
    "normalized_posterior",
    "predict",
    "train_group",
]


def checked_alpha(alpha) -> float:
    """alpha as a float; InvalidConfigError unless a positive, finite int or float (not bool)."""
    if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
            and 0 < alpha <= sys.float_info.max):
        raise InvalidConfigError(f"alpha must be positive and finite, got {alpha!r}")
    return float(alpha)


# The IntegrityError text of a sample whose log-score is not a finite float.
NON_FINITE_SCORE = "log-score is not a finite float"

# How far the exps of a model's log priors, or of one likelihood row, may sum from 1.
_SUM_TOLERANCE = 1e-9


def _distribution(values: Sequence, where: str, what: str) -> tuple[float, ...]:
    """The values as floats; BundleValidationError unless each is an int or a float
    (np.float64 too), not a bool, that converts to a finite float, and their exps sum to 1.
    """
    if not {*map(type, values)} <= {float}:
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise BundleValidationError(f"{where}: {what} are not all numbers")
        try:
            values = tuple(map(float, values))
        except OverflowError:
            raise BundleValidationError(
                f"{where}: {what} hold an integer too large for a float") from None
    if not all(map(math.isfinite, values)):
        raise BundleValidationError(f"{where}: non-finite {what}")
    try:
        total = sum(map(math.exp, values))
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise BundleValidationError(f"{where}: {what} sum to {total!r}, not 1")
    return tuple(values)


@dataclass(frozen=True)
class GroupModel:
    """Trained Naive Bayes parameters for one size group.

    log_prior exponentiates to class probabilities summing to 1;
    log_likelihood[c] is class c's row of ln theta(c, f), a tuple with
    one value per feature, in feature order, whose exps sum to 1. The
    constructor checks this, a non-negative integer group, a FeatureSet
    and two mappings whose values are ints or floats, not bools (else
    BundleValidationError naming the group). It keeps read-only mappings
    of float copies, keyed by the two CLASSES only; alpha is the bundle's.
    """

    group: int
    features: FeatureSet
    log_prior: Mapping[Label, float]
    log_likelihood: Mapping[Label, tuple[float, ...]]

    def __post_init__(self):
        where = f"model for group {self.group}"
        try:
            non_negative_int("group", self.group)
        except InvalidConfigError as exc:
            raise BundleValidationError(f"{where}: {exc}") from None
        if not isinstance(self.features, FeatureSet):
            raise BundleValidationError(f"{where}: features is not a FeatureSet")
        for name in ("log_prior", "log_likelihood"):
            if not isinstance(getattr(self, name), Mapping):
                raise BundleValidationError(f"{where}: {name} is not a mapping of class to values")
        priors = _distribution([self.log_prior.get(c, math.nan) for c in CLASSES], where, "priors")
        rows = {}
        for c in CLASSES:
            row = self.log_likelihood.get(c)
            if not isinstance(row, tuple) or len(row) != len(self.features.opcodes):
                raise BundleValidationError(f"{where}: {c.value} likelihoods are not a tuple "
                                            "of one value per feature")
            rows[c] = _distribution(row, where, f"{c.value} likelihoods")
        object.__setattr__(self, "log_prior", MappingProxyType(dict(zip(CLASSES, priors))))
        object.__setattr__(self, "log_likelihood", MappingProxyType(rows))


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
    alpha = checked_alpha(alpha)
    n_features = len(features.opcodes)
    if not math.isfinite(alpha * n_features):
        raise InvalidConfigError(f"alpha * {n_features} features is not finite, got {alpha!r}")

    n_samples = counts.samples
    for c in CLASSES:
        if n_samples[c] == 0:
            raise InsufficientClassError(
                f"group {group}: no {c.value} samples to train on"
            )

    n_total = n_samples[Label.MALWARE] + n_samples[Label.BENIGN]
    log_prior = {c: math.log(n_samples[c] / n_total) for c in CLASSES}

    log_likelihood: dict[Label, tuple[float, ...]] = {}
    for c in CLASSES:
        class_counts = counts.opcodes[c]
        feature_counts = [class_counts.get(op, 0) for op in features.opcodes]
        try:
            denom = sum(feature_counts) + alpha * n_features
        except OverflowError:  # the integer total alone does not fit a float
            denom = math.inf
        if not math.isfinite(denom):
            raise IntegrityError(
                f"group {group}: {c.value} feature total plus alpha * {n_features} "
                "is not a finite float"
            )
        try:
            log_likelihood[c] = tuple(math.log((n + alpha) / denom) for n in feature_counts)
        except ValueError:  # (count + alpha) / denom underflowed to 0
            raise InvalidConfigError(
                f"alpha {alpha!r} is too small: a smoothed {c.value} likelihood of group "
                f"{group} underflows to 0"
            ) from None

    return GroupModel(group, features, log_prior, log_likelihood)


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
    get = histogram.entries.get
    for op, ll_m, ll_b in zip(model.features.opcodes, model.log_likelihood[Label.MALWARE],
                              model.log_likelihood[Label.BENIGN]):
        n = get(op)
        if n is not None:
            score_m += n * ll_m
            score_b += n * ll_b
    return {Label.MALWARE: score_m, Label.BENIGN: score_b}


def predict(model: GroupModel, histogram: OpcodeHistogram) -> Prediction:
    """Classify one histogram: malware iff its log-score is strictly higher.

    A log-score that overflows the float range raises IntegrityError, the
    failure the batch kernel records for that sample.
    """
    scores = log_posterior(model, histogram)
    if not all(map(math.isfinite, scores.values())):
        raise IntegrityError(f"group {model.group}: {NON_FINITE_SCORE}")
    return decide(scores[Label.MALWARE], scores[Label.BENIGN], model.group)


def decide(score_m: float, score_b: float, group: int) -> Prediction:
    """The Prediction of predict and the batch kernel: malware iff strictly higher, ties benign."""
    label = Label.MALWARE if score_m > score_b else Label.BENIGN
    return Prediction(label, {Label.MALWARE: score_m, Label.BENIGN: score_b}, group)


def normalized_posterior(scores: Mapping[Label, float]) -> dict[Label, float]:
    """Diagnostic accessor: exponentiate-and-normalize joint log-scores.

    A score that is not a finite float raises IntegrityError, as in predict.
    """
    if not all(map(math.isfinite, scores.values())):
        raise IntegrityError(NON_FINITE_SCORE)
    peak = max(scores.values())
    exps = {c: math.exp(s - peak) for c, s in scores.items()}
    total = sum(exps.values())
    return {c: e / total for c, e in exps.items()}
