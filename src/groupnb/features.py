"""Per-group opcode counting, feature scoring and top-k selection.

count_group reads a group's training histograms once, and everything
training needs comes from that table: an opcode's score is the absolute
difference between its normalized occurrence frequency in the malware
class and in the benign class (score_counts), the k highest-scoring
opcodes become the group's feature set (select_top_k), and every k's
model is fitted from the same counts (classifier.fit_counts). A
FeatureSet holds at least one opcode and none twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import CLASSES, Label, SampleRecord
from .errors import InsufficientClassError, InvalidConfigError, positive_int

__all__ = [
    "FeatureSet",
    "GroupCounts",
    "ScoreTable",
    "count_group",
    "score_opcodes",
    "select_top_k",
]


@dataclass(frozen=True)
class GroupCounts:
    """One group's training histograms, summed per class in one pass.

    opcodes[c] maps every opcode seen in a class-c sample to its total
    count (a key present with count 0 stays); samples[c] is the number
    of class-c samples; unlabeled is the id of the first sample with no
    training label, or None.
    """

    opcodes: dict[Label, dict[str, int]]
    samples: dict[Label, int]
    unlabeled: str | None


@dataclass(frozen=True)
class ScoreTable:
    """Opcode -> |f_malware - f_benign| for one group."""

    scores: dict[str, float]


@dataclass(frozen=True)
class FeatureSet:
    """Top-k opcodes, ordered by descending score then ascending mnemonic.

    At least one opcode and none twice, else InvalidConfigError.
    """

    opcodes: tuple[str, ...]

    def __post_init__(self):
        if not self.opcodes or len(set(self.opcodes)) != len(self.opcodes):
            raise InvalidConfigError("feature set is empty or repeats an opcode")


def count_group(samples: Sequence[SampleRecord]) -> GroupCounts:
    """Sum the opcode counts and count the samples of each class."""
    opcodes: dict[Label, dict[str, int]] = {c: {} for c in CLASSES}
    n_samples = {c: 0 for c in CLASSES}
    unlabeled = None
    for sample in samples:
        counts = opcodes.get(sample.label)
        if counts is None:
            if unlabeled is None:
                unlabeled = sample.id
            continue
        n_samples[sample.label] += 1
        get = counts.get
        for op, n in sample.histogram.entries.items():
            counts[op] = get(op, 0) + n
    return GroupCounts(opcodes, n_samples, unlabeled)


def score_counts(counts: GroupCounts, group: int | None) -> ScoreTable:
    """Score every opcode counted in either class (see score_opcodes)."""
    malware = counts.opcodes[Label.MALWARE]
    benign = counts.opcodes[Label.BENIGN]
    total_m = sum(malware.values())
    total_b = sum(benign.values())
    if total_m == 0:
        raise InsufficientClassError(f"group {group}: no malware opcode occurrences to score")
    if total_b == 0:
        raise InsufficientClassError(f"group {group}: no benign opcode occurrences to score")
    scores = {
        op: abs(malware.get(op, 0) / total_m - benign.get(op, 0) / total_b)
        for op in sorted(malware.keys() | benign.keys())
    }
    return ScoreTable(scores)


def score_opcodes(samples: Sequence[SampleRecord], group: int | None = None) -> ScoreTable:
    """Score every opcode seen in either class of one group's training samples.

    Requires opcode occurrences from both classes; a class that is absent
    (or contributes no opcodes at all) raises InsufficientClassError.
    Samples with no training label are ignored here (train_group rejects
    them).
    """
    return score_counts(count_group(samples), group)


def select_top_k(table: ScoreTable, k: int) -> FeatureSet:
    """Deterministic top-k: score descending, ties broken by mnemonic ascending.

    If fewer than k opcodes were scored, all of them are returned.
    """
    positive_int("k", k)
    ordered = sorted(table.scores.items(), key=lambda item: (-item[1], item[0]))
    return FeatureSet(tuple(op for op, _ in ordered[:k]))
