"""Seeded synthetic corpus generator.

Stands in for a real labeled binary collection: each class draws opcode
counts from its own categorical distribution over a shared vocabulary,
and a divergence knob controls how far apart the two distributions are.
At divergence 0 the classes are indistinguishable; at 1 their supports
are disjoint, so a trained classifier can reach perfect held-out
accuracy. Same spec and seed always produce the same corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import GroupingConfig, Label, OpcodeHistogram, SampleRecord
from .errors import InvalidConfigError, non_negative_int, positive_int

__all__ = [
    "SyntheticSpec",
    "class_distributions",
    "generate_synthetic",
]

# Floor plus per-64-bytes growth, so opcode volume tracks file size the
# way instruction counts track binary size.
_BASE_DRAWS = 64
_BYTES_PER_DRAW = 64


@dataclass(frozen=True)
class SyntheticSpec:
    group_count: int
    samples_per_group_per_class: int
    vocabulary_size: int
    divergence: float
    seed: int

    def __post_init__(self):
        positive_int("group_count", self.group_count)
        positive_int("samples_per_group_per_class", self.samples_per_group_per_class)
        vocabulary_size = self.vocabulary_size
        if not isinstance(vocabulary_size, int) or isinstance(vocabulary_size, bool):
            raise InvalidConfigError(f"vocabulary_size must be an integer, got {vocabulary_size!r}")
        if vocabulary_size < 2:
            raise InvalidConfigError(f"vocabulary_size must be at least 2, got {vocabulary_size}")
        non_negative_int("seed", self.seed)
        d = self.divergence
        if not isinstance(d, (int, float)) or isinstance(d, bool) or not (0.0 <= d <= 1.0):
            raise InvalidConfigError(f"divergence must be a real in [0, 1], got {d!r}")


def vocabulary(size: int) -> tuple[str, ...]:
    """Deterministic mnemonic tokens: op00, op01, ... (zero-padded)."""
    width = max(2, len(str(size - 1)))
    return tuple(f"op{i:0{width}d}" for i in range(size))


def class_distributions(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-class categorical distributions over the vocabulary.

    The vocabulary is split into two halves; malware weights the first
    half 1 and the second 1 - divergence, benign is the mirror image.
    With equal halves the total-variation distance between the two
    distributions is d / (2 - d): 0 when d=0 (one shared distribution)
    and 1 when d=1 (disjoint supports).
    """
    size = spec.vocabulary_size
    cut = math.ceil(size / 2)
    low = 1.0 - spec.divergence
    malware = np.full(size, low)
    malware[:cut] = 1.0
    benign = np.full(size, low)
    benign[cut:] = 1.0
    return malware / malware.sum(), benign / benign.sum()


def generate_synthetic(spec: SyntheticSpec) -> list[SampleRecord]:
    """Draw a labeled corpus covering groups 0..group_count-1 of the default GroupingConfig.

    Every (group, class) cell gets samples_per_group_per_class records;
    sizes are uniform within the group's byte range and each histogram
    is a multinomial draw whose total count grows with the file size.
    """
    group_size_bytes = GroupingConfig.group_size_bytes
    vocab = vocabulary(spec.vocabulary_size)
    probs_malware, probs_benign = class_distributions(spec)
    rng = np.random.default_rng(spec.seed)
    samples: list[SampleRecord] = []
    for g in range(spec.group_count):
        lo = g * group_size_bytes
        hi = (g + 1) * group_size_bytes  # exclusive, so the sample stays in group g
        for label, prefix, probs in (
            (Label.MALWARE, "m", probs_malware),
            (Label.BENIGN, "b", probs_benign),
        ):
            for j in range(spec.samples_per_group_per_class):
                size = int(rng.integers(lo, hi))
                draws = _BASE_DRAWS + size // _BYTES_PER_DRAW
                counts = rng.multinomial(draws, probs)
                entries = {vocab[i]: int(n) for i, n in enumerate(counts) if n}
                samples.append(
                    SampleRecord(
                        id=f"{prefix}{g:03d}-{j:04d}",
                        label=label,
                        size_bytes=size,
                        histogram=OpcodeHistogram.from_counts(entries),
                    )
                )
    return samples
