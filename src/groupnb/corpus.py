"""Corpus ingestion, size grouping, and stratified train/test splitting.

A corpus is a set of labeled executables, each reduced to its opcode
histogram and file size. Executables are bucketed into fixed-width size
groups (5120 bytes wide by default, 100 groups below the 512000-byte
cutoff) and every group later gets its own feature set and model.

All functions here are pure transformations; returned objects are not
mutated afterwards and are safe to share across worker processes.

It is the one reader of line files: _documents (blank lines and JSON)
and _record_header (id and label) serve corpus and prediction files.

parse_corpus decodes a block of JSONL lines with one json.loads call
over the lines joined as a JSON array, when every line's first
character that is not JSON whitespace is "{" and no line holds "[".
With the separator "\n," between lines, an array of one element per
line holds exactly each line's document:

- A raw newline is not allowed inside a JSON string, so no separator
  can sit inside a string.
- The comma cannot sit in a nested object, because an object needs a
  key after a comma, and the next line starts with "{".
- The comma cannot sit in a nested array, because with no "[" there
  is none.
- So every separator is top-level, and equal counts mean one document
  per line.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    IntegrityError, InvalidConfigError, ParseError, SizeRangeError, non_negative_int, positive_int,
)

__all__ = [
    "GroupedCorpus",
    "GroupingConfig",
    "Label",
    "OpcodeHistogram",
    "SampleRecord",
    "SplitResult",
    "assign_group",
    "parse_corpus",
    "partition_by_group",
    "serialize_sample",
    "split_train_test",
    "tokenize_disassembly",
    "trainable_groups",
]


class Label(Enum):
    MALWARE = "malware"
    BENIGN = "benign"
    # Produced only for unlabeled classification input; never accepted
    # from training corpora.
    UNKNOWN = "unknown"


# The two training classes, in the order of every per-class table.
CLASSES = (Label.MALWARE, Label.BENIGN)


@dataclass(frozen=True)
class OpcodeHistogram:
    """Opcode mnemonic -> occurrence count.

    Canonical form: keys are non-empty lowercase tokens, counts are
    positive integers that convert to float (zero-count entries are
    absent). The histograms of one parse_corpus call share their key
    strings; parse_corpus states the bound.
    """

    entries: dict[str, int]

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "OpcodeHistogram":
        """Build a canonical histogram, case-folding mnemonics and dropping zeros.

        Raises ValueError naming the first malformed entry, or the first
        (merged) count too large to convert to float.
        """
        if _plain_names(counts) and _plain_counts(counts.values()):
            return cls(_nonzero(dict(counts)))
        return cls(_fold_counts(counts))


# The canonical-form rules, checked in a few C-level passes; an input
# either rule does not admit goes through _fold_counts, which folds case
# or names the first bad entry.
def _plain_names(names: Collection) -> bool:
    """The key rule: exact str names, none empty, already lowercase."""
    if not {*map(type, names)} <= {str} or "" in names:
        return False
    joined = "\0".join(names)
    return joined.lower() == joined


def _plain_counts(values: Collection) -> bool:
    """The count rule: exact int counts (bool excluded), none negative, their sum a float."""
    return (
        {*map(type, values)} <= {int}
        and min(values, default=0) >= 0
        and _fits_float(sum(values))
    )


def _nonzero(entries: dict[str, int]) -> dict[str, int]:
    """``entries`` without its zero counts (``entries`` itself when it has none)."""
    values = entries.values()
    return entries if all(values) else dict(compress(entries.items(), values))


def _fits_float(n: int) -> bool:
    try:
        float(n)
    except OverflowError:
        return False
    return True


def _fold_counts(counts: Mapping[str, int]) -> dict[str, int]:
    """Per-entry validation and case folding; names the first bad entry."""
    entries: dict[str, int] = {}
    for mnemonic, count in counts.items():
        if not isinstance(mnemonic, str) or not mnemonic:
            raise ValueError(f"opcode mnemonic must be a non-empty string, got {mnemonic!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"count for {mnemonic!r} must be a non-negative integer, got {count!r}")
        if count:
            key = mnemonic.lower()
            entries[key] = entries.get(key, 0) + count
    for key, count in entries.items():
        if not _fits_float(count):
            raise ValueError(f"count for {key!r} is too large to convert to float")
    return entries


def _shared_histogram(ops: dict, names: dict[str, str], decoded_together: bool) -> OpcodeHistogram:
    """OpcodeHistogram.from_counts(ops), keyed by shared strings.

    ``names`` maps every canonical mnemonic met so far in one parse to
    the one string that stands for it. A line of known names needs only
    the count rule: if its block was ``decoded_together``, its dict is
    kept, keyed by the strings the decoder holds once per block;
    otherwise it is rebuilt on the strings of ``names``. Any other line
    goes through from_counts (folding case, or raising its ValueError);
    its new names join ``names`` with their own strings, and its entries
    are re-keyed through ``names``. parse_corpus states the bound on
    strings per mnemonic that this gives.
    """
    values = ops.values()
    if _plain_counts(values):
        if decoded_together:
            if ops.keys() <= names.keys():
                return OpcodeHistogram(_nonzero(ops))
        else:
            # The rebuild's own lookups test the names: a subset test
            # first would add about a tenth to a line-by-line parse.
            try:
                return OpcodeHistogram(_nonzero(dict(zip(map(names.__getitem__, ops), values))))
            except KeyError:  # a name new to this parse
                pass
    entries = OpcodeHistogram.from_counts(ops).entries
    return OpcodeHistogram(dict(zip(map(names.setdefault, entries, entries), entries.values())))


@dataclass(frozen=True)
class SampleRecord:
    """One executable: id, class label, file size, opcode histogram."""

    id: str
    label: Label
    size_bytes: int
    histogram: OpcodeHistogram


@dataclass(frozen=True)
class GroupingConfig:
    """Size-group geometry and the per-class trainability threshold.

    With the defaults (5120-byte groups, 512000-byte cutoff) there are
    exactly 100 groups. ``max_size_bytes`` must be divisible by
    ``group_size_bytes``.
    """

    group_size_bytes: int = 5120
    max_size_bytes: int = 512000
    min_per_class: int = 6

    def __post_init__(self):
        for name in ("group_size_bytes", "max_size_bytes", "min_per_class"):
            positive_int(name, getattr(self, name))
        if self.max_size_bytes % self.group_size_bytes != 0:
            raise InvalidConfigError(
                f"max_size_bytes ({self.max_size_bytes}) must be divisible by "
                f"group_size_bytes ({self.group_size_bytes})"
            )

    @property
    def group_count(self) -> int:
        return self.max_size_bytes // self.group_size_bytes


@dataclass(frozen=True)
class GroupedCorpus:
    """Samples bucketed by size group; only non-empty groups are present."""

    config: GroupingConfig
    groups: dict[int, list[SampleRecord]]

    def sample_count(self) -> int:
        return sum(len(samples) for samples in self.groups.values())

    def all_samples(self) -> list[SampleRecord]:
        """All samples in ascending group order."""
        out: list[SampleRecord] = []
        for g in sorted(self.groups):
            out.extend(self.groups[g])
        return out


@dataclass(frozen=True)
class SplitResult:
    train: GroupedCorpus
    test: GroupedCorpus


def _lines(stream: Iterable[str] | str) -> Iterable[str]:
    """The lines of a text or of an iterable of lines.

    A text breaks only at universal newlines (LF, CRLF, CR), as a file
    read in text mode does: JSON allows the other characters that
    str.splitlines breaks at raw inside a string.
    """
    if isinstance(stream, str):
        return stream.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return stream


def _decode_json(text: str):
    """json.loads, where every document it cannot decode raises ValueError naming the reason.

    That covers bad syntax, nesting past the recursion limit and (as
    json.loads raises it) an integer past the int-to-str digit limit.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from None
    except RecursionError:
        raise ValueError("nested too deeply") from None


# A block of lines is decoded by one json.loads call once it holds this
# many characters (about 1 MiB of text); see _decode_block.
_BLOCK_CHARS = 1 << 20


def _line_blocks(stream: Iterable[str] | str) -> Iterator[tuple[list[int], list[str]]]:
    """The numbers and texts of the non-blank lines, in blocks of about _BLOCK_CHARS characters.

    Lines are numbered from 1; a blank line (all whitespace) is counted
    but skipped. A block ends with the line that brings it to
    _BLOCK_CHARS. An exception the stream raises (a reader's ParseError
    for a line that is not UTF-8, say) is held until the block read
    before it has been yielded, so an error on an earlier line is still
    raised first.
    """
    line_nos: list[int] = []
    lines: list[str] = []
    size = 0
    try:
        for line_no, line in enumerate(_lines(stream), start=1):
            if not line.strip():
                continue
            line_nos.append(line_no)
            lines.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                yield line_nos, lines
                line_nos, lines, size = [], [], 0
    except Exception:
        if lines:
            yield line_nos, lines
        raise
    if lines:
        yield line_nos, lines


def _decode_block(lines: list[str]) -> list | None:
    """The JSON documents of ``lines``, one per line, from one json.loads call.

    None where the module docstring's rule does not prove the block, or
    where the joined text raises or gives another count than one
    element per line; such a block is decoded line by line.
    """
    if not all(isinstance(line, str) and line.lstrip(" \t\n\r").startswith("{") for line in lines):
        return None
    parts = ["\n,"] * (2 * len(lines) + 1)
    parts[0], parts[1::2], parts[-1] = "[", lines, "]"
    text = "".join(parts)
    if text.find("[", 1) != -1:
        return None
    try:
        docs = _decode_json(text)
    except ValueError:
        return None
    return docs if len(docs) == len(lines) else None


def _documents(stream: Iterable[str] | str) -> Iterator[tuple[int, object, bool]]:
    """(line number, JSON document, decoded together) for each non-blank line, in line order.

    A block that _decode_block cannot decode as one has its lines
    decoded one at a time, each only once the lines before it have been
    taken, so a ParseError for bad JSON comes at its place in the order.
    """
    for line_nos, lines in _line_blocks(stream):
        docs = _decode_block(lines)
        if docs is not None:
            yield from zip(line_nos, docs, repeat(True))
            continue
        for line_no, line in zip(line_nos, lines):
            try:
                obj = _decode_json(line)
            except ValueError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc}") from None
            yield line_no, obj, False


def _record_header(line_no: int, obj, seen: set[str], allow_unlabeled: bool) -> tuple[str, Label]:
    """The id and label of the JSONL record ``obj`` from line ``line_no``.

    The record must be a JSON object whose 'id' is a non-empty string
    not in ``seen`` (it is added there), and whose 'label' is "malware"
    or "benign"; with ``allow_unlabeled`` it may have no 'label' and
    gets Label.UNKNOWN. Raises ParseError, or IntegrityError on a
    duplicate id.
    """
    if not isinstance(obj, dict):
        raise ParseError(line_no, "record must be a JSON object")
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise ParseError(line_no, "missing or empty 'id'")
    if rid in seen:
        raise IntegrityError(f"duplicate id {rid!r} at line {line_no}")
    seen.add(rid)
    if "label" not in obj:
        if not allow_unlabeled:
            raise ParseError(line_no, "missing 'label'")
        return rid, Label.UNKNOWN
    raw_label = obj["label"]
    for label in CLASSES:
        if raw_label == label.value:
            return rid, label
    raise ParseError(line_no, f"unknown label {raw_label!r}")


def parse_corpus(stream: Iterable[str] | str, *, allow_unlabeled: bool = False) -> list[SampleRecord]:
    """Parse a JSONL corpus: one ``{"id", "label", "size_bytes", "opcodes"}`` object per line.

    Unknown top-level keys are ignored; blank lines are skipped. With
    ``allow_unlabeled`` a record may omit the label field and comes back
    as ``Label.UNKNOWN`` (classification input); a label string other
    than "malware"/"benign" is always a parse error (see _record_header).

    A text is split into lines at universal newlines only. The lines
    are read in blocks of about 1 MiB of text, and a block whose lines
    all start with "{" and hold no "[" is decoded by one json.loads call
    (exact, as the module docstring shows); any other block is decoded
    line by line.

    The histograms share their key strings. A line of a jointly decoded
    block whose names are all known to the call keeps the decoder's
    dict, whose keys the decoder holds once per mnemonic per block. A
    line decoded on its own is rebuilt on the call's one string per
    mnemonic. Any other line is built by OpcodeHistogram.from_counts
    and re-keyed by that same string. So a mnemonic has at most one
    string per jointly decoded block plus the call's one. Records and
    error texts are those of one json.loads and one from_counts call
    per line.

    Raises ParseError (with line number) on a malformed line and
    IntegrityError on a duplicate id, at the first bad line; an error
    the stream raises comes after those of the lines before it.
    """
    records: list[SampleRecord] = []
    seen: set[str] = set()
    names: dict[str, str] = {}
    for line_no, obj, decoded_together in _documents(stream):
        rid, label = _record_header(line_no, obj, seen, allow_unlabeled)

        size = obj.get("size_bytes")
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ParseError(line_no, "'size_bytes' must be a non-negative integer")

        raw_ops = obj.get("opcodes")
        if not isinstance(raw_ops, dict):
            raise ParseError(line_no, "'opcodes' must be an object")
        try:
            histogram = _shared_histogram(raw_ops, names, decoded_together)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None

        records.append(SampleRecord(rid, label, size, histogram))
    return records


def serialize_sample(record: SampleRecord) -> str:
    """One canonical JSONL line for a record (opcode keys sorted).

    Unlabeled records omit the label field, mirroring parse_corpus.
    """
    obj: dict = {"id": record.id}
    if record.label is not Label.UNKNOWN:
        obj["label"] = record.label.value
    obj["size_bytes"] = record.size_bytes
    obj["opcodes"] = {op: record.histogram.entries[op] for op in sorted(record.histogram.entries)}
    return json.dumps(obj)


def tokenize_disassembly(stream: Iterable[str] | str) -> OpcodeHistogram:
    """Count mnemonics in a text disassembly dump, one instruction per line.

    The first whitespace-delimited token of each line is the mnemonic;
    operands are ignored. Blank lines and comment lines starting with ';'
    are skipped. A text breaks into lines at universal newlines only, as
    in parse_corpus. OpcodeHistogram.from_counts folds the raw counts.
    """
    stripped = map(str.strip, _lines(stream))
    return OpcodeHistogram.from_counts(
        Counter(line.split(None, 1)[0] for line in stripped if line and not line.startswith(";")))


def assign_group(size_bytes: int, config: GroupingConfig) -> int:
    """Size group index for a file size: floor(size / group width).

    Group intervals are half-open [i*width, (i+1)*width). Sizes at or
    above the cutoff (and negative sizes) raise SizeRangeError. This is
    the one size rule: partition_by_group and the classify kernel both
    call it.
    """
    if size_bytes < 0 or size_bytes >= config.max_size_bytes:
        raise SizeRangeError(
            f"size_bytes {size_bytes} outside [0, {config.max_size_bytes})"
        )
    return size_bytes // config.group_size_bytes


def partition_by_group(
    samples: Iterable[SampleRecord], config: GroupingConfig
) -> tuple[GroupedCorpus, list[SampleRecord]]:
    """Bucket samples into size groups by assign_group under ``config``.

    Samples that assign_group rejects are not a failure: they come back
    in the second element ("rejected") so callers can report them.
    """
    groups: dict[int, list[SampleRecord]] = {}
    rejected: list[SampleRecord] = []
    for sample in samples:
        try:
            g = assign_group(sample.size_bytes, config)
        except SizeRangeError:
            rejected.append(sample)
        else:
            groups.setdefault(g, []).append(sample)
    return GroupedCorpus(config, groups), rejected


def split_train_test(
    grouped: GroupedCorpus, ratio: tuple[int, int] = (2, 1), seed: int = 0
) -> SplitResult:
    """Seeded stratified split, per (group, class) stratum.

    A stratum of n samples contributes ceil(n * r_train / (r_train +
    r_test)) samples to the training side (rounding favors training)
    and the rest to the test side. Deterministic for a given seed, which
    must be a non-negative integer (else InvalidConfigError).
    """
    if not isinstance(ratio, Sequence) or len(ratio) != 2:
        raise InvalidConfigError(f"ratio must be a (train, test) pair, got {ratio!r}")
    r_train, r_test = (positive_int("ratio part", part) for part in ratio)

    rng = random.Random(non_negative_int("seed", seed))
    train_groups: dict[int, list[SampleRecord]] = {}
    test_groups: dict[int, list[SampleRecord]] = {}
    denom = r_train + r_test
    for g in sorted(grouped.groups):
        bucket = grouped.groups[g]
        for sample in bucket:
            if sample.label is Label.UNKNOWN:
                raise IntegrityError(f"unlabeled sample {sample.id!r} cannot be split")
        for label in CLASSES:
            stratum = sorted((s for s in bucket if s.label is label), key=lambda s: s.id)
            if not stratum:
                continue
            rng.shuffle(stratum)
            n_train = (len(stratum) * r_train + denom - 1) // denom
            if stratum[:n_train]:
                train_groups.setdefault(g, []).extend(stratum[:n_train])
            if stratum[n_train:]:
                test_groups.setdefault(g, []).extend(stratum[n_train:])
    return SplitResult(
        train=GroupedCorpus(grouped.config, train_groups),
        test=GroupedCorpus(grouped.config, test_groups),
    )


def trainable_groups(train: GroupedCorpus, config: GroupingConfig) -> set[int]:
    """Groups with at least ``min_per_class`` samples of each class.

    Groups failing the threshold get no model of their own; their files
    are classified with a neighboring group's model (see engine.route).
    """
    out: set[int] = set()
    for g, samples in train.groups.items():
        per_class = Counter(s.label for s in samples)
        if all(per_class[c] >= config.min_per_class for c in CLASSES):
            out.add(g)
    return out
