"""Model bundles, training, fallback routing, and the batch classification engine.

A ModelBundle holds one trained model per trainable group; train_bundles
trains one bundle per feature budget k, and its docstring states how
often a group is counted and ranked. Routing sends files from untrained
groups to the nearest trained one (upward first). Bundles are saved as
JSON, format 3 (see bundle_to_json), and only that format loads. Each
part of a bundle (GroupingConfig, BundleMeta, GroupModel, FeatureSet,
and ModelBundle for how they fit together) checks its own invariants
when built and cannot change after, and the loader checks only the
document's shape, handing every prior and likelihood to GroupModel as
it was decoded: format 3 names each likelihood by its feature, so a
per-class table's keys must be exactly the model's features, read in
feature order. load_bundle keeps the last bundle it loaded, with the
file's bytes, and returns it again for identical bytes without decoding
them.

Batches are classified over lanes, run by groupnb.lanes;
classify_parallel states how many lanes a batch gets, and TimedRun.lanes
says how many ran. Every lane routes and scores its own chunk with the
same array kernel, so predictions are bit-identical at any lane count.
TimedRun.elapsed_ns times the parallel region: each lane's routing
(assign_group, _route_row), kernel and finiteness check, and the
workers' result transfer; not process start-up or warm-up, parsing,
score-table building, prediction assembly or serialization.

Exact kernel. The kernel scores a block of samples at once and
reproduces classifier.log_posterior bit for bit. Each bundle builds its
tables once, in its first classify call before any lane starts: one
score table per class, with one row per model holding the log prior,
then the feature log-likelihoods in feature order, padded with -0.0.

- Products. A sample's counts of its routed model's features (0 where
  absent) are cast to int64, exactly, and the multiply converts each to
  float64 as float(n) does, to nearest with ties to even. A count past
  int64 makes the cast raise OverflowError; that block's counts are then
  converted to float64 directly, which rounds as float(n) does too. So
  each product rounds exactly as the scalar ``n * ll`` does. (The int64
  cast of a block's count list is faster than a float64 one.) Counts
  must be ints, as OpcodeHistogram declares and every parse and synth
  path builds: the cast would truncate a float count and raise
  ValueError on a NaN one.
- Absent features. The scalar loop skips them; the kernel makes each
  contribute -0.0, the exact additive identity, which leaves even a
  -0.0 sum unchanged. When every likelihood cell (padding included) has
  its sign bit set, 0 * ll is already -0.0, so the products need no
  mask. Otherwise (a likelihood of +0.0, as a one-feature model has)
  the products of zero counts are set to -0.0.
- Order. np.add.accumulate adds the prior and the products left to
  right, the order of the scalar loop.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from functools import cached_property, lru_cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .corpus import (
    CLASSES, GroupedCorpus, GroupingConfig, Label, SampleRecord, _decode_json, assign_group,
    trainable_groups,
)
from .classifier import NON_FINITE_SCORE, GroupModel, Prediction, checked_alpha, decide, fit_counts
from .errors import (
    BundleValidationError,
    EmptyBundleError,
    IntegrityError,
    InvalidConfigError,
    MeasurementError,
    SizeRangeError,
    non_negative_int,
    positive_int,
)
from .features import FeatureSet, _ranking, count_group, score_counts
from .lanes import run_lanes

__all__ = [
    "BundleMeta",
    "ModelBundle",
    "TimedRun",
    "Workload",
    "build_bundle",
    "bundle_from_json",
    "bundle_to_json",
    "classify_parallel",
    "classify_sequential",
    "load_bundle",
    "route",
    "save_bundle",
    "speedup",
    "train_bundle",
    "train_bundles",
    "write_predictions",
]


@dataclass(frozen=True)
class BundleMeta:
    """How a bundle was trained; alpha is stored as a float.

    InvalidConfigError unless k is a positive int, alpha positive and
    finite, seed a non-negative int and created_at a str.
    """

    k: int
    alpha: float
    seed: int
    created_at: str

    def __post_init__(self):
        positive_int("k", self.k)
        object.__setattr__(self, "alpha", checked_alpha(self.alpha))
        non_negative_int("seed", self.seed)
        if not isinstance(self.created_at, str):
            raise InvalidConfigError(f"created_at must be a string, got {self.created_at!r}")


@dataclass(frozen=True)
class ModelBundle:
    """Immutable, non-empty collection of per-group models; safe for concurrent readers.

    Each model is stored under its own group, inside [0, config.group_count),
    with at most meta.k features; else BundleValidationError. ``models``
    is a read-only view of the constructor's own copy, so a caller's
    later change to the dict it passed in does not reach the bundle.
    """

    config: GroupingConfig
    models: Mapping[int, GroupModel]
    meta: BundleMeta

    def __post_init__(self):
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        if not self.models:
            raise EmptyBundleError("bundle has no trained models")
        count, k = self.config.group_count, self.meta.k
        for key, model in self.models.items():
            where = f"model for group {model.group}"
            if type(key) is not type(model.group) or key != model.group:
                raise BundleValidationError(f"{where}: stored under key {key!r}")
            if model.group >= count:
                raise BundleValidationError(f"{where}: group id outside [0, {count})")
            if (n := len(model.features.opcodes)) > k:
                raise BundleValidationError(f"{where}: {n} features exceeds k={k}")

    @cached_property
    def trained_ids(self) -> tuple[int, ...]:
        """The groups that have a model, ascending."""
        return tuple(sorted(self.models))

    @cached_property
    def _tables(self) -> "_ScoreTables":
        """The kernel's score tables, built on first use and kept with the bundle."""
        return _ScoreTables.build(self)


@dataclass(frozen=True)
class Workload:
    """An ordered batch of samples plus the most lanes to classify it with."""

    samples: tuple[SampleRecord, ...]
    lanes: int

    def __post_init__(self):
        positive_int("lanes", self.lanes)


@dataclass(frozen=True)
class TimedRun:
    """Predictions in input order, the parallel region's wall time and the lanes that ran.

    predictions has one slot per input sample; a slot is None when that
    sample failed (its (index, message) pair is in errors). lanes counts
    the caller plus every worker started, at most the lanes requested.
    """

    predictions: tuple[Prediction | None, ...]
    errors: tuple[tuple[int, str], ...]
    elapsed_ns: int
    lanes: int


def _route_row(ids: Sequence[int], group: int) -> int:
    """Index in the sorted ``ids`` of the effective group (see route)."""
    return min(bisect_left(ids, group), len(ids) - 1)


def route(bundle: ModelBundle, group: int) -> int:
    """Effective group for a file in ``group``.

    Returns the group itself when trained, otherwise the smallest trained
    id above it; a file above the highest trained group falls back to
    the largest trained id below it.
    """
    ids = bundle.trained_ids
    return ids[_route_row(ids, group)]


def build_bundle(
    models: Iterable[GroupModel], config: GroupingConfig, meta: BundleMeta
) -> ModelBundle:
    """Assemble a bundle of one model per group (else IntegrityError), by ascending group."""
    by_group: dict[int, GroupModel] = {}
    for model in models:
        if model.group in by_group:
            raise IntegrityError(f"duplicate model for group {model.group}")
        by_group[model.group] = model
    return ModelBundle(config, {g: by_group[g] for g in sorted(by_group)}, meta)


def train_bundles(
    train: GroupedCorpus,
    k_values: Iterable[int],
    alpha: float = 1.0,
    *,
    created_at: str | None = None,
) -> dict[int, ModelBundle]:
    """One bundle per k: select features and train a model for every trainable group.

    An unlabeled sample in any group raises first (trainable_groups).
    Count and rank once: a corpus's groups cannot change, so each
    trainable group is counted and its opcodes ranked once per corpus
    (features.count_group, score_counts, _ranking), and the corpus keeps
    both (GroupedCorpus._counts) for every later train_bundle or
    train_bundles call. Every k's features are the first k of that
    ranking, and every k's model comes from the counts, with the results
    and errors of score_opcodes, select_top_k and train_group. A group
    that fails to score keeps nothing, so it fails again.
    Training draws no random numbers, so every bundle's meta.seed is 0.
    The metas are built last: a training error comes before BundleMeta's,
    and BundleMeta's before EmptyBundleError (no group is trainable).
    """
    config = train.config
    groups = sorted(trainable_groups(train, config))
    models: dict[int, list[GroupModel]] = {k: [] for k in k_values}
    for g in groups:
        if (entry := train._counts.get(g)) is None:
            counts = count_group(train.groups[g])
            entry = train._counts[g] = (counts, _ranking(score_counts(counts, group=g)))
        counts, ranking = entry
        for k, group_models in models.items():
            positive_int("k", k)  # where select_top_k checks it
            group_models.append(fit_counts(counts, FeatureSet(ranking[:k]), alpha, group=g))
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    metas = {k: BundleMeta(k, alpha, 0, created_at) for k in models}
    if not groups:
        raise EmptyBundleError(f"no size group has {config.min_per_class} training "
                               "samples of each class; no bundle written")
    return {k: build_bundle(models[k], config, metas[k]) for k in models}


def train_bundle(
    train: GroupedCorpus,
    k: int,
    alpha: float = 1.0,
    *,
    created_at: str | None = None,
) -> ModelBundle:
    """train_bundles for a single k."""
    return train_bundles(train, (k,), alpha, created_at=created_at)[k]


# --- batch classification --------------------------------------------------

# Samples scored per kernel step; bounds the temporary arrays to a few MB.
# It is also the least work per lane (classify_parallel): below one block,
# starting a worker costs more than the lane saves.
_BLOCK = 512


@dataclass(frozen=True)
class _ScoreTables:
    """What the kernel reads of a bundle: its trained_ids, its geometry and its models as arrays.

    There is one row per model, in ids order. table[row, c] is
    [log_prior(c), ll(c, f_1), ..., ll(c, f_n)] padded with -0.0 to the
    widest model; keys[row] is (f_1, ..., f_n) padded with None, which
    no histogram holds. signed says whether every likelihood cell has
    its sign bit set (the module docstring's "Exact kernel").
    """

    ids: tuple[int, ...]
    config: GroupingConfig
    keys: tuple[tuple[str | None, ...], ...]
    table: np.ndarray
    signed: bool

    @classmethod
    def build(cls, bundle: ModelBundle) -> "_ScoreTables":
        ids = bundle.trained_ids
        models = [bundle.models[g] for g in ids]
        width = max(len(m.features.opcodes) for m in models)
        table = np.full((len(models), len(CLASSES), width + 1), -0.0)
        keys = []
        for row, model in enumerate(models):
            features = model.features.opcodes
            for c, label in enumerate(CLASSES):
                table[row, c, 0] = model.log_prior[label]
                table[row, c, 1 : len(features) + 1] = model.log_likelihood[label]
            keys.append(features + (None,) * (width - len(features)))
        signed = bool(np.signbit(table[:, :, 1:]).all())
        return cls(ids, bundle.config, tuple(keys), table, signed)


def _log_scores(
    tables: _ScoreTables, histograms: Sequence[dict[str, int]], rows: Sequence[int]
) -> np.ndarray:
    """(n, 2) log-scores, bit-identical to classifier.log_posterior (see "Exact kernel").

    histograms[i] is scored by the model in table row rows[i].
    """
    keys, table = tables.keys, tables.table
    out = np.empty((len(rows), len(CLASSES)))
    absent = repeat(0)
    for lo in range(0, len(rows), _BLOCK):
        block = rows[lo : lo + _BLOCK]
        counts: list[int] = []
        for entries, row in zip(histograms[lo : lo + _BLOCK], block):
            counts.extend(map(entries.get, keys[row], absent))
        try:
            x = np.array(counts, dtype=np.int64)
        except OverflowError:
            x = np.array(counts, dtype=np.float64)
        x = x.reshape(len(block), 1, -1)
        products = table[block]  # a copy, [prior, ll...] per sample and class
        terms = products[:, :, 1:]
        np.multiply(terms, x, out=terms)
        if not tables.signed:
            np.copyto(terms, -0.0, where=x == 0)
        out[lo : lo + _BLOCK] = np.add.accumulate(products, axis=2, out=products)[:, :, -1]
    return out


def _classify_chunk(
    tables: _ScoreTables, chunk: Sequence[SampleRecord], offset: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """Classify one lane's chunk, which starts at batch index ``offset``, into arrays.

    Returns the effective group per sample (-1 where it failed), the
    (malware, benign) log-scores per sample, and the failures as
    (batch index, message) pairs in index order. A sample fails when
    its size is out of range or a log-score overflows the float range.
    """
    ids = tables.ids
    config = tables.config
    admitted: list[int] = []
    rows: list[int] = []
    histograms: list[dict[str, int]] = []
    errors: list[tuple[int, str]] = []
    for i, sample in enumerate(chunk):
        try:
            group = assign_group(sample.size_bytes, config)
        except SizeRangeError as exc:
            errors.append((offset + i, str(exc)))
            continue
        admitted.append(i)
        rows.append(_route_row(ids, group))
        histograms.append(sample.histogram.entries)
    groups = np.full(len(chunk), -1, dtype=np.int64)
    scores = np.zeros((len(chunk), len(CLASSES)))
    groups[admitted] = np.array(ids, dtype=np.int64)[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        scores[admitted] = _log_scores(tables, histograms, rows)
    non_finite = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if len(non_finite):
        groups[non_finite] = -1
        errors = sorted(errors + [(offset + i, NON_FINITE_SCORE) for i in non_finite.tolist()])
    return groups, scores, errors


def _timed_run(
    parts: Sequence[tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]], elapsed_ns: int
) -> TimedRun:
    """Assemble predictions, in input order, from consecutive chunk results, one per lane."""
    predictions: list[Prediction | None] = []
    errors: list[tuple[int, str]] = []
    append = predictions.append
    for groups, scores, chunk_errors in parts:
        for group, (score_m, score_b) in zip(groups.tolist(), scores.tolist()):
            if group < 0:
                append(None)
                continue
            append(decide(score_m, score_b, group))
        errors.extend(chunk_errors)
    return TimedRun(tuple(predictions), tuple(errors), elapsed_ns, len(parts))


def classify_sequential(
    bundle: ModelBundle, workload: Workload, *, warmup: bool = True
) -> TimedRun:
    """Single-threaded baseline; this is the Tc side of the speedup ratio.

    The one-lane case of classify_parallel, whatever workload.lanes says:
    the caller classifies the whole batch and no process is started. With
    warmup (the default) one full unmeasured pass runs first; only the
    second pass is timed.
    """
    return classify_parallel(bundle, Workload(workload.samples, 1), warmup=warmup)


def classify_parallel(
    bundle: ModelBundle, workload: Workload, *, warmup: bool = True
) -> TimedRun:
    """Classify over at most ``workload.lanes`` lanes, run by groupnb.lanes.

    A batch of N samples runs on min(workload.lanes, max(1, N // _BLOCK))
    lanes, reported as run.lanes, so a batch below two kernel blocks
    starts no process. Lane i is handed only the samples [i * N // lanes,
    (i + 1) * N // lanes), at least one block, and classifies them into
    arrays; the predictions built from them are in input order and
    bit-identical (label and log-scores) to classify_sequential on the
    same workload. A worker that dies before returning its chunk raises
    LaneError.
    """
    samples = workload.samples
    n = len(samples)
    lanes = min(workload.lanes, max(1, n // _BLOCK))
    tables = bundle._tables  # before any lane starts, so every lane shares it
    cuts = [i * n // lanes for i in range(lanes + 1)]  # an empty batch runs one empty lane
    lane_args = [(tables, samples[lo:hi], lo) for lo, hi in zip(cuts, cuts[1:])]
    parts, elapsed = run_lanes(_classify_chunk, lane_args, warmup)
    return _timed_run(parts, elapsed)


def speedup(tc_ns: int, tp_ns: int) -> float:
    """Sequential-over-parallel time ratio for the same workload."""
    if tp_ns <= 0:
        raise MeasurementError(f"parallel time must be positive, got {tp_ns}")
    if tc_ns < 0:
        raise MeasurementError(f"sequential time must be non-negative, got {tc_ns}")
    return tc_ns / tp_ns


# --- bundle serialization --------------------------------------------------
#
# Bundle format 3: json.dumps writes every float as its shortest round-trip
# repr (so -0.0 keeps its sign) and keys in a fixed order, one model per
# line, so serialize -> load -> serialize is byte-identical. A model line
# holds only what routing and scoring read; meta holds the one alpha.

BUNDLE_FORMAT = 3


def _model_doc(model: GroupModel) -> dict:
    features = model.features.opcodes
    return {
        "group": model.group,
        "features": list(features),
        "log_prior": {c.value: model.log_prior[c] for c in CLASSES},
        "log_likelihood": {c.value: dict(zip(features, model.log_likelihood[c])) for c in CLASSES},
    }


def bundle_to_json(bundle: ModelBundle) -> str:
    """Canonical single-document JSON text for a bundle."""
    dumps = partial(json.dumps, allow_nan=False)
    # asdict keeps field order, so the config and meta keys come out in a fixed order.
    config_json = dumps(asdict(bundle.config))
    meta_json = dumps(asdict(bundle.meta))
    model_docs = [dumps(_model_doc(bundle.models[g])) for g in bundle.trained_ids]
    models_json = "[\n" + ",\n".join(model_docs) + "\n]"
    return (f'{{"format": {BUNDLE_FORMAT}, "config": {config_json}, "meta": {meta_json}, '
            f'"models": {models_json}}}\n')


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(bundle_to_json(bundle))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleValidationError(message)


def _object(value, where: str) -> dict:
    _require(isinstance(value, dict), f"{where} must be an object")
    return value


def bundle_from_json(text: str) -> ModelBundle:
    """Parse a format-3 bundle document, checking only its shape.

    The bundle types check the rest, the numbers included (GroupModel);
    any malformed document raises BundleValidationError.
    """
    try:
        doc = _decode_json(text)
    except ValueError as exc:
        raise BundleValidationError(f"invalid bundle JSON: {exc}") from None
    doc = _object(doc, "bundle")
    version = doc.get("format")
    _require(type(version) is int and version == BUNDLE_FORMAT,
             f"unsupported bundle format {version!r}")
    raw_config = _object(doc.get("config"), "bundle 'config'")
    raw_meta = _object(doc.get("meta"), "bundle 'meta'")
    raw_models = doc.get("models")
    _require(isinstance(raw_models, list), "bundle 'models' must be an array")

    try:
        config = GroupingConfig(**{f.name: raw_config[f.name] for f in fields(GroupingConfig)})
        meta = BundleMeta(**{f.name: raw_meta[f.name] for f in fields(BundleMeta)})
    except (KeyError, InvalidConfigError) as exc:
        raise BundleValidationError(f"bad bundle config/meta: {exc}") from None

    models = []
    for position, raw in enumerate(raw_models):
        where = f"models[{position}]"
        raw = _object(raw, where)
        try:
            group = raw["group"]
            feature_list = raw["features"]
            raw_prior = _object(raw["log_prior"], f"{where}.log_prior")
            raw_ll = _object(raw["log_likelihood"], f"{where}.log_likelihood")
            _require(isinstance(feature_list, list), f"{where}: 'features' must be an array")
            features = FeatureSet(tuple(feature_list))
        except KeyError as exc:
            raise BundleValidationError(f"{where}: missing {exc}") from None
        except InvalidConfigError as exc:
            raise BundleValidationError(f"{where}: {exc}") from None
        log_prior = {c: raw_prior[c.value] for c in CLASSES if c.value in raw_prior}
        log_likelihood = {}
        for c in CLASSES:
            row = _object(raw_ll.get(c.value, {}), f"{where}.log_likelihood.{c.value}")
            _require(row.keys() == set(features.opcodes),
                     f"{where}: {c.value} likelihoods are not keyed by exactly the features")
            log_likelihood[c] = tuple(map(row.__getitem__, features.opcodes))
        models.append(GroupModel(group, features, log_prior, log_likelihood))
    return build_bundle(models, config, meta)


def load_bundle(path) -> ModelBundle:
    """Read and validate a bundle file; a byte that is not UTF-8 is a BundleValidationError.

    The file is read whole on every call. If its bytes equal those of the
    last successful load, that load's bundle is returned without decoding
    or checking them again, so identical bytes, by one path or two, may
    give the same object. A refused file is never kept, so it raises on
    every call.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    return _decode_bundle(data)


@lru_cache(maxsize=1)
def _decode_bundle(data: bytes) -> ModelBundle:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleValidationError(
            f"bundle is not valid UTF-8 at byte offset {exc.start}") from None
    return bundle_from_json(text)


# One %-format per prediction line, with the label's JSON text built in.
# "%.17g" writes 17 significant digits, the digits of format(x, ".17g"),
# which round-trip IEEE-754 binary64 exactly.
_PREDICTION_LINE = {
    label: f'{{"id": %s, "label": {json.dumps(label.value)}, '
           f'"log_posterior": {{"malware": %.17g, "benign": %.17g}}, "effective_group": %s}}\n'
    for label in Label
}
_ERROR_LINE = '{"id": %s, "error": %s}\n'


def write_predictions(run: TimedRun, samples: Sequence[SampleRecord], sink: TextIO) -> None:
    """Emit one JSONL object per input sample (error entries included), in one sink.write.

    Each line is one %-format: the id and an error message are written by
    encode_basestring_ascii, the function json.dumps calls for a str, and
    the text is that of json.dumps and format(score, ".17g"). Prediction
    i is run.predictions[i], so a run with fewer predictions than samples
    raises IndexError, and then nothing is written.
    """
    by_index = dict(run.errors)
    predictions = run.predictions
    lines = []
    for i, sample in enumerate(samples):
        prediction = predictions[i]
        if prediction is None:
            lines.append(_ERROR_LINE % (_json_str(sample.id), _json_str(by_index[i])))
            continue
        scores = prediction.log_posterior
        lines.append(_PREDICTION_LINE[prediction.label] % (
            _json_str(sample.id), scores[Label.MALWARE], scores[Label.BENIGN],
            prediction.effective_group))
    sink.write("".join(lines))
