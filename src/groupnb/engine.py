"""Model bundles, fallback routing, and the batch classification engine.

A ModelBundle holds one trained model per trainable group; routing sends
files from untrained groups to the nearest trained one (upward first).
Batches are classified either by a single-threaded baseline or over
lanes: the caller runs lane 0 and each further lane is one worker
process with its own pipe, forked where the platform allows and spawned
elsewhere, through the same code. Both paths run the same array kernel
over contiguous slices, so their predictions are bit-identical. Elapsed
time covers only the classification kernel, not parsing or
serialization; for lanes it starts after a ready/go barrier, so process
start-up and warm-up are excluded.

The kernel scores a block of samples at once and reproduces
classifier.log_posterior bit for bit. Each bundle gets one score table
per class, one row per model: the log prior, then the feature
log-likelihoods in feature order. A sample's row of products is its
routed model's row times the sample's counts of those features (1 for
the prior), each product rounded exactly as the scalar ``n * ll`` is.
Absent features contribute -0.0, the exact additive identity, so even a
signed zero survives; np.add.accumulate then adds the products left to
right, the order of the scalar loop.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence, TextIO

import numpy as np

from .corpus import GroupedCorpus, GroupingConfig, Label, SampleRecord
from .classifier import CLASSES, GroupModel, Prediction, train_group
from .errors import (
    BundleValidationError,
    EmptyBundleError,
    IntegrityError,
    InvalidConfigError,
    LaneError,
    MeasurementError,
)
from .features import FeatureSet, score_opcodes, select_top_k

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BundleMeta:
    k: int
    alpha: float
    seed: int
    created_at: str


@dataclass(frozen=True)
class ModelBundle:
    """Immutable collection of per-group models; safe for concurrent readers."""

    config: GroupingConfig
    models: dict[int, GroupModel]
    trained_ids: tuple[int, ...]
    meta: BundleMeta

    @cached_property
    def _tables(self) -> "_ScoreTables":
        return _ScoreTables.build(self)


@dataclass(frozen=True)
class Workload:
    """An ordered batch of samples plus the lane count to classify it with."""

    samples: tuple[SampleRecord, ...]
    lanes: int

    def __post_init__(self):
        if not isinstance(self.lanes, int) or isinstance(self.lanes, bool) or self.lanes < 1:
            raise InvalidConfigError(f"lanes must be a positive integer, got {self.lanes!r}")


@dataclass(frozen=True)
class TimedRun:
    """Predictions in input order plus kernel wall time.

    predictions has one slot per input sample; a slot is None when that
    sample failed (its (index, message) pair is in errors).
    """

    predictions: tuple[Prediction | None, ...]
    errors: tuple[tuple[int, str], ...]
    elapsed_ns: int


def _route_row(ids: Sequence[int], group: int) -> int:
    """Index in the sorted, non-empty ``ids`` of the effective group (see route)."""
    return min(bisect_left(ids, group), len(ids) - 1)


def route(bundle: ModelBundle, group: int) -> int:
    """Effective group for a file in ``group``.

    Returns the group itself when trained, otherwise the smallest trained
    id above it; a file above the highest trained group falls back to
    the largest trained id below it.
    """
    if not bundle.trained_ids:
        raise EmptyBundleError("bundle has no trained models")
    ids = bundle.trained_ids
    return ids[_route_row(ids, group)]


def _exp_sum(log_values: list[float]) -> float:
    """Sum of exp(v) left to right; inf when a term overflows."""
    try:
        return sum(map(math.exp, log_values))
    except OverflowError:
        return math.inf


def _validate_model(model: GroupModel, config: GroupingConfig, meta: BundleMeta) -> None:
    where = f"model for group {model.group}"
    if not (0 <= model.group < config.group_count):
        raise BundleValidationError(f"{where}: group id outside [0, {config.group_count})")
    n_features = len(model.features.opcodes)
    if n_features == 0:
        raise BundleValidationError(f"{where}: empty feature set")
    if n_features > meta.k:
        raise BundleValidationError(f"{where}: {n_features} features exceeds k={meta.k}")
    if len(set(model.features.opcodes)) != n_features:
        raise BundleValidationError(f"{where}: duplicate features")
    if model.alpha <= 0 or not math.isfinite(model.alpha):
        raise BundleValidationError(f"{where}: alpha must be positive and finite")
    priors = [model.log_prior[c] for c in CLASSES]
    if not all(map(math.isfinite, priors)):
        raise BundleValidationError(f"{where}: non-finite log prior")
    prior_sum = _exp_sum(priors)
    if abs(prior_sum - 1.0) > _SUM_TOLERANCE:
        raise BundleValidationError(f"{where}: priors sum to {prior_sum!r}, not 1")
    for c in CLASSES:
        if model.train_counts.get(c, 0) < 1:
            raise BundleValidationError(f"{where}: no {c.value} training samples recorded")
        row = model.log_likelihood[c]
        for op in model.features.opcodes:
            if not math.isfinite(row[op]):
                raise BundleValidationError(f"{where}: non-finite likelihood for {op!r}")
        total = _exp_sum([row[op] for op in model.features.opcodes])
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise BundleValidationError(
                f"{where}: {c.value} likelihoods sum to {total!r}, not 1"
            )


def build_bundle(
    models: Iterable[GroupModel], config: GroupingConfig, meta: BundleMeta
) -> ModelBundle:
    """Assemble and validate a bundle; trained_ids come out sorted ascending."""
    by_group: dict[int, GroupModel] = {}
    for model in models:
        if model.group in by_group:
            raise IntegrityError(f"duplicate model for group {model.group}")
        _validate_model(model, config, meta)
        by_group[model.group] = model
    ids = tuple(sorted(by_group))
    return ModelBundle(
        config=config,
        models={g: by_group[g] for g in ids},
        trained_ids=ids,
        meta=meta,
    )


def train_bundle(
    train: GroupedCorpus,
    k: int,
    alpha: float = 1.0,
    *,
    seed: int = 0,
    created_at: str | None = None,
) -> ModelBundle:
    """Select features and train a model for every trainable group."""
    from .corpus import trainable_groups

    config = train.config
    models = []
    for g in sorted(trainable_groups(train, config)):
        table = score_opcodes(train.groups[g], group=g)
        features = select_top_k(table, k)
        models.append(train_group(train.groups[g], features, alpha, group=g))
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = BundleMeta(k=k, alpha=float(alpha), seed=seed, created_at=created_at)
    return build_bundle(models, config, meta)


# --- batch classification --------------------------------------------------

# Samples scored per kernel step; bounds the temporary arrays to a few MB.
_BLOCK = 512


@dataclass(frozen=True)
class _ScoreTables:
    """A bundle's models as arrays, one row per model in trained_ids order.

    table[row, c] is [log_prior(c), ll(c, f_1), ..., ll(c, f_n)]
    zero-padded to the widest model; keys[row] is (f_1, ..., f_n) padded
    with None, which no histogram holds.
    """

    keys: tuple[tuple[str | None, ...], ...]
    table: np.ndarray

    @classmethod
    def build(cls, bundle: ModelBundle) -> "_ScoreTables":
        ids = bundle.trained_ids
        models = [bundle.models[g] for g in ids]
        width = max((len(m.features.opcodes) for m in models), default=0)
        table = np.zeros((len(models), len(CLASSES), width + 1))
        keys = []
        for row, model in enumerate(models):
            features = model.features.opcodes
            for c, label in enumerate(CLASSES):
                ll = model.log_likelihood[label]
                table[row, c, 0] = model.log_prior[label]
                table[row, c, 1 : len(features) + 1] = [ll[op] for op in features]
            keys.append(features + (None,) * (width - len(features)))
        return cls(tuple(keys), table)


def _log_scores(
    tables: _ScoreTables, histograms: Sequence[dict[str, int]], rows: Sequence[int]
) -> np.ndarray:
    """(n, 2) log-scores, bit-identical to classifier.log_posterior.

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
        # Column 0 multiplies the prior by 1. numpy converts each int
        # exactly as float() does, so every product rounds as n * ll does.
        x = np.ones((len(block), 1, table.shape[2]))
        x[:, 0, 1:] = np.array(counts, dtype=np.float64).reshape(len(block), -1)
        products = np.where(x == 0, -0.0, x * table[block])
        out[lo : lo + _BLOCK] = np.add.accumulate(products, axis=2)[:, :, -1]
    return out


def _oversize_message(size_bytes: int, limit: int) -> str:
    return f"size_bytes {size_bytes} outside [0, {limit})"


def _classify_slice(
    bundle: ModelBundle, samples: Sequence[SampleRecord], start: int, end: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """Classify samples[start:end] into arrays.

    Returns the effective group per sample (-1 where it failed), the
    (malware, benign) log-scores per sample, and the failures as
    (absolute index, message) pairs.
    """
    ids = bundle.trained_ids
    width = bundle.config.group_size_bytes
    limit = bundle.config.max_size_bytes
    admitted: list[int] = []
    rows: list[int] = []
    histograms: list[dict[str, int]] = []
    errors: list[tuple[int, str]] = []
    for i in range(start, end):
        sample = samples[i]
        size = sample.size_bytes
        if 0 <= size < limit:
            admitted.append(i - start)
            rows.append(_route_row(ids, size // width))
            histograms.append(sample.histogram.entries)
        else:
            errors.append((i, _oversize_message(size, limit)))
    groups = np.full(end - start, -1, dtype=np.int64)
    scores = np.zeros((end - start, len(CLASSES)))
    groups[admitted] = np.array(ids, dtype=np.int64)[rows]
    scores[admitted] = _log_scores(bundle._tables, histograms, rows)
    return groups, scores, errors


def _timed_run(
    parts: Iterable[tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]], elapsed_ns: int
) -> TimedRun:
    """Assemble predictions, in input order, from consecutive slice results."""
    predictions: list[Prediction | None] = []
    errors: list[tuple[int, str]] = []
    append = predictions.append
    for groups, scores, slice_errors in parts:
        for group, (score_m, score_b) in zip(groups.tolist(), scores.tolist()):
            if group < 0:
                append(None)
                continue
            label = Label.MALWARE if score_m > score_b else Label.BENIGN
            append(Prediction(label, {Label.MALWARE: score_m, Label.BENIGN: score_b}, group))
        errors.extend(slice_errors)
    return TimedRun(tuple(predictions), tuple(errors), elapsed_ns)


def classify_sequential(
    bundle: ModelBundle, workload: Workload, *, warmup: bool = True
) -> TimedRun:
    """Single-threaded baseline; this is the Tc side of the speedup ratio.

    Never parallelized internally. With warmup (the default) one full
    unmeasured pass runs first; only the second pass is timed.
    """
    if not bundle.trained_ids:
        raise EmptyBundleError("bundle has no trained models")
    samples = workload.samples
    n = len(samples)
    if warmup:
        _classify_slice(bundle, samples, 0, n)
    t0 = time.perf_counter_ns()
    part = _classify_slice(bundle, samples, 0, n)
    elapsed = time.perf_counter_ns() - t0
    return _timed_run([part], elapsed)


def _lane(conn, caller_ends, bundle: ModelBundle, samples: Sequence[SampleRecord], start: int,
          end: int, warmup: bool) -> None:
    """Worker-lane body: classify samples[start:end] between the caller's go and its receive.

    Sends "ready" after the optional warm-up pass, waits for "go", then
    sends its chunk's arrays. If the caller has closed the pipe, the lane
    exits quietly.
    """
    # A forked lane inherits the caller's pipe ends; while it holds them,
    # it would never see the caller close its own.
    for caller_end in caller_ends:
        caller_end.close()
    try:
        if warmup:
            _classify_slice(bundle, samples, start, end)
        conn.send("ready")
        conn.recv()
        conn.send(_classify_slice(bundle, samples, start, end))
    except (EOFError, ConnectionError):
        pass
    finally:
        conn.close()


def _receive(lane: int, proc, conn):
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        raise LaneError(f"lane {lane} exited with code {proc.exitcode} "
                        "before returning its chunk") from None


def classify_parallel(
    bundle: ModelBundle, workload: Workload, *, warmup: bool = True
) -> TimedRun:
    """Classify over ``workload.lanes`` lanes: ``lanes - 1`` forked workers plus the caller.

    The batch is cut into contiguous chunks of ceil(N / lanes) samples.
    The caller classifies chunk 0 itself; every other chunk gets one
    worker process and one pipe. Workers are forked where the platform
    can, so they inherit the bundle and the batch; elsewhere they are
    spawned and the same arguments are pickled. Lanes return arrays, and
    the predictions built from them are in input order and bit-identical
    (label and log-scores) to classify_sequential on the same workload.
    elapsed_ns is the wall time of the parallel region only: it starts
    once every lane has finished its optional warm-up pass and reported
    ready. A worker that dies before returning its chunk raises
    LaneError; every worker is joined before this returns or raises.
    """
    if not bundle.trained_ids:
        raise EmptyBundleError("bundle has no trained models")
    samples = workload.samples
    n = len(samples)
    chunk = -(-n // workload.lanes) if n else 1
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)] or [(0, 0)]
    bundle._tables  # build once here, so forked lanes inherit them
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)

    procs = []
    conns = []
    try:
        for lo, hi in bounds[1:]:
            conn, lane_conn = ctx.Pipe()
            conns.append(conn)
            with lane_conn:  # the worker's copy must be the only one left open
                args = (lane_conn, tuple(conns), bundle, samples, lo, hi, warmup)
                proc = ctx.Process(target=_lane, args=args, daemon=True)
                proc.start()
            procs.append(proc)
        lo, hi = bounds[0]
        if warmup:
            _classify_slice(bundle, samples, lo, hi)
        for lane, (proc, conn) in enumerate(zip(procs, conns), start=1):
            _receive(lane, proc, conn)
        t0 = time.perf_counter_ns()
        for conn in conns:
            conn.send("go")
        parts = [_classify_slice(bundle, samples, lo, hi)]
        parts += [_receive(lane, proc, conn)
                  for lane, (proc, conn) in enumerate(zip(procs, conns), start=1)]
        elapsed = time.perf_counter_ns() - t0
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
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
# Doubles are printed with 17 significant digits, which round-trips IEEE-754
# binary64 exactly; key order is fixed, so serialize -> load -> serialize is
# byte-identical.


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_float_map(items: Iterable[tuple[str, float]]) -> str:
    body = ", ".join(f"{json.dumps(key)}: {_fmt_float(value)}" for key, value in items)
    return "{" + body + "}"


def bundle_to_json(bundle: ModelBundle) -> str:
    """Canonical single-document JSON text for a bundle."""
    config = bundle.config
    meta = bundle.meta
    config_json = (
        f'{{"group_size_bytes": {config.group_size_bytes}, '
        f'"max_size_bytes": {config.max_size_bytes}, '
        f'"min_per_class": {config.min_per_class}}}'
    )
    meta_json = (
        f'{{"k": {meta.k}, "alpha": {_fmt_float(meta.alpha)}, '
        f'"seed": {meta.seed}, "created_at": {json.dumps(meta.created_at)}}}'
    )
    model_docs = []
    for g in bundle.trained_ids:
        model = bundle.models[g]
        features = model.features.opcodes
        features_json = "[" + ", ".join(json.dumps(op) for op in features) + "]"
        prior_json = _fmt_float_map((c.value, model.log_prior[c]) for c in CLASSES)
        ll_json = (
            "{"
            + ", ".join(
                f"{json.dumps(c.value)}: "
                + _fmt_float_map((op, model.log_likelihood[c][op]) for op in features)
                for c in CLASSES
            )
            + "}"
        )
        counts_json = (
            "{"
            + ", ".join(f"{json.dumps(c.value)}: {model.train_counts[c]}" for c in CLASSES)
            + "}"
        )
        model_docs.append(
            f'{{"group": {model.group}, "features": {features_json}, '
            f'"log_prior": {prior_json}, "log_likelihood": {ll_json}, '
            f'"alpha": {_fmt_float(model.alpha)}, "train_counts": {counts_json}}}'
        )
    models_json = "[\n" + ",\n".join(model_docs) + "\n]" if model_docs else "[]"
    return f'{{"config": {config_json}, "meta": {meta_json}, "models": {models_json}}}\n'


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(bundle_to_json(bundle))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleValidationError(message)


def _integer(value, where: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{where} must be an integer, got {type(value).__name__}",
    )
    return value


def _numbers(values: list, where: str) -> list[float]:
    """JSON numbers as floats; anything else (bool and str included) is rejected."""
    _require(set(map(type, values)) <= {int, float}, f"{where} must hold only numbers")
    try:
        return list(map(float, values))
    except OverflowError:
        raise BundleValidationError(f"{where} holds an integer too large for a float") from None


def _object(value, where: str) -> dict:
    _require(isinstance(value, dict), f"{where} must be an object")
    return value


def bundle_from_json(text: str) -> ModelBundle:
    """Parse and re-validate a bundle document.

    Any malformed document raises BundleValidationError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleValidationError(f"invalid bundle JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise BundleValidationError(f"invalid bundle JSON: {exc}") from None
    doc = _object(doc, "bundle")
    raw_config = _object(doc.get("config"), "bundle 'config'")
    raw_meta = _object(doc.get("meta"), "bundle 'meta'")
    raw_models = doc.get("models")
    _require(isinstance(raw_models, list), "bundle 'models' must be an array")

    try:
        config = GroupingConfig(
            group_size_bytes=raw_config["group_size_bytes"],
            max_size_bytes=raw_config["max_size_bytes"],
            min_per_class=raw_config["min_per_class"],
        )
        meta = BundleMeta(
            k=_integer(raw_meta["k"], "meta.k"),
            alpha=_numbers([raw_meta["alpha"]], "meta.alpha")[0],
            seed=_integer(raw_meta["seed"], "meta.seed"),
            created_at=raw_meta["created_at"],
        )
    except (KeyError, InvalidConfigError) as exc:
        raise BundleValidationError(f"bad bundle config/meta: {exc}") from None
    _require(meta.k >= 1, "meta.k must be positive")
    _require(meta.alpha > 0 and math.isfinite(meta.alpha), "meta.alpha must be positive and finite")
    _require(isinstance(meta.created_at, str), "meta.created_at must be a string")

    models = []
    for position, raw in enumerate(raw_models):
        where = f"models[{position}]"
        raw = _object(raw, where)
        try:
            group = _integer(raw["group"], f"{where}.group")
            feature_list = raw["features"]
            raw_prior = _object(raw["log_prior"], f"{where}.log_prior")
            raw_ll = _object(raw["log_likelihood"], f"{where}.log_likelihood")
            alpha = _numbers([raw["alpha"]], f"{where}.alpha")[0]
            raw_counts = _object(raw["train_counts"], f"{where}.train_counts")
        except KeyError as exc:
            raise BundleValidationError(f"{where}: missing {exc}") from None
        _require(
            isinstance(feature_list, list) and all(isinstance(op, str) for op in feature_list),
            f"{where}: 'features' must be an array of strings",
        )
        features = FeatureSet(tuple(feature_list), meta.k)
        log_prior: dict[Label, float] = {}
        log_likelihood: dict[Label, dict[str, float]] = {}
        train_counts: dict[Label, int] = {}
        for c in CLASSES:
            _require(c.value in raw_prior, f"{where}: log_prior missing {c.value!r}")
            log_prior[c] = _numbers([raw_prior[c.value]], f"{where}.log_prior")[0]
            row = raw_ll.get(c.value)
            _require(isinstance(row, dict), f"{where}: log_likelihood missing {c.value!r}")
            _require(
                set(row) == set(feature_list),
                f"{where}: {c.value} likelihood keys do not match the feature list",
            )
            values = _numbers([row[op] for op in feature_list], f"{where}.log_likelihood")
            log_likelihood[c] = dict(zip(feature_list, values))
            _require(c.value in raw_counts, f"{where}: train_counts missing {c.value!r}")
            train_counts[c] = _integer(raw_counts[c.value], f"{where}.train_counts")
        models.append(
            GroupModel(
                group=group,
                features=features,
                log_prior=log_prior,
                log_likelihood=log_likelihood,
                alpha=alpha,
                train_counts=train_counts,
            )
        )
    return build_bundle(models, config, meta)


def load_bundle(path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as fp:
        return bundle_from_json(fp.read())


def write_predictions(run: TimedRun, samples: Sequence[SampleRecord], sink: TextIO) -> None:
    """Emit one JSONL object per input sample (error entries included)."""
    by_index = dict(run.errors)
    for i, sample in enumerate(samples):
        prediction = run.predictions[i]
        if prediction is None:
            sink.write(json.dumps({"id": sample.id, "error": by_index[i]}) + "\n")
            continue
        scores = prediction.log_posterior
        sink.write(
            f'{{"id": {json.dumps(sample.id)}, '
            f'"label": {json.dumps(prediction.label.value)}, '
            f'"log_posterior": {{"malware": {_fmt_float(scores[Label.MALWARE])}, '
            f'"benign": {_fmt_float(scores[Label.BENIGN])}}}, '
            f'"effective_group": {prediction.effective_group}}}\n'
        )
