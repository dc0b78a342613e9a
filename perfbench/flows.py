"""The benchmarked flows and the checks on their outputs.

``classify_flow`` makes the calls ``groupnb classify`` makes, and
``train_flow`` the calls ``groupnb train`` makes, each wrapped in a span
named after the layer it enters. With tracing on, training is split into
its public steps (score, select, train per group, then build) so that
each layer gets its own span; a check confirms the split produces the
same bundle bytes as ``train_bundle``.

The checks compare outputs byte for byte with references, with the CLI
itself, and with an oracle in this file that recomputes every prediction
from the bundle JSON and the input JSONL alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
from typing import Sequence

from groupnb import cli, engine
from groupnb.classifier import predict, train_group
from groupnb.corpus import GroupingConfig, parse_corpus, partition_by_group, trainable_groups
from groupnb.engine import BundleMeta, Workload
from groupnb.features import score_opcodes, select_top_k

CREATED_AT = "2000-01-01T00:00:00+00:00"
ALPHA = 1.0


class CheckFailed(Exception):
    """An output differs from what it must be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- flows -------------------------------------------------------------------


def classify_flow(tracer, bundle_path, in_path, out_path, lanes: int | None):
    """load_bundle -> parse_corpus -> classify -> write_predictions.

    ``lanes`` None runs classify_sequential, otherwise classify_parallel
    with that many lanes; neither warms up, as in the CLI.
    """
    with tracer.span("engine.load_bundle", bytes=os.path.getsize(bundle_path)):
        bundle = engine.load_bundle(bundle_path)
    with tracer.span("corpus.parse_corpus", bytes=os.path.getsize(in_path)) as span:
        with open(in_path, "r", encoding="utf-8") as fp:
            samples = parse_corpus(fp, allow_unlabeled=True)
        span.attrs["samples"] = len(samples)
    run = classify(tracer, bundle, samples, lanes, warmup=False)
    with tracer.span("engine.write_predictions", samples=len(samples)):
        with open(out_path, "w", encoding="utf-8") as fp:
            engine.write_predictions(run, samples, fp)
    return bundle, samples, run


def classify(tracer, bundle, samples: Sequence, lanes: int | None, *, warmup: bool):
    workload = Workload(tuple(samples), lanes or 1)
    if lanes is None:
        with tracer.span("engine.classify_sequential") as span:
            run = engine.classify_sequential(bundle, workload, warmup=warmup)
    else:
        with tracer.span("engine.classify_parallel") as span:
            run = engine.classify_parallel(bundle, workload, warmup=warmup)
    span.attrs.update(samples=len(samples), elapsed_ns=run.elapsed_ns)
    if warmup:
        span.attrs["warm"] = True
    return run


def train_flow(tracer, in_path, out_paths: dict[int, str]):
    """parse_corpus -> partition_by_group -> (train_bundle -> save_bundle) per k."""
    with tracer.span("corpus.parse_corpus", bytes=os.path.getsize(in_path)) as span:
        with open(in_path, "r", encoding="utf-8") as fp:
            samples = parse_corpus(fp)
        span.attrs["samples"] = len(samples)
    grouped = partition(tracer, samples)
    for k, path in out_paths.items():
        save(tracer, train(tracer, grouped, k), path)
    return len(samples)


def partition(tracer, samples):
    with tracer.span("corpus.partition_by_group", samples=len(samples)):
        grouped, rejected = partition_by_group(samples, GroupingConfig())
    require(not rejected, f"{len(rejected)} training samples fell outside the size range")
    return grouped


def train(tracer, grouped, k: int):
    """train_bundle, or with tracing on its public steps one span each."""
    if not tracer.enabled:
        return engine.train_bundle(grouped, k, ALPHA, created_at=CREATED_AT)
    config = grouped.config
    with tracer.span("engine.train_bundle", k=k):
        with tracer.span("corpus.trainable_groups"):
            groups = sorted(trainable_groups(grouped, config))
        models = []
        for g in groups:
            with tracer.span("features.score_opcodes") as span:
                table = score_opcodes(grouped.groups[g], group=g)
            span.attrs["opcodes"] = len(table.scores)
            with tracer.span("features.select_top_k"):
                features = select_top_k(table, k)
            with tracer.span("classifier.train_group"):
                models.append(train_group(grouped.groups[g], features, ALPHA, group=g))
        meta = BundleMeta(k=k, alpha=ALPHA, seed=0, created_at=CREATED_AT)
        with tracer.span("engine.build_bundle"):
            return engine.build_bundle(models, config, meta)


def save(tracer, bundle, path) -> None:
    with tracer.span("engine.save_bundle") as span:
        engine.save_bundle(bundle, path)
    span.attrs["bytes"] = os.path.getsize(path)


def read_bytes(path) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


# --- checks ------------------------------------------------------------------


def check_bundle_round_trip(tracer, path) -> None:
    """save -> load -> save must reproduce the file byte for byte."""
    text = read_bytes(path).decode("utf-8")
    with tracer.span("engine.load_bundle", bytes=len(text)):
        bundle = engine.load_bundle(path)
    require(engine.bundle_to_json(bundle) == text, f"bundle {path} does not round-trip")


def check_cli_classify(bundle_path, in_path, out_path, lanes: int | None, expected: bytes) -> None:
    """``groupnb classify`` must write exactly ``expected``."""
    argv = ["classify", "--bundle", str(bundle_path), "--in", str(in_path), "--out", str(out_path)]
    argv += ["--sequential"] if lanes is None else ["--parallel", "--lanes", str(lanes)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    require(code == 0, f"groupnb {' '.join(argv)} exited {code}")
    require(read_bytes(out_path) == expected, f"CLI classify ({argv[-1]}) output differs")


def check_cli_train(in_path, k: int, out_path, expected: bytes) -> None:
    """``groupnb train`` must write the same bundle, up to its creation time."""
    argv = ["train", "--in", str(in_path), "--k", str(k), "--out", str(out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    require(code == 0, f"groupnb {' '.join(argv)} exited {code}")
    got = json.loads(read_bytes(out_path))
    want = json.loads(expected)
    got["meta"]["created_at"] = want["meta"]["created_at"]
    require(got == want, f"CLI train at k={k} gives another bundle")


def oracle_lines(bundle_doc: dict, input_lines: Sequence[str]) -> list[dict]:
    """Expected prediction documents, computed from the file formats alone.

    Routing, scoring and the tie rule follow the README: group is
    size // width; an untrained group routes to the next trained group
    above, else the nearest below; scores are log prior plus count times
    log likelihood, summed in feature order; ties go to benign.
    """
    config = bundle_doc["config"]
    width, limit = config["group_size_bytes"], config["max_size_bytes"]
    models = {m["group"]: m for m in bundle_doc["models"]}
    trained = sorted(models)
    out = []
    for line in input_lines:
        sample = json.loads(line)
        size = sample["size_bytes"]
        if not 0 <= size < limit:
            out.append({"id": sample["id"], "error": True})
            continue
        group = size // width
        above = [g for g in trained if g >= group]
        effective = above[0] if above else trained[-1]
        model = models[effective]
        opcodes = sample["opcodes"]
        scores = {}
        for c in ("malware", "benign"):
            score = model["log_prior"][c]
            row = model["log_likelihood"][c]
            for op in model["features"]:
                n = opcodes.get(op)
                if n is not None:
                    score += n * row[op]
            scores[c] = score
        label = "malware" if scores["malware"] > scores["benign"] else "benign"
        out.append({"id": sample["id"], "label": label, "log_posterior": scores,
                    "effective_group": effective})
    return out


def check_against_oracle(bundle_path, in_path, predictions: bytes) -> tuple[int, int]:
    """Every prediction line must equal the oracle's; returns (rejected, fallback) counts."""
    bundle_doc = json.loads(read_bytes(bundle_path))
    with open(in_path, "r", encoding="utf-8") as fp:
        input_lines = [line for line in fp if line.strip()]
    expected = oracle_lines(bundle_doc, input_lines)
    got = [json.loads(line) for line in predictions.decode("utf-8").splitlines()]
    require(len(got) == len(expected), f"{len(got)} prediction lines for {len(expected)} inputs")
    width = bundle_doc["config"]["group_size_bytes"]
    rejected = fallback = 0
    for line, want, doc in zip(input_lines, expected, got):
        if "error" in want:
            require(set(doc) == {"id", "error"} and doc["id"] == want["id"],
                    f"{want['id']}: oversize sample not rejected")
            rejected += 1
            continue
        require(doc == want, f"{want['id']}: prediction differs from the oracle")
        if want["effective_group"] != json.loads(line)["size_bytes"] // width:
            fallback += 1
    return rejected, fallback


def check_predict_subset(tracer, bundle, samples: Sequence, run, stride: int) -> float:
    """Per-sample predict through route must match the batch run.

    Checks every ``stride``-th admissible sample; returns the mean number
    of histogram opcodes that are features of the routed model.
    """
    width = bundle.config.group_size_bytes
    limit = bundle.config.max_size_bytes
    hits = checked = 0
    for i in range(0, len(samples), stride):
        sample = samples[i]
        if not 0 <= sample.size_bytes < limit:
            continue
        with tracer.span("engine.route", samples=1):
            group = engine.route(bundle, sample.size_bytes // width)
        model = bundle.models[group]
        with tracer.span("classifier.predict", samples=1):
            prediction = predict(model, sample.histogram)
        require(prediction == run.predictions[i], f"{sample.id}: predict differs from the batch")
        features = set(model.features.opcodes)
        hits += sum(1 for op in sample.histogram.entries if op in features)
        checked += 1
    require(checked > 0, "no admissible sample to check")
    return hits / checked


def ipc_result_bytes(run) -> int:
    """Size of the predictions as the lanes pickle them back to the parent."""
    return len(pickle.dumps(list(run.predictions)))
