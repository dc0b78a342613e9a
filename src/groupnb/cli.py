"""Command-line front end.

Subcommands cover the full pipeline: gen (synthetic corpus), split
(stratified train/test), train (per-group models to a bundle file),
classify (sequential or lane-parallel batch prediction), bench (the
timing sweep to CSV), and score (accuracy plus per-class
precision/recall from a prediction file).

split, train and bench group by the default GroupingConfig (no flag
changes it); classify routes by the geometry stored in the bundle, so
a bundle trained through the API with another geometry works here too.
Every file read is UTF-8 text. A data error on a line of a corpus or
prediction file names the file as given, then the line.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(any DataError), 3 I/O error or a worker lane of classify --parallel
that died before returning its chunk.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from typing import Iterator, Sequence, TextIO

from . import bench as bench_mod
from . import engine
from .corpus import (
    CLASSES,
    GroupedCorpus,
    GroupingConfig,
    Label,
    _documents,
    _record_header,
    parse_corpus,
    partition_by_group,
    serialize_sample,
    split_train_test,
)
from .classifier import checked_alpha
from .errors import (
    DataError, IntegrityError, InvalidConfigError, LaneError, ParseError, non_negative_int, positive_int,
)
from .lanes import host_threads
from .synth import SyntheticSpec, generate_synthetic


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data
    # errors, so route usage failures to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected TRAIN:TEST, got {text!r}")
    try:
        train, test = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected TRAIN:TEST, got {text!r}") from None
    if train < 1 or test < 1:
        raise argparse.ArgumentTypeError(f"ratio parts must be positive, got {text!r}")
    return train, test


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupnb", description="group-wise opcode-frequency classifier")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic corpus")
    p.add_argument("--groups", type=int, required=True, help="size groups to cover, at most 100")
    p.add_argument("--per-class", type=int, required=True, dest="per_class",
                   help="samples per group per class")
    p.add_argument("--vocab", type=int, default=64, help="opcode vocabulary size")
    p.add_argument("--divergence", type=float, default=0.8,
                   help="class-distribution separation in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus JSONL path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL path")
    p.add_argument("--ratio", type=_ratio, default=(2, 1), help="TRAIN:TEST, default 2:1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", required=True, help="output train JSONL path")
    p.add_argument("--test", required=True, help="output test JSONL path")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train per-group models into a bundle")
    p.add_argument("--in", dest="input", required=True, help="train JSONL path")
    p.add_argument("--k", type=int, required=True, help="features per group")
    p.add_argument("--alpha", type=float, default=1.0, help="smoothing pseudo-count")
    p.add_argument("--out", required=True, help="bundle JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="classify a corpus with a trained bundle")
    p.add_argument("--bundle", required=True, help="bundle JSON path")
    p.add_argument("--in", dest="input", required=True, help="input JSONL path")
    p.add_argument("--lanes", type=int, default=host_threads(),
                   help="at most this many lanes for --parallel, capped at the CPUs this "
                        "process may use (the default); a batch gets one per 512 samples")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--parallel", action="store_true", help="use worker-process lanes")
    mode.add_argument("--sequential", action="store_true", help="single-threaded (default)")
    p.add_argument("--out", required=True, help="prediction JSONL path")
    p.set_defaults(func=_cmd_classify)

    # A sweep flag's dest is its BenchConfig field; a flag not given is left
    # out of the namespace, so BenchConfig's default applies.
    p = sub.add_parser("bench", help="sequential-vs-parallel timing sweep",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--train", required=True, help="train JSONL path")
    p.add_argument("--test", required=True, help="test JSONL path")
    p.add_argument("--k", type=_int_list, dest="k_values", metavar="K",
                   help="comma-separated feature budgets")
    p.add_argument("--batch-sizes", type=_int_list, dest="batch_sizes",
                   help="comma-separated batch sizes, in samples")
    p.add_argument("--lanes", type=int,
                   help="at most this many lanes per parallel run, capped at the CPUs this "
                        "process may use (the default)")
    p.add_argument("--reps", type=int, dest="repetitions", metavar="REPS",
                   help="repetitions per cell")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("score", help="accuracy and per-class precision/recall")
    p.add_argument("--preds", required=True, help="prediction JSONL path")
    p.add_argument("--truth", required=True, help="labeled JSONL path")
    p.set_defaults(func=_cmd_score)

    return parser


@contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """``path`` open for corpus._line_blocks; a ParseError or IntegrityError inside names it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        try:
            yield fp
        except (ParseError, IntegrityError) as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _read_corpus(path: str, *, allow_unlabeled: bool = False):
    with _reading(path) as fp:
        return parse_corpus(fp, allow_unlabeled=allow_unlabeled)


def _file_key(path: str):
    """(device, inode) of the file at ``path``, so a hard link matches; its real path if none."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _refuse_clashes(inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """InvalidConfigError for an output (flag -> path) that names an input or an earlier output."""
    earlier: dict[str, str] = {}
    for flag, path in outputs.items():
        key = _file_key(path)
        for other, other_path in inputs.items():
            if key == _file_key(other_path):
                raise InvalidConfigError(f"{flag} would overwrite {other}: {path}")
        for other, other_path in earlier.items():
            if key == _file_key(other_path):
                raise InvalidConfigError(f"{other} and {flag} name the same file: {path}")
        earlier[flag] = path


def _grouped(samples, what: str = "samples") -> GroupedCorpus:
    """Bucket samples by the default geometry; warn about the ones outside its size range."""
    grouped, rejected = partition_by_group(samples, GroupingConfig())
    if rejected:
        print(f"warning: skipped {len(rejected)} {what} outside the size range", file=sys.stderr)
    return grouped


def _write_corpus(path: str, samples) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for sample in samples:
            fp.write(serialize_sample(sample) + "\n")


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        group_count=args.groups,
        samples_per_group_per_class=args.per_class,
        vocabulary_size=args.vocab,
        divergence=args.divergence,
        seed=args.seed,
    )
    samples = generate_synthetic(spec)
    _write_corpus(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_split(args) -> int:
    non_negative_int("seed", args.seed)
    _refuse_clashes({"--in": args.input}, {"--train": args.train, "--test": args.test})
    grouped = _grouped(_read_corpus(args.input))
    result = split_train_test(grouped, args.ratio, args.seed)
    _write_corpus(args.train, result.train.all_samples())
    _write_corpus(args.test, result.test.all_samples())
    print(
        f"split {grouped.sample_count()} samples "
        f"{args.ratio[0]}:{args.ratio[1]} -> "
        f"{result.train.sample_count()} train, {result.test.sample_count()} test"
    )
    return 0


def _cmd_train(args) -> int:
    positive_int("k", args.k)
    checked_alpha(args.alpha)
    _refuse_clashes({"--in": args.input}, {"--out": args.out})
    grouped = _grouped(_read_corpus(args.input))
    bundle = engine.train_bundles(grouped, (args.k,), args.alpha)[args.k]
    engine.save_bundle(bundle, args.out)
    print(f"trained {len(bundle.trained_ids)} group models (k={args.k}) to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    positive_int("lanes", args.lanes)
    _refuse_clashes({"--bundle": args.bundle, "--in": args.input}, {"--out": args.out})
    bundle = engine.load_bundle(args.bundle)
    samples = _read_corpus(args.input, allow_unlabeled=True)
    workload = engine.Workload(samples=tuple(samples), lanes=min(args.lanes, host_threads()))
    classify = engine.classify_parallel if args.parallel else engine.classify_sequential
    run = classify(bundle, workload, warmup=False)
    with open(args.out, "w", encoding="utf-8") as fp:
        engine.write_predictions(run, samples, fp)
    mode = "parallel" if args.parallel else "sequential"
    lanes = "1 lane" if run.lanes == 1 else f"{run.lanes} lanes"
    print(
        f"classified {len(samples)} samples ({mode}, {lanes}, {len(run.errors)} errors) "
        f"in {run.elapsed_ns} ns"
    )
    return 0


def _cmd_bench(args) -> int:
    given = vars(args)
    if "lanes" in given:
        given["lanes"] = min(given["lanes"], host_threads())
    config = bench_mod.BenchConfig(
        **{f.name: given[f.name] for f in fields(bench_mod.BenchConfig) if f.name in given})
    _refuse_clashes({"--train": args.train, "--test": args.test}, {"--out": args.out})
    train_samples = _read_corpus(args.train)
    test_samples = _read_corpus(args.test)
    rows = bench_mod.run_bench(_grouped(train_samples, "train samples"), test_samples, config)
    with open(args.out, "w", encoding="utf-8") as fp:
        bench_mod.emit_csv(rows, fp)
    print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


def _division(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


def _cmd_score(args) -> int:
    truth = {s.id: s.label for s in _read_corpus(args.truth)}
    predicted: dict[str, Label] = {}
    seen: set[str] = set()
    errors = 0
    with _reading(args.preds) as fp:
        for line_no, doc, *_ in _documents(fp, {}):
            pid, label = _record_header(line_no, doc, seen, allow_unlabeled=True)
            if pid not in truth:
                raise IntegrityError(f"prediction id {pid!r} at line {line_no} is missing from truth")
            if "error" in doc:
                errors += 1
            elif label is Label.UNKNOWN:
                raise ParseError(line_no, "missing 'label'")
            else:
                predicted[pid] = label

    pairs = Counter((truth[i], label) for i, label in predicted.items())  # (truth, predicted)
    per_class = {
        c.value: {
            "precision": _division(pairs[c, c], sum(pairs[t, c] for t in CLASSES)),
            "recall": _division(pairs[c, c], sum(pairs[c, p] for p in CLASSES)),
        }
        for c in CLASSES
    }
    payload = {
        "accuracy": _division(sum(pairs[c, c] for c in CLASSES), len(predicted)),
        "samples": len(predicted),
        "errors": errors,
        "missing": len(truth.keys() - seen),
        "per_class": per_class,
    }
    print(json.dumps(payload))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"groupnb: config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"groupnb: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"groupnb: i/o error: {exc}", file=sys.stderr)
        return 3
    except LaneError as exc:
        print(f"groupnb: lane error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
