"""Workload inputs, the correctness gate, the closed measurement loop and the metrics.

Every workload runs in three phases:

1. set-up (timed, three times; the median is ``setup_s``): synthetic
   corpus generation, splitting, training and writing the JSONL and
   bundle files the program then reads;
2. the gate (untimed; it also warms caches): references for every input,
   checked against an oracle, per-sample ``predict``, the CLI and the
   other classify mode, plus bundle round-trips;
3. measurement: one client in a closed loop sends the next operation
   when the previous one has returned, for the given number of seconds.
   Every operation's output is compared with its reference.

With tracing on, set-up runs once. Set-up, the gate and the second half
of the measurement are traced; the first half runs untraced so that the
tracing overhead can be stated.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from groupnb import engine
from groupnb.corpus import GroupingConfig, serialize_sample, split_train_test
from groupnb.synth import SyntheticSpec, generate_synthetic

from . import flows, hostspeed, tracing
from .flows import require

LANES = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
GROUP_BYTES = GroupingConfig().group_size_bytes
OVERSIZE_BYTES = GroupingConfig().max_size_bytes


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload; ``SIZES`` holds a full and a tiny one."""

    spec: tuple[int, int, int, float]  # groups, per class, vocabulary, divergence
    ks: tuple[int, ...]
    batch: int = 0
    batches: int = 1
    tail_spec: tuple[int, int, int, float] | None = None
    tail_share: float = 0.0
    oversize_share: float = 0.0
    check_stride: int = 16


SIZES = {
    "full": {
        "bulk_scan": Shape(spec=(100, 30, 256, 0.3), ks=(200,), batch=4000),
        "small_batches": Shape(
            spec=(20, 15, 256, 0.3), ks=(80,), batch=64, batches=48,
            tail_spec=(100, 3, 256, 0.3), tail_share=0.1, oversize_share=0.01, check_stride=4,
        ),
        "train_sweep": Shape(spec=(20, 30, 512, 0.3), ks=(20, 80, 200)),
    },
    "tiny": {
        "bulk_scan": Shape(spec=(4, 9, 32, 0.3), ks=(20,), batch=48, check_stride=1),
        "small_batches": Shape(
            spec=(6, 9, 32, 0.3), ks=(10,), batch=16, batches=3,
            tail_spec=(10, 3, 32, 0.3), tail_share=0.2, oversize_share=0.05, check_stride=1,
        ),
        "train_sweep": Shape(spec=(3, 9, 64, 0.3), ks=(5, 10), check_stride=1),
    },
}


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: which corpus it uses and how operations run.

    ``lanes`` None means the classify operations run sequentially.
    """

    name: str
    corpus: str
    lanes: int | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk_scan_seq", "bulk_scan", None,
                 "one large batch, classified sequentially: parsing, the k-bound kernel and "
                 "writing dominate"),
        Workload("bulk_scan_par", "bulk_scan", LANES,
                 "the same large batch over worker lanes: adds pool start-up and result IPC"),
        Workload("small_batches_seq", "small_batches", None,
                 "64-sample batches, each a full classify call: fixed per-call costs, fallback "
                 "routing and rejections"),
        Workload("small_batches_par", "small_batches", LANES,
                 "the same small batches over worker lanes: pool start-up on every call"),
        Workload("train_sweep", "train_sweep", None,
                 "wide-vocabulary training at k = 20, 80, 200: scoring, top-k, NB training and "
                 "bundle writing"),
    )
}


@dataclass
class Counter:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, check, *args):
        """Run one check or operation; any exception counts as a failure."""
        self.attempted += 1
        try:
            return check(*args)
        except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class Inputs:
    """Files the program reads, plus what the gate learns about them."""

    dir: Path
    bundle_path: Path | None = None
    in_paths: list[Path] = field(default_factory=list)
    train_path: Path | None = None
    grouped: object = None
    oversize: int = 0
    expected: dict[int, bytes] = field(default_factory=dict)  # output per input file
    expected_bundles: dict[int, bytes] = field(default_factory=dict)  # bundle file per k


# --- set-up --------------------------------------------------------------------


def _write_jsonl(path: Path, samples) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for sample in samples:
            fp.write(serialize_sample(sample) + "\n")


def _generate(tracer, shape, seed: int):
    spec = SyntheticSpec(*shape, seed)
    with tracer.span("synth.generate_synthetic", samples=2 * spec.group_count
                     * spec.samples_per_group_per_class):
        return generate_synthetic(spec)


def _split(tracer, samples, seed: int):
    grouped = flows.partition(tracer, samples)
    with tracer.span("corpus.split_train_test", samples=len(samples)):
        return split_train_test(grouped, (2, 1), seed)


def _train_and_save(tracer, inputs: Inputs, grouped, k: int) -> None:
    inputs.grouped = grouped
    inputs.bundle_path = inputs.dir / "bundle.json"
    flows.save(tracer, flows.train(tracer, grouped, k), inputs.bundle_path)


def setup_bulk(tracer, shape: Shape, seed: int, inputs: Inputs) -> None:
    """All groups trained; the test split cycled to one batch with unique ids."""
    split = _split(tracer, _generate(tracer, shape.spec, seed), seed)
    _train_and_save(tracer, inputs, split.train, shape.ks[0])
    test = split.test.all_samples()
    batch = [
        dataclasses.replace(test[i % len(test)], id=f"{test[i % len(test)].id}~{i // len(test)}")
        for i in range(shape.batch)
    ]
    path = inputs.dir / "batch.jsonl"
    _write_jsonl(path, batch)
    inputs.in_paths = [path]


def setup_small(tracer, shape: Shape, seed: int, inputs: Inputs) -> None:
    """Dense low groups are trained; every sixth keeps only three samples per
    class and a sparse high tail stays untrained, so both fallback
    directions occur. Batches weight low groups most, and an oversize
    sample replaces a drawn one with probability ``oversize_share``.
    """
    dense = _generate(tracer, shape.spec, seed)
    n_dense = shape.spec[0]
    kept: dict[tuple[int, str], int] = {}
    corpus = []
    for sample in dense:
        g = sample.size_bytes // GROUP_BYTES
        key = (g, sample.label.value)
        kept[key] = kept.get(key, 0) + 1
        if g % 6 != 5 or kept[key] <= 3:
            corpus.append(sample)
    corpus += [
        s for s in _generate(tracer, shape.tail_spec, seed + 1)
        if s.size_bytes // GROUP_BYTES >= n_dense
    ]
    split = _split(tracer, corpus, seed)
    _train_and_save(tracer, inputs, split.train, shape.ks[0])

    by_group = split.test.groups
    low = [g for g in sorted(by_group) if g < n_dense]
    tail = [s for g in sorted(by_group) if g >= n_dense for s in by_group[g]]
    weights = [n_dense - g for g in low]
    rng = random.Random(seed)
    inputs.in_paths = []
    for b in range(shape.batches):
        batch = []
        for j in range(shape.batch):
            if rng.random() < shape.tail_share:
                sample = rng.choice(tail)
            else:
                sample = rng.choice(by_group[rng.choices(low, weights)[0]])
            size = sample.size_bytes
            if rng.random() < shape.oversize_share:
                size = OVERSIZE_BYTES + rng.randrange(OVERSIZE_BYTES)
                inputs.oversize += 1
            batch.append(dataclasses.replace(sample, id=f"{sample.id}~{b}.{j}", size_bytes=size))
        path = inputs.dir / f"batch{b:03d}.jsonl"
        _write_jsonl(path, batch)
        inputs.in_paths.append(path)


def setup_train(tracer, shape: Shape, seed: int, inputs: Inputs) -> None:
    """One labeled corpus file; the operation parses and trains on all of it."""
    inputs.train_path = inputs.dir / "train.jsonl"
    _write_jsonl(inputs.train_path, _generate(tracer, shape.spec, seed))


SETUPS = {"bulk_scan": setup_bulk, "small_batches": setup_small, "train_sweep": setup_train}


# --- the gate --------------------------------------------------------------------


@dataclass
class GateFacts:
    """What the gate measured besides pass/fail; reported by the traced run."""

    classified: int = 0
    rejected: int = 0
    fallback: int = 0
    features_hit: float = 0.0
    ipc_bytes: int = 0
    kernel_speedup: float = 0.0


def _expected_output(tracer, inputs: Inputs, index: int, facts: GateFacts) -> None:
    """Sequential classify of one input: its output becomes the reference."""
    out = inputs.dir / f"ref{index:03d}.jsonl"
    flows.classify_flow(tracer, inputs.bundle_path, inputs.in_paths[index], out, None)
    expected = flows.read_bytes(out)
    inputs.expected[index] = expected
    rejected, fallback = flows.check_against_oracle(
        inputs.bundle_path, inputs.in_paths[index], expected)
    facts.classified += expected.count(b"\n")
    facts.rejected += rejected
    facts.fallback += fallback


def _check_batch(tracer, workload: Workload, inputs: Inputs, shape: Shape, facts: GateFacts,
                 trace: bool) -> None:
    """On input 0: the parallel flow, per-sample predict, the CLI in the
    workload's mode and, traced, the kernel speedup."""
    expected = inputs.expected[0]
    out = inputs.dir / "check.jsonl"
    bundle, samples, run = flows.classify_flow(
        tracer, inputs.bundle_path, inputs.in_paths[0], out, LANES)
    require(flows.read_bytes(out) == expected, "parallel output differs from sequential")
    facts.ipc_bytes = flows.ipc_result_bytes(run)
    facts.features_hit = flows.check_predict_subset(
        tracer, bundle, samples, run, shape.check_stride)
    flows.check_cli_classify(inputs.bundle_path, inputs.in_paths[0], out, workload.lanes,
                             expected)
    if trace:
        # Tc/Tp as the paper takes it: warmed runs, medians of three.
        seq = [flows.classify(tracer, bundle, samples, None, warmup=True) for _ in range(3)]
        par = [flows.classify(tracer, bundle, samples, LANES, warmup=True) for _ in range(3)]
        for r in seq + par:
            require(r.predictions == run.predictions, "warmed run differs")
        facts.kernel_speedup = engine.speedup(
            statistics.median(r.elapsed_ns for r in seq),
            statistics.median(r.elapsed_ns for r in par))


def _check_traced_training(inputs: Inputs, k: int) -> None:
    """Training split into its public steps must equal train_bundle."""
    bundle = engine.train_bundle(inputs.grouped, k, flows.ALPHA, created_at=flows.CREATED_AT)
    require(engine.bundle_to_json(bundle).encode() == flows.read_bytes(inputs.bundle_path),
            "traced training gives another bundle than train_bundle")


def _train_outputs(inputs: Inputs, shape: Shape, tag: str) -> dict[int, Path]:
    return {k: inputs.dir / f"{tag}-k{k}.json" for k in shape.ks}


def gate(tracer, workload: Workload, shape: Shape, inputs: Inputs, counter: Counter,
         trace: bool) -> GateFacts:
    facts = GateFacts()
    if workload.corpus == "train_sweep":
        # The references are made untraced, so traced operations are compared
        # with untraced outputs.
        paths = _train_outputs(inputs, shape, "ref")
        counter.record(flows.train_flow, tracing.NullTracer(), inputs.train_path, paths)
        for k, path in paths.items():
            inputs.expected_bundles[k] = flows.read_bytes(path)
            counter.record(flows.check_bundle_round_trip, tracer, path)
        k = shape.ks[len(shape.ks) // 2]
        counter.record(flows.check_cli_train, inputs.train_path, k,
                       inputs.dir / "cli-bundle.json", inputs.expected_bundles[k])
        # Classify the training corpus with the middle bundle, so the classify
        # checks run on this workload too.
        inputs.bundle_path = paths[k]
        inputs.in_paths = [inputs.train_path]
    else:
        counter.record(flows.check_bundle_round_trip, tracer, inputs.bundle_path)
        if trace:
            counter.record(_check_traced_training, inputs, shape.ks[0])
    for index in range(len(inputs.in_paths)):
        counter.record(_expected_output, tracer, inputs, index, facts)
    if 0 in inputs.expected:
        counter.record(_check_batch, tracer, workload, inputs, shape, facts, trace)
    counter.record(_check_rejections, facts, inputs)
    return facts


def _check_rejections(facts: GateFacts, inputs: Inputs) -> None:
    """Oversize samples are rejected one by one, and nothing else is."""
    require(facts.rejected == inputs.oversize,
            f"{facts.rejected} rejections for {inputs.oversize} oversize samples generated")


# --- measurement ----------------------------------------------------------------------


@dataclass
class Samples:
    """Wall time, the same at the nominal host speed, and sample count of
    every successful operation."""

    latencies_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)
    samples: int = 0


def _operation(workload: Workload, shape: Shape, inputs: Inputs):
    """A function (tracer, i) -> samples for the i-th operation, checked against its reference."""
    if workload.corpus == "train_sweep":
        paths = _train_outputs(inputs, shape, "op")

        def op(tracer, i):
            n = flows.train_flow(tracer, inputs.train_path, paths)
            return n, [(flows.read_bytes(p), inputs.expected_bundles[k])
                       for k, p in paths.items()]
    else:
        out = inputs.dir / "op.jsonl"

        def op(tracer, i):
            j = i % len(inputs.in_paths)
            _, samples, _ = flows.classify_flow(
                tracer, inputs.bundle_path, inputs.in_paths[j], out, workload.lanes)
            return len(samples), [(flows.read_bytes(out), inputs.expected[j])]
    return op


def measure(op, tracer, seconds: float, counter: Counter, speed: hostspeed.Reference,
            start: int = 0) -> Samples:
    """Closed loop, one client: run operations back to back until ``seconds`` pass.

    The host-speed reference runs between operations, so every operation
    has a sample right before and right after it.
    """
    result = Samples()
    deadline = time.perf_counter() + seconds
    i = start
    before = speed.sample()
    while i == start or time.perf_counter() < deadline:
        outcome = counter.record(_checked_op, op, tracer, i)
        after = speed.sample(hostspeed.SHARE * (outcome[0] if outcome else 0.0))
        i += 1
        if outcome is not None:
            result.latencies_s.append(outcome[0])
            result.scaled_s.append(hostspeed.scaled(outcome[0], before, after))
            result.samples += outcome[1]
        before = after
    return result


def _checked_op(op, tracer, i) -> tuple[float, int]:
    """Run operation i; its wall time is taken before its outputs are compared."""
    t0 = time.perf_counter()
    with tracer.span("bench.operation"):
        n, outputs = op(tracer, i)
    elapsed = time.perf_counter() - t0
    for got, want in outputs:
        require(got == want, f"operation {i}: output differs from its reference")
    return elapsed, n


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_note(latencies_s: list[float]) -> str:
    """The highest of p99..p50 with at least ten operations beyond it, else the maximum."""
    for q in (99, 95, 90, 75, 50):
        value = percentile(latencies_s, q)
        beyond = sum(1 for x in latencies_s if x > value)
        if beyond >= 10:
            return (f"latency tail: p{q} = {value * 1e3:.6g} ms, {beyond} of "
                    f"{len(latencies_s)} operations beyond it")
    return (f"latency tail: max = {max(latencies_s) * 1e3:.6g} ms of {len(latencies_s)} "
            "operations (too few for a percentile with ten beyond it)")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# --- one run ----------------------------------------------------------------------------


@dataclass
class RunResult:
    counter: Counter
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, size: str, work_root: Path,
        trace_path: Path | None = None) -> RunResult:
    workload = WORKLOADS[name]
    shape = SIZES[size][workload.corpus]
    counter = Counter()
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    work = work_root / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    speed = hostspeed.Reference()
    try:
        inputs, setup_times = _setups(tracer, workload, shape, seed, work, trace, counter, speed)
        facts = gate(tracer, workload, shape, inputs, counter, trace)
        op = _operation(workload, shape, inputs)
        # A groupnb process holds only its own objects; keep the benchmark's
        # set-up and gate objects out of the collector's way while measuring.
        inputs.grouped = None
        gc.collect()
        gc.freeze()
        if trace:
            plain = measure(op, tracing.NullTracer(), seconds / 2, counter, speed)
            traced = measure(op, tracer, seconds / 2, counter, speed,
                             start=len(plain.latencies_s) + 1)
            metrics = layer_metrics(tracer, facts, plain, traced)
            notes = []
            if trace_path is not None:
                tracer.dump(trace_path)
        else:
            done = measure(op, tracer, seconds, counter, speed)
            metrics, notes = end_to_end_metrics(workload, done, setup_times)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    return RunResult(counter, metrics, notes)


def _setups(tracer, workload, shape, seed, work, trace, counter, speed):
    """Set up ``SETUP_REPEATS`` times (once when traced); all copies must be identical.

    Returns the last copy and each set-up's (wall, nominal-speed) seconds.
    """
    times = []
    copies = []
    for rep in range(1 if trace else SETUP_REPEATS):
        if copies:
            copies[-1].grouped = None
        gc.collect()
        inputs = Inputs(work / f"setup{rep}")
        inputs.dir.mkdir(parents=True)
        before = speed.sample(hostspeed.SHARE * times[-1][0] if times else 0.0)
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            SETUPS[workload.corpus](tracer, shape, seed, inputs)
        elapsed = time.perf_counter() - t0
        after = speed.sample(hostspeed.SHARE * elapsed)
        times.append((elapsed, hostspeed.scaled(elapsed, before, after)))
        copies.append(inputs)
    counter.record(_same_setups, copies)
    return copies[-1], times


def _same_setups(copies: list[Inputs]) -> None:
    def files(inputs):
        paths = [inputs.bundle_path, inputs.train_path, *inputs.in_paths]
        return [flows.read_bytes(p) for p in paths if p is not None]

    first = files(copies[0])
    for other in copies[1:]:
        require(files(other) == first, "set-up is not deterministic for a fixed seed")


def end_to_end_metrics(workload: Workload, done: Samples, setup_times):
    """Metrics of the untraced run, timings at the nominal host speed (see hostspeed).

    The latency tail and the wall-clock figures are printed as notes.
    """
    lat = done.scaled_s
    notes = [f"operations: {len(lat)} completed, closed loop, 1 client, lanes="
             f"{workload.lanes or 1}",
             "set-up wall: " + ", ".join(f"{wall:.4g}" for wall, _ in setup_times) + " s",
             f"timings at nominal host speed (reference pass = {hostspeed.NOMINAL_S * 1e3:g} ms)"]
    metrics = {"setup_s": (statistics.median(s for _, s in setup_times), "s")}
    if lat:
        wall = done.latencies_s
        notes += [f"wall clock: latency_p50_ms = {statistics.median(wall) * 1e3:.6g} ms, "
                  f"samples_per_s = {done.samples / sum(wall):.6g} 1/s",
                  tail_note(lat)]
        metrics.update({
            "samples_per_s": (done.samples / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        })
    return metrics, notes


def layer_metrics(tracer, facts: GateFacts, plain: Samples, traced: Samples):
    """Per-layer metrics from the spans of a traced run and the gate's facts."""
    spans = tracer.by_name()

    def calls(name):
        return spans.get(name, [])

    def unwarmed(name):
        return [s for s, _ in calls(name) if "warm" not in s.attrs]

    def kernel_ns_per_sample(name):
        return statistics.median(s.attrs["elapsed_ns"] / s.attrs["samples"] for s in unwarmed(name))

    parse = calls("corpus.parse_corpus")
    saves = calls("engine.save_bundle")
    loads = calls("engine.load_bundle")
    scored = calls("features.score_opcodes")
    return {
        "corpus.parse_us_per_sample": (tracing.self_ns_per_item(parse, "samples") / 1e3, "us"),
        "corpus.input_bytes": (statistics.mean(s.attrs["bytes"] for s, _ in parse), "bytes"),
        "corpus.partition_s": (tracing.median_self_s(calls("corpus.partition_by_group")), "s"),
        "classifier.predict_ns_per_sample": (
            tracing.self_ns_per_item(calls("classifier.predict"), "samples"), "ns"),
        "classifier.features_hit_per_sample": (facts.features_hit, "count"),
        "classifier.train_group_s": (tracing.median_self_s(calls("classifier.train_group")), "s"),
        "features.score_s": (tracing.median_self_s(scored), "s"),
        "features.select_s": (tracing.median_self_s(calls("features.select_top_k")), "s"),
        "features.opcodes_scored": (statistics.mean(s.attrs["opcodes"] for s, _ in scored),
                                    "count"),
        "engine.seq_kernel_ns_per_sample": (
            kernel_ns_per_sample("engine.classify_sequential"), "ns"),
        "engine.par_region_ns_per_sample": (kernel_ns_per_sample("engine.classify_parallel"), "ns"),
        "engine.pool_overhead_s": (
            statistics.median((s.duration_ns - s.attrs["elapsed_ns"]) / 1e9
                              for s in unwarmed("engine.classify_parallel")), "s"),
        "engine.ipc_result_bytes": (facts.ipc_bytes, "bytes"),
        "engine.kernel_speedup": (facts.kernel_speedup, "ratio"),
        "engine.load_bundle_s": (tracing.median_self_s(loads), "s"),
        "engine.save_bundle_s": (tracing.median_self_s(saves), "s"),
        "engine.build_bundle_s": (tracing.median_self_s(calls("engine.build_bundle")), "s"),
        "engine.bundle_bytes": (statistics.mean(s.attrs["bytes"] for s, _ in saves + loads),
                                "bytes"),
        "engine.write_s": (tracing.median_self_s(calls("engine.write_predictions")), "s"),
        "engine.fallback_routed_share": (
            facts.fallback / max(1, facts.classified - facts.rejected), "share"),
        "engine.rejected_share": (facts.rejected / max(1, facts.classified), "share"),
        "synth.generate_s": (tracing.median_self_s(calls("synth.generate_synthetic")), "s"),
        "bench.tracing_overhead_share": (
            statistics.median(traced.scaled_s) / statistics.median(plain.scaled_s) - 1,
            "share"),
    }
