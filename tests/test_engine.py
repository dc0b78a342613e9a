"""Bundle assembly, routing, and the two classification paths."""

import copy
import dataclasses
import io
import json
import math
import multiprocessing
import statistics

import numpy as np
import pytest

from groupnb.corpus import GroupingConfig, Label, OpcodeHistogram
from groupnb.engine import (
    BundleMeta,
    ModelBundle,
    Workload,
    build_bundle,
    bundle_from_json,
    bundle_to_json,
    classify_parallel,
    classify_sequential,
    load_bundle,
    route,
    save_bundle,
    speedup,
    train_bundle,
    write_predictions,
)
from groupnb.errors import (
    BundleValidationError,
    EmptyBundleError,
    GroupNBError,
    IntegrityError,
    InvalidConfigError,
    LaneError,
    MeasurementError,
)
from groupnb.classifier import GroupModel, predict, train_group
from groupnb.features import FeatureSet

from groupnb.synth import SyntheticSpec, generate_synthetic

from helpers import deadline, grouped, kill_worker_lanes, make_sample, two_class_group

_META = BundleMeta(k=3, alpha=1.0, seed=0, created_at="2026-01-01T00:00:00+00:00")


def _model(group, features=("add", "evil", "mov")):
    samples = two_class_group(group)
    return train_group(samples, FeatureSet(tuple(features), _META.k), 1.0, group=group)


def _bundle(groups=(0, 1, 2)):
    config = GroupingConfig()
    return build_bundle([_model(g) for g in groups], config, _META)


def _workload(bundle, n, lanes, seed=0):
    """n samples drawn (with repeats) from the bundle's trained groups."""
    rng = np.random.default_rng(seed)
    pool = ["evil", "mov", "add", "jmp"]
    samples = []
    for i in range(n):
        g = int(rng.choice(bundle.trained_ids))
        size = g * 5120 + int(rng.integers(0, 5120))
        ops = {op: int(rng.integers(1, 9)) for op in pool if rng.integers(2)}
        samples.append(make_sample(f"w{i}", Label.UNKNOWN, size, ops or {"mov": 1}))
    return Workload(samples=tuple(samples), lanes=lanes)


class TestBuildBundle:
    def test_sorts_trained_ids(self):
        bundle = build_bundle([_model(3), _model(1), _model(2)], GroupingConfig(), _META)
        assert bundle.trained_ids == (1, 2, 3)
        assert list(bundle.models) == [1, 2, 3]

    def test_empty_bundle_is_valid_but_cannot_classify(self):
        bundle = build_bundle([], GroupingConfig(), _META)
        assert bundle.trained_ids == ()
        with pytest.raises(EmptyBundleError):
            classify_sequential(bundle, Workload(samples=(), lanes=1))
        with pytest.raises(EmptyBundleError):
            route(bundle, 0)

    def test_duplicate_group_rejected(self):
        with pytest.raises(IntegrityError):
            build_bundle([_model(7), _model(7)], GroupingConfig(), _META)

    def test_rejects_invalid_models(self):
        good = _model(0)
        config = GroupingConfig()
        cases = [
            dataclasses.replace(good, group=100),
            dataclasses.replace(good, alpha=-1.0),
            dataclasses.replace(
                good,
                log_prior={Label.MALWARE: math.log(0.6), Label.BENIGN: math.log(0.6)},
            ),
            dataclasses.replace(good, train_counts={Label.MALWARE: 0, Label.BENIGN: 6}),
            dataclasses.replace(
                good,
                log_likelihood={
                    Label.MALWARE: {op: float("-inf") for op in good.features.opcodes},
                    Label.BENIGN: dict(good.log_likelihood[Label.BENIGN]),
                },
            ),
        ]
        for bad in cases:
            with pytest.raises(BundleValidationError):
                build_bundle([bad], config, _META)

    def test_rejects_more_features_than_budget(self):
        samples = two_class_group(0)
        features = FeatureSet(("add", "evil", "mov"), 3)
        model = train_group(samples, features, 1.0, group=0)
        tight = BundleMeta(k=2, alpha=1.0, seed=0, created_at=_META.created_at)
        with pytest.raises(BundleValidationError):
            build_bundle([model], GroupingConfig(), tight)


class TestRoute:
    @pytest.mark.parametrize("query,expected", [(2, 2), (3, 4), (6, 4), (0, 1), (1, 1)])
    def test_next_trained_group_then_nearest_lower(self, query, expected):
        bundle = _bundle(groups=(1, 2, 4))
        assert route(bundle, query) == expected

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            ids = sorted(
                int(g) for g in rng.choice(100, size=int(rng.integers(1, 8)), replace=False)
            )
            bundle = _bundle(groups=tuple(ids))
            for g in rng.integers(0, 100, size=20):
                higher = [i for i in ids if i >= g]
                expected = min(higher) if higher else max(ids)
                assert route(bundle, int(g)) == expected


class TestWorkload:
    @pytest.mark.parametrize("lanes", [0, -2, 1.5, True])
    def test_rejects_bad_lane_counts(self, lanes):
        with pytest.raises(InvalidConfigError):
            Workload(samples=(), lanes=lanes)


class TestClassifySequential:
    def test_single_sample_smoke(self):
        bundle = _bundle()
        run = classify_sequential(bundle, _workload(bundle, 1, lanes=1))
        assert len(run.predictions) == 1
        assert run.errors == ()
        assert run.elapsed_ns > 0
        assert run.predictions[0].label in (Label.MALWARE, Label.BENIGN)

    def test_duplicated_samples_get_identical_predictions(self):
        bundle = _bundle()
        sample = _workload(bundle, 1, lanes=1).samples[0]
        run = classify_sequential(bundle, Workload(samples=(sample,) * 16, lanes=1))
        assert len(set((p.label, p.effective_group) for p in run.predictions)) == 1
        first = run.predictions[0]
        for p in run.predictions:
            assert p.log_posterior == first.log_posterior

    def test_effective_group_follows_routing(self):
        bundle = _bundle(groups=(1, 2, 4))
        sizes = [0, 5120 * 3 + 7, 5120 * 4, 5120 * 90]
        samples = tuple(
            make_sample(f"s{i}", Label.UNKNOWN, size, {"mov": 1}) for i, size in enumerate(sizes)
        )
        run = classify_sequential(bundle, Workload(samples=samples, lanes=1))
        groups = [p.effective_group for p in run.predictions]
        assert groups == [1, 4, 4, 4]

    def test_oversize_sample_yields_error_entry_not_abort(self):
        bundle = _bundle()
        good = _workload(bundle, 2, lanes=1).samples
        bad = make_sample("big", Label.UNKNOWN, 512000, {"mov": 1})
        run = classify_sequential(bundle, Workload(samples=(good[0], bad, good[1]), lanes=1))
        assert run.predictions[0] is not None
        assert run.predictions[1] is None
        assert run.predictions[2] is not None
        ((index, message),) = run.errors
        assert index == 1
        assert "512000" in message

    def test_warmup_flag_does_not_change_predictions(self):
        bundle = _bundle()
        workload = _workload(bundle, 20, lanes=1)
        warm = classify_sequential(bundle, workload, warmup=True)
        cold = classify_sequential(bundle, workload, warmup=False)
        assert warm.predictions == cold.predictions


class TestClassifyParallel:
    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_bit_identical_to_sequential(self, lanes):
        bundle = _bundle()
        workload = _workload(bundle, 60, lanes=lanes, seed=lanes)
        seq = classify_sequential(bundle, workload)
        par = classify_parallel(bundle, workload)
        assert par.predictions == seq.predictions
        assert par.errors == seq.errors
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_bit_identical_under_spawn(self, lanes, monkeypatch):
        methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        bundle = _bundle()
        good = list(_workload(bundle, 12, lanes=lanes, seed=lanes).samples)
        good[7] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        workload = Workload(samples=tuple(good), lanes=lanes)
        seq = classify_sequential(bundle, workload, warmup=False)
        with deadline(60):
            par = classify_parallel(bundle, workload, warmup=False)
        assert [_exact(p) for p in par.predictions] == [_exact(p) for p in seq.predictions]
        assert par.errors == seq.errors
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("warmup", [True, False])
    def test_dead_lane_raises_lane_error(self, warmup, monkeypatch):
        kill_worker_lanes(monkeypatch)
        bundle = _bundle()
        with deadline(30), pytest.raises(LaneError, match="lane 1 exited with code 9"):
            classify_parallel(bundle, _workload(bundle, 30, lanes=3), warmup=warmup)
        assert multiprocessing.active_children() == []

    def test_lane_left_by_the_caller_exits_quietly(self, monkeypatch, capfd):
        kill_worker_lanes(monkeypatch, start=20)
        bundle = _bundle()
        with deadline(30), pytest.raises(LaneError, match="lane 1 exited with code 9"):
            classify_parallel(bundle, _workload(bundle, 60, lanes=3))
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_error_entries_survive_parallelism(self):
        bundle = _bundle()
        good = list(_workload(bundle, 9, lanes=3).samples)
        good[4] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        workload = Workload(samples=tuple(good), lanes=3)
        seq = classify_sequential(bundle, workload)
        par = classify_parallel(bundle, workload)
        assert par.errors == seq.errors == ((4, "size_bytes 600000 outside [0, 512000)"),)
        assert par.predictions == seq.predictions

    def test_lanes_exceeding_samples(self):
        bundle = _bundle()
        workload = _workload(bundle, 3, lanes=8)
        par = classify_parallel(bundle, workload)
        seq = classify_sequential(bundle, workload)
        assert par.predictions == seq.predictions

    def test_empty_workload(self):
        bundle = _bundle()
        run = classify_parallel(bundle, Workload(samples=(), lanes=2))
        assert run.predictions == ()
        assert run.errors == ()


def _exact(prediction):
    """A prediction with its scores as float.hex, so -0.0 and 0.0 differ."""
    if prediction is None:
        return None
    scores = prediction.log_posterior
    return (
        prediction.label,
        prediction.effective_group,
        scores[Label.MALWARE].hex(),
        scores[Label.BENIGN].hex(),
    )


def _oracle(bundle, samples):
    """Per-sample route + classifier.predict, the scalar reference."""
    width = bundle.config.group_size_bytes
    limit = bundle.config.max_size_bytes
    return [
        _exact(predict(bundle.models[route(bundle, s.size_bytes // width)], s.histogram))
        if 0 <= s.size_bytes < limit
        else None
        for s in samples
    ]


def _assert_kernel_matches_oracle(bundle, samples):
    expected = _oracle(bundle, samples)
    for lanes in (None, 1, 2, 4):
        workload = Workload(samples=tuple(samples), lanes=lanes or 1)
        if lanes is None:
            run = classify_sequential(bundle, workload, warmup=False)
        else:
            run = classify_parallel(bundle, workload, warmup=False)
        assert [_exact(p) for p in run.predictions] == expected, lanes
        assert [i for i, _ in run.errors] == [i for i, e in enumerate(expected) if e is None]


class TestArrayKernel:
    """The batch kernel against per-sample log_posterior, bit for bit."""

    # Counts where an int-to-float conversion could round differently.
    _BIG = (2**53 + 1, 2**60 + 1, 2**63 + 1, 2**70 + 3, 10**300)

    def _bundle(self):
        """Models of different widths in groups 3, 40 and 41 only."""
        config = GroupingConfig()
        meta = BundleMeta(k=5, alpha=1.0, seed=0, created_at="t")
        models = []
        widths = {3: ("evil",), 40: ("mov", "add", "evil", "jmp"), 41: ("add", "mov")}
        for g, features in widths.items():
            samples = two_class_group(g)
            samples.append(make_sample(f"j{g}", Label.BENIGN, g * 5120, {"jmp": 2 + g}))
            models.append(train_group(samples, FeatureSet(features, 5), 0.5, group=g))
        return build_bundle(models, config, meta)

    def _samples(self, n, seed):
        """Sparse histograms over every group, with absent features and oversize files."""
        rng = np.random.default_rng(seed)
        pool = ["evil", "mov", "add", "jmp", "xor"]
        samples = []
        for i in range(n):
            if rng.random() < 0.05:
                size = 512000 + int(rng.integers(0, 10**6))
            else:
                size = int(rng.integers(0, 512000))
            ops = {}
            for op in pool:
                if rng.random() < 0.5:
                    continue
                draw = rng.random()
                if draw < 0.1:
                    ops[op] = self._BIG[int(rng.integers(len(self._BIG)))]
                elif draw < 0.3:
                    ops[op] = int(rng.integers(1, 2**60 + 2))
                else:
                    ops[op] = int(rng.integers(1, 50))
            samples.append(make_sample(f"r{i}", Label.UNKNOWN, size, ops))
        return samples

    @pytest.mark.parametrize("n", [0, 1, 64, 4000])
    def test_random_sparse_batches(self, n):
        bundle = self._bundle()
        samples = self._samples(n, seed=n)
        if n >= 64:
            groups = {route(bundle, s.size_bytes // 5120) for s in samples if s.size_bytes < 512000}
            assert groups == {3, 40, 41}  # fallback both upward and downward
        _assert_kernel_matches_oracle(bundle, samples)

    def test_trained_bundle_with_gaps(self):
        spec = SyntheticSpec(
            group_count=12,
            samples_per_group_per_class=8,
            vocabulary_size=48,
            divergence=0.4,
            seed=3,
        )
        corpus = generate_synthetic(spec)
        full = train_bundle(grouped(corpus), k=30, created_at="t")
        kept = [full.models[g] for g in full.trained_ids if g % 3 == 1]
        bundle = build_bundle(kept, full.config, full.meta)
        rng = np.random.default_rng(8)
        samples = [corpus[int(i)] for i in rng.integers(0, len(corpus), size=300)]
        samples[7] = make_sample("big", Label.UNKNOWN, 700000, {"op001": 1})
        _assert_kernel_matches_oracle(bundle, samples)

    def test_signed_zero_survives(self):
        """A -0.0 prior plus absent features stays -0.0; a 0.0 likelihood term makes +0.0."""
        model = GroupModel(
            group=0,
            features=FeatureSet(("a", "b"), 3),
            log_prior={Label.MALWARE: -0.0, Label.BENIGN: -800.0},
            log_likelihood={
                Label.MALWARE: {"a": 0.0, "b": -800.0},
                Label.BENIGN: {"a": -800.0, "b": 0.0},
            },
            alpha=1.0,
            train_counts={Label.MALWARE: 1, Label.BENIGN: 1},
        )
        bundle = build_bundle([model], GroupingConfig(), _META)
        cases = [{}, {"a": 1}, {"b": 2}, {"a": 3, "b": 1}, {"zzz": 4}]
        samples = [make_sample(f"z{i}", Label.UNKNOWN, 100, ops) for i, ops in enumerate(cases)]
        expected = _oracle(bundle, samples)
        assert expected[0][2] == "-0x0.0p+0" and expected[1][2] == "0x0.0p+0"
        _assert_kernel_matches_oracle(bundle, samples)


class TestSpeedup:
    def test_ratio_values(self):
        assert speedup(200, 1) == 200.0
        assert speedup(12345, 12345) == 1.0
        assert speedup(100, 200) == 0.5

    def test_rejects_non_positive_parallel_time(self):
        with pytest.raises(MeasurementError):
            speedup(100, 0)
        with pytest.raises(MeasurementError):
            speedup(100, -5)
        with pytest.raises(MeasurementError):
            speedup(-1, 100)


class TestTiming:
    def test_elapsed_grows_with_batch_size(self):
        # Doubling the workload should not make the loop faster; allow
        # 20% measurement noise on top of the expected doubling.
        bundle = _bundle()
        times = {}
        for n in (1500, 3000, 6000):
            workload = _workload(bundle, n, lanes=1)
            times[n] = statistics.median(
                classify_sequential(bundle, workload).elapsed_ns for _ in range(3)
            )
        assert times[3000] >= times[1500] * 0.8
        assert times[6000] >= times[3000] * 0.8


class TestBundleSerialization:
    def test_round_trip_is_byte_identical(self):
        bundle = _bundle()
        text = bundle_to_json(bundle)
        assert bundle_to_json(bundle_from_json(text)) == text

    def test_round_trip_preserves_predictions(self, tmp_path):
        bundle = _bundle()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        workload = _workload(bundle, 40, lanes=1)
        assert (
            classify_sequential(loaded, workload).predictions
            == classify_sequential(bundle, workload).predictions
        )

    def test_empty_bundle_round_trips(self):
        bundle = build_bundle([], GroupingConfig(), _META)
        text = bundle_to_json(bundle)
        assert bundle_from_json(text).trained_ids == ()

    def test_seventeen_digit_floats(self):
        bundle = _bundle(groups=(0,))
        doc = json.loads(bundle_to_json(bundle))
        model = doc["models"][0]
        stored = model["log_likelihood"]["malware"][model["features"][0]]
        original = bundle.models[0].log_likelihood[Label.MALWARE][model["features"][0]]
        assert stored == original  # 17 significant digits round-trip exactly

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("config"),
            lambda doc: doc["models"][0].pop("alpha"),
            lambda doc: doc["models"][0]["log_likelihood"].pop("malware"),
            lambda doc: doc["models"][0]["features"].append("extra"),
            lambda doc: doc["models"][0].__setitem__("group", 9999),
        ],
    )
    def test_loader_rejects_tampered_documents(self, mutate):
        doc = json.loads(bundle_to_json(_bundle(groups=(0,))))
        mutate(doc)
        with pytest.raises(BundleValidationError):
            bundle_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["models"][0]["log_prior"].__setitem__("malware", [-0.5]),
            lambda doc: doc["models"][0]["log_likelihood"]["benign"].__setitem__("mov", "abc"),
            lambda doc: doc["models"][0]["log_likelihood"]["benign"].update(
                mov=repr(doc["models"][0]["log_likelihood"]["benign"]["mov"])
            ),
            lambda doc: doc["models"][0]["train_counts"].__setitem__("benign", "6"),
            lambda doc: doc["models"][0].__setitem__("train_counts", "malware benign"),
            lambda doc: doc["meta"].__setitem__("k", "3"),
            lambda doc: doc["meta"].__setitem__("created_at", 20260101),
            lambda doc: doc["models"][0]["log_prior"].__setitem__("malware", 10**400),
            lambda doc: doc["models"][0]["log_prior"].__setitem__("malware", 800.0),
            lambda doc: doc["models"][0]["log_prior"].__setitem__("malware", float("nan")),
        ],
    )
    def test_loader_types_every_field(self, mutate):
        doc = json.loads(bundle_to_json(_bundle(groups=(0,))))
        mutate(doc)
        with pytest.raises(BundleValidationError):
            bundle_from_json(json.dumps(doc))

    def test_only_package_errors_escape_the_loader(self):
        """Every field replaced by values of every JSON type, or deleted."""
        doc = json.loads(bundle_to_json(_bundle(groups=(0, 2))))
        replacements = [None, True, "x", "1.5", [], [1], {}, {"malware": 1}, 1.5, -1, 0,
                        2**64, 10**400, 1e308, float("nan"), float("inf")]

        def paths(node, prefix=()):
            if isinstance(node, dict):
                items = node.items()
            elif isinstance(node, list):
                items = enumerate(node)
            else:
                return
            for key, child in items:
                yield prefix + (key,)
                yield from paths(child, prefix + (key,))

        texts = ["", "[]", "1e999", "9" * 5000, '{"config": 1' + "9" * 5000 + "}"]
        for path in paths(doc):
            for value in replacements + [KeyError]:
                mutated = copy.deepcopy(doc)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                if value is KeyError:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                texts.append(json.dumps(mutated))
        for text in texts:
            try:
                bundle_from_json(text)
            except GroupNBError:
                pass

    def test_loader_rejects_garbage(self):
        with pytest.raises(BundleValidationError):
            bundle_from_json("{not json")
        with pytest.raises(BundleValidationError):
            bundle_from_json('"just a string"')


class TestTrainBundle:
    def test_trains_exactly_the_trainable_groups(self):
        samples = two_class_group(0) + two_class_group(1) + two_class_group(2)
        samples += two_class_group(5, n_malware=3)  # below the per-class threshold
        bundle = train_bundle(grouped(samples), k=3, alpha=1.0, created_at="t")
        assert bundle.trained_ids == (0, 1, 2)
        assert bundle.meta.k == 3
        assert route(bundle, 5) == 2

    def test_feature_budget_respected(self):
        samples = two_class_group(0)
        bundle = train_bundle(grouped(samples), k=2, alpha=1.0, created_at="t")
        assert len(bundle.models[0].features.opcodes) == 2


class TestWritePredictions:
    def test_jsonl_shape(self):
        bundle = _bundle()
        samples = list(_workload(bundle, 2, lanes=1).samples)
        samples.append(make_sample("big", Label.UNKNOWN, 512000, {"mov": 1}))
        run = classify_sequential(bundle, Workload(samples=tuple(samples), lanes=1))
        sink = io.StringIO()
        write_predictions(run, samples, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(lines) == 3
        assert set(lines[0]) == {"id", "label", "log_posterior", "effective_group"}
        assert lines[0]["label"] in ("malware", "benign")
        assert set(lines[0]["log_posterior"]) == {"malware", "benign"}
        assert lines[2] == {"id": "big", "error": "size_bytes 512000 outside [0, 512000)"}
