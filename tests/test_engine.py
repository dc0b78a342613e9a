"""Bundle assembly, routing, and the two classification paths."""

import copy
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupnb import engine, lanes
from groupnb.cli import main
from groupnb.corpus import (
    GroupedCorpus, GroupingConfig, Label, OpcodeHistogram, assign_group, partition_by_group,
)
from groupnb.engine import (
    _BLOCK,
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
    train_bundles,
    write_predictions,
)
from groupnb.errors import (
    BundleValidationError,
    EmptyBundleError,
    GroupNBError,
    InsufficientClassError,
    IntegrityError,
    InvalidConfigError,
    LaneError,
    MeasurementError,
    SizeRangeError,
)
from groupnb.classifier import (
    CLASSES, NON_FINITE_SCORE, GroupModel, decide, fit_counts, predict, train_group,
)
from groupnb.features import FeatureSet, count_group, score_opcodes, select_top_k
from groupnb.lanes import host_threads

from groupnb.synth import SyntheticSpec, generate_synthetic, vocabulary

from helpers import deadline, grouped, kill_worker_lanes, make_sample, two_class_group

_META = BundleMeta(k=3, alpha=1.0, seed=0, created_at="2026-01-01T00:00:00+00:00")


def _model(group, features=("add", "evil", "mov")):
    samples = two_class_group(group)
    return train_group(samples, FeatureSet(tuple(features)), 1.0, group=group)


def _bundle(groups=(0, 1, 2)):
    config = GroupingConfig()
    return build_bundle([_model(g) for g in groups], config, _META)


def _signed_zero_model():
    """A valid model whose malware prior is -0.0 and whose likelihoods include 0.0."""
    return GroupModel(
        group=0,
        features=FeatureSet(("a", "b")),
        log_prior={Label.MALWARE: -0.0, Label.BENIGN: -800.0},
        log_likelihood={
            Label.MALWARE: (0.0, -800.0),
            Label.BENIGN: (-800.0, 0.0),
        },
    )


def _hex_parameters(bundle):
    """Every float of every model, as float.hex, so -0.0 and 0.0 differ."""
    return {
        g: (
            [model.log_prior[c].hex() for c in CLASSES],
            [v.hex() for c in CLASSES for v in model.log_likelihood[c]],
        )
        for g, model in bundle.models.items()
    }


# A bundle as format 1 wrote it: 17-digit floats, integral floats as ints, no "format" key.
# The loader refuses it.
_FORMAT_1 = (
    '{"config": {"group_size_bytes": 5120, "max_size_bytes": 512000, "min_per_class": 6}, '
    '"meta": {"k": 3, "alpha": 1, "seed": 0, "created_at": "2026-01-01T00:00:00+00:00"}, '
    '"models": [\n'
    '{"group": 0, "features": ["add", "evil", "mov"], '
    '"log_prior": {"malware": -0.69314718055994529, "benign": -0.69314718055994529}, '
    '"log_likelihood": {"malware": {"add": -3.4011973816621555, "evil": -0.31015492830383962, '
    '"mov": -1.455287232606842}, "benign": {"add": -1.0986122886681098, '
    '"evil": -3.4011973816621555, "mov": -0.45675840249571498}}, '
    '"alpha": 1, "train_counts": {"malware": 6, "benign": 6}}\n'
    ']}\n'
)

# The same bundle as format 2 wrote it: each model also carried its own alpha and
# training counts. The loader refuses it too.
_FORMAT_2 = (
    '{"format": 2, "config": {"group_size_bytes": 5120, "max_size_bytes": 512000, '
    '"min_per_class": 6}, '
    '"meta": {"k": 3, "alpha": 1.0, "seed": 0, "created_at": "2026-01-01T00:00:00+00:00"}, '
    '"models": [\n'
    '{"group": 0, "features": ["add", "evil", "mov"], '
    '"log_prior": {"malware": -0.6931471805599453, "benign": -0.6931471805599453}, '
    '"log_likelihood": {"malware": {"add": -3.4011973816621555, "evil": -0.3101549283038396, '
    '"mov": -1.455287232606842}, "benign": {"add": -1.0986122886681098, '
    '"evil": -3.4011973816621555, "mov": -0.456758402495715}}, '
    '"alpha": 1.0, "train_counts": {"malware": 6, "benign": 6}}\n'
    ']}\n'
)

# The same bundle as format 3 writes it, the one format that loads: each class's
# likelihoods are an object keyed by feature, in feature order.
_FORMAT_3 = (
    '{"format": 3, "config": {"group_size_bytes": 5120, "max_size_bytes": 512000, '
    '"min_per_class": 6}, '
    '"meta": {"k": 3, "alpha": 1.0, "seed": 0, "created_at": "2026-01-01T00:00:00+00:00"}, '
    '"models": [\n'
    '{"group": 0, "features": ["add", "evil", "mov"], '
    '"log_prior": {"malware": -0.6931471805599453, "benign": -0.6931471805599453}, '
    '"log_likelihood": {"malware": {"add": -3.4011973816621555, "evil": -0.3101549283038396, '
    '"mov": -1.455287232606842}, "benign": {"add": -1.0986122886681098, '
    '"evil": -3.4011973816621555, "mov": -0.456758402495715}}}\n'
    ']}\n'
)


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

    def test_empty_model_set_rejected(self):
        """A bundle with no model could route nothing, so the type refuses it."""
        for build in (lambda: ModelBundle(GroupingConfig(), {}, _META),
                      lambda: build_bundle([], GroupingConfig(), _META)):
            with pytest.raises(EmptyBundleError, match="^bundle has no trained models$"):
                build()
        assert issubclass(EmptyBundleError, BundleValidationError)

    def test_duplicate_group_rejected(self):
        with pytest.raises(IntegrityError):
            build_bundle([_model(7), _model(7)], GroupingConfig(), _META)

    def test_rejects_invalid_models(self):
        good = _model(0)
        config = GroupingConfig()
        cases = [
            lambda: build_bundle([dataclasses.replace(good, group=100)], config, _META),
            lambda: dataclasses.replace(
                good,
                log_prior={Label.MALWARE: math.log(0.6), Label.BENIGN: math.log(0.6)},
            ),
            lambda: dataclasses.replace(
                good,
                log_likelihood={
                    Label.MALWARE: tuple(float("-inf") for op in good.features.opcodes),
                    Label.BENIGN: good.log_likelihood[Label.BENIGN],
                },
            ),
        ]
        for build in cases:
            with pytest.raises(BundleValidationError):
                build()

    def test_rejects_more_features_than_budget(self):
        samples = two_class_group(0)
        features = FeatureSet(("add", "evil", "mov"))
        model = train_group(samples, features, 1.0, group=0)
        tight = BundleMeta(k=2, alpha=1.0, seed=0, created_at=_META.created_at)
        with pytest.raises(BundleValidationError):
            build_bundle([model], GroupingConfig(), tight)

    @pytest.mark.parametrize("models, meta, message", [
        ({250: _model(0)}, _META, "^model for group 0: stored under key 250$"),
        ({1: _model(0)}, _META, "^model for group 0: stored under key 1$"),
        ({False: _model(0)}, _META, "^model for group 0: stored under key False$"),
        ({0.0: _model(0)}, _META, r"^model for group 0: stored under key 0\.0$"),
        ({100: _model(100)}, _META, r"^model for group 100: group id outside \[0, 100\)$"),
        ({0: _model(0)}, dataclasses.replace(_META, k=2),
         "^model for group 0: 3 features exceeds k=2$"),
    ], ids=["other-group", "other-small-group", "bool-key", "float-key", "out-of-range",
            "over-budget"])
    def test_bundle_checks_how_its_models_fit(self, models, meta, message):
        """ModelBundle's own rules, given to it directly; no document holds a key apart from its group."""
        with pytest.raises(BundleValidationError, match=message):
            ModelBundle(GroupingConfig(), models, meta)

    def test_duplicates_are_reported_before_any_model_that_does_not_fit(self):
        with pytest.raises(IntegrityError, match="^duplicate model for group 7$"):
            build_bundle([_model(100), _model(7), _model(7)], GroupingConfig(), _META)

    def test_bundle_keeps_its_own_models_dict(self):
        """A later change to the caller's dict does not reach the bundle or its scores."""
        models = {g: _model(g) for g in (0, 1, 2)}
        kept = dict(models)
        bundle = ModelBundle(GroupingConfig(), models, _META)
        m0 = models[0]
        del models[0]
        models[99] = m0
        assert bundle.models == kept and bundle.trained_ids == (0, 1, 2)
        samples = [s for g in (0, 1, 2) for s in two_class_group(g)]
        workload = Workload(tuple(samples), lanes=1)
        run = classify_sequential(bundle, workload, warmup=False)
        assert [_exact(p) for p in run.predictions] == _oracle(_bundle(), samples)


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

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_each_sample_is_routed_once_per_call(self, lanes, monkeypatch):
        """The warm-up pass reruns only the kernel, and the caller routes for every lane."""
        monkeypatch.setattr(engine, "_BLOCK", 16)  # 80 samples allow 3 lanes
        bundle = _bundle()
        workload = _workload(bundle, 80, lanes=lanes)
        classify = classify_sequential if lanes == 1 else classify_parallel
        with mock.patch.object(engine, "assign_group", side_effect=assign_group) as spy:
            run = classify(bundle, workload)
        assert run.lanes == lanes
        assert spy.call_count == 80

    def test_warmup_flag_does_not_change_predictions(self):
        bundle = _bundle()
        workload = _workload(bundle, 20, lanes=1)
        warm = classify_sequential(bundle, workload, warmup=True)
        cold = classify_sequential(bundle, workload, warmup=False)
        assert warm.predictions == cold.predictions


# Both sides of the first group edge and of the cutoff, at the default geometry.
_RULE_SIZES = (-1, 0, 5119, 5120, 511999, 512000)


def _assigned(size, config):
    """assign_group's group for a size, or the text of the SizeRangeError it raises."""
    try:
        return assign_group(size, config)
    except SizeRangeError as exc:
        return str(exc)


class TestOneSizeRule:
    """partition_by_group and the classify kernel follow assign_group, error text included."""

    def test_partition_by_group_agrees(self):
        config = GroupingConfig()
        samples = [make_sample(f"s{size}", Label.BENIGN, size, {"mov": 1}) for size in _RULE_SIZES]
        corpus, rejected = partition_by_group(samples, config)
        placed = {s.id: g for g, bucket in corpus.groups.items() for s in bucket}
        for sample in samples:
            expected = _assigned(sample.size_bytes, config)
            if isinstance(expected, str):
                assert sample in rejected and sample.id not in placed
            else:
                assert placed[sample.id] == expected
        assert [s.size_bytes for s in rejected] == [-1, 512000]

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_classify_agrees(self, lanes):
        bundle = _bundle(groups=(0, 1, 99))  # every assigned group is trained: no rerouting
        n = 3 * _BLOCK  # each lane's chunk holds every size
        samples = tuple(
            make_sample(f"s{i}", Label.UNKNOWN, _RULE_SIZES[i % len(_RULE_SIZES)], {"mov": 1})
            for i in range(n)
        )
        workload = Workload(samples, lanes=lanes)
        seq = classify_sequential(bundle, workload)
        par = classify_parallel(bundle, workload)
        assert (seq.lanes, par.lanes) == (1, lanes)
        for run in (seq, par):
            errors = dict(run.errors)
            for i, sample in enumerate(samples):
                expected = _assigned(sample.size_bytes, bundle.config)
                if isinstance(expected, str):
                    assert run.predictions[i] is None and errors[i] == expected
                else:
                    assert run.predictions[i].effective_group == expected and i not in errors
            assert errors[0] == "size_bytes -1 outside [0, 512000)"
            assert errors[5] == "size_bytes 512000 outside [0, 512000)"


class TestClassifyParallel:
    """Batches hold at least lanes * _BLOCK samples, so every requested lane runs."""

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_bit_identical_to_sequential(self, lanes):
        bundle = _bundle()
        workload = _workload(bundle, lanes * _BLOCK + 60, lanes=lanes, seed=lanes)
        seq = classify_sequential(bundle, workload)
        par = classify_parallel(bundle, workload)
        assert par.predictions == seq.predictions
        assert par.errors == seq.errors
        assert (seq.lanes, par.lanes) == (1, lanes)
        assert multiprocessing.active_children() == []

    def test_a_lane_is_handed_only_its_chunk(self, monkeypatch):
        handed = []
        real = engine.run_lanes

        def record(body, lane_args, warmup):
            assert body is engine._log_scores
            handed.extend(lane_args)
            return real(body, lane_args, warmup)

        monkeypatch.setattr(engine, "run_lanes", record)
        bundle = _bundle()
        good = list(_workload(bundle, 3 * _BLOCK + 7, lanes=3).samples)
        good[5] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        workload = Workload(samples=tuple(good), lanes=3)
        admitted = [s for i, s in enumerate(good) if i != 5]
        m = len(admitted)
        cuts = [0, m // 3, 2 * m // 3, m]
        par = classify_parallel(bundle, workload, warmup=False)
        assert par.lanes == len(handed) == 3
        for (tables, histograms, rows), lo, hi in zip(handed, cuts, cuts[1:]):
            assert tables is bundle._tables
            assert histograms == [s.histogram.entries for s in admitted[lo:hi]]
            assert [bundle.trained_ids[r] for r in rows] == [
                route(bundle, assign_group(s.size_bytes, bundle.config)) for s in admitted[lo:hi]]
        assert sum((histograms for _, histograms, _ in handed), []) == [
            s.histogram.entries for s in admitted]

    def test_a_batch_runs_every_lane_its_blocks_allow(self, monkeypatch):
        """9 samples in blocks of 2 allow 4 lanes; chunks of ceil(9 / 4) would fill only 3."""
        monkeypatch.setattr(engine, "_BLOCK", 2)
        bundle = _bundle()
        workload = _workload(bundle, 9, lanes=4)
        par = classify_parallel(bundle, workload, warmup=False)
        assert par.lanes == 4
        assert par.predictions == classify_sequential(bundle, workload).predictions

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_bit_identical_under_spawn(self, lanes, monkeypatch):
        methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        bundle = _bundle()
        good = list(_workload(bundle, lanes * _BLOCK + 12, lanes=lanes, seed=lanes).samples)
        good[7] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        workload = Workload(samples=tuple(good), lanes=lanes)
        seq = classify_sequential(bundle, workload, warmup=False)
        with deadline(60):
            par = classify_parallel(bundle, workload, warmup=False)
        assert [_exact(p) for p in par.predictions] == [_exact(p) for p in seq.predictions]
        assert par.errors == seq.errors
        assert par.lanes == lanes
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("warmup", [True, False])
    def test_dead_lane_raises_lane_error(self, warmup, monkeypatch):
        kill_worker_lanes(monkeypatch)
        bundle = _bundle()
        workload = _workload(bundle, 3 * _BLOCK + 30, lanes=3)
        with deadline(30), pytest.raises(LaneError, match="lane 1 exited with code 9"):
            classify_parallel(bundle, workload, warmup=warmup)
        assert multiprocessing.active_children() == []

    def test_lane_left_by_the_caller_exits_quietly(self, monkeypatch, capfd):
        n = 3 * _BLOCK + 60
        kill_worker_lanes(monkeypatch, lane=1)  # lane 1 dies, lane 2 is left
        bundle = _bundle()
        with deadline(30), pytest.raises(LaneError, match="lane 1 exited with code 9"):
            classify_parallel(bundle, _workload(bundle, n, lanes=3))
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("warmup", [True, False])
    def test_failing_caller_lane_joins_every_worker(self, warmup, monkeypatch, capfd):
        test_pid = os.getpid()
        real = engine._log_scores

        def fail_in_the_caller(tables, histograms, rows):
            if os.getpid() == test_pid:
                raise RuntimeError("lane 0 failed")
            return real(tables, histograms, rows)

        monkeypatch.setattr(engine, "_log_scores", fail_in_the_caller)
        bundle = _bundle()
        workload = _workload(bundle, 3 * _BLOCK + 5, lanes=3)
        with deadline(30), pytest.raises(RuntimeError, match="lane 0 failed"):
            classify_parallel(bundle, workload, warmup=warmup)
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_error_entries_survive_parallelism(self):
        bundle = _bundle()
        good = list(_workload(bundle, 3 * _BLOCK + 9, lanes=3).samples)
        good[4] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        workload = Workload(samples=tuple(good), lanes=3)
        seq = classify_sequential(bundle, workload)
        par = classify_parallel(bundle, workload)
        assert par.errors == seq.errors == ((4, "size_bytes 600000 outside [0, 512000)"),)
        assert par.predictions == seq.predictions
        assert par.lanes == 3

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_errors_of_both_kinds_are_in_index_order(self, lanes):
        """A non-finite score found after the lanes sorts among the size errors found before."""
        bundle = _bundle()
        samples = list(_workload(bundle, 2 * _BLOCK, lanes=lanes).samples)
        huge = dict.fromkeys(bundle.models[0].features.opcodes, 10**308)
        samples[3] = make_sample("inf", Label.UNKNOWN, 100, huge)
        samples[1] = samples[7] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        run = classify_parallel(bundle, Workload(tuple(samples), lanes), warmup=False)
        size_error = "size_bytes 600000 outside [0, 512000)"
        assert run.lanes == lanes
        assert run.errors == ((1, size_error), (3, NON_FINITE_SCORE), (7, size_error))
        assert [i for i, p in enumerate(run.predictions) if p is None] == [1, 3, 7]

    @pytest.mark.parametrize("n", [1, _BLOCK, 2 * _BLOCK - 1])
    def test_below_two_blocks_starts_no_process(self, n, monkeypatch):
        bundle = _bundle()
        samples = _workload(bundle, n, lanes=1, seed=n).samples
        seq = classify_sequential(bundle, Workload(samples, lanes=1), warmup=False)

        def refuse(self):
            raise AssertionError("a worker lane was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        for lanes in (2, 4, 8):
            par = classify_parallel(bundle, Workload(samples, lanes=lanes), warmup=False)
            assert [_exact(p) for p in par.predictions] == [_exact(p) for p in seq.predictions]
            assert par.errors == seq.errors
            assert par.lanes == 1

    @pytest.mark.parametrize("n", [2 * _BLOCK - 1, 2 * _BLOCK, 4 * _BLOCK + 3])
    def test_bit_identical_on_both_sides_of_two_blocks(self, n):
        bundle = _bundle()
        samples = list(_workload(bundle, n, lanes=1, seed=n).samples)
        samples[n // 2] = make_sample("big", Label.UNKNOWN, 600000, {"mov": 1})
        seq = classify_sequential(bundle, Workload(tuple(samples), lanes=1), warmup=False)
        for lanes in (1, 2, 3, 4, 8):
            par = classify_parallel(bundle, Workload(tuple(samples), lanes=lanes), warmup=False)
            assert [_exact(p) for p in par.predictions] == [_exact(p) for p in seq.predictions]
            assert par.errors == seq.errors
            assert par.lanes == min(lanes, max(1, n // _BLOCK)), lanes
        assert multiprocessing.active_children() == []

    def test_benign_on_exact_tie(self):
        """Both paths decide a tie as predict does."""
        samples = [
            make_sample("m", Label.MALWARE, 10, {"a": 1, "b": 1}),
            make_sample("b", Label.BENIGN, 11, {"a": 1, "b": 1}),
        ]
        model = train_group(samples, FeatureSet(("a", "b")), 1.0)
        bundle = build_bundle([model], GroupingConfig(), _META)
        batch = [make_sample(f"t{i}", Label.UNKNOWN, i, {"a": 1 + i % 7}) for i in range(2 * _BLOCK)]
        workload = Workload(tuple(batch), lanes=2)
        expected = [_exact(predict(model, s.histogram)) for s in batch]
        assert {p[0] for p in expected} == {Label.BENIGN}
        assert all(p[2] == p[3] for p in expected)
        par = classify_parallel(bundle, workload, warmup=False)
        assert par.lanes == 2
        for run in (classify_sequential(bundle, workload, warmup=False), par):
            assert [_exact(p) for p in run.predictions] == expected

    def test_lanes_exceeding_samples(self):
        bundle = _bundle()
        workload = _workload(bundle, 3, lanes=8)
        par = classify_parallel(bundle, workload)
        seq = classify_sequential(bundle, workload)
        assert par.predictions == seq.predictions
        assert par.lanes == 1

    def test_empty_workload(self):
        bundle = _bundle()
        run = classify_parallel(bundle, Workload(samples=(), lanes=2))
        assert run.predictions == ()
        assert run.errors == ()
        assert run.lanes == 1


@pytest.mark.parametrize("cpus, expected", [(8, 8), (None, 1)])
def test_host_threads_falls_back_to_the_machine_without_an_affinity_set(cpus, expected,
                                                                        monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert host_threads() == expected


class TestCgroupQuota:
    """host_threads caps the affinity set at a cgroup v2 cpu.max quota, read from a temporary tree."""

    @staticmethod
    def _tree(tmp_path, monkeypatch, cpu_max, proc="0::/box/job\n"):
        cgroup = tmp_path / "cgroup" / "box" / "job"
        cgroup.mkdir(parents=True)
        if cpu_max is not None:
            (cgroup / "cpu.max").write_text(cpu_max)
        (tmp_path / "self-cgroup").write_text(proc)
        monkeypatch.setattr(lanes, "_CGROUP_ROOT", str(tmp_path / "cgroup"))
        monkeypatch.setattr(lanes, "_PROC_CGROUP", str(tmp_path / "self-cgroup"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        return cgroup

    @pytest.mark.parametrize("cpu_max, expected", [
        ("300000 100000\n", 3), ("150000 100000\n", 2), ("50000 100000\n", 1),
        ("1600000 100000\n", 8), ("max 100000\n", 8), (None, 8), ("", 8), ("garbage\n", 8),
        ("0 100000\n", 8), ("100000 0\n", 8),
    ], ids=["three", "round_up", "below_one", "above_affinity", "max", "missing", "empty",
            "garbage", "zero_quota", "zero_period"])
    def test_quota(self, tmp_path, monkeypatch, cpu_max, expected):
        self._tree(tmp_path, monkeypatch, cpu_max)
        assert host_threads() == expected

    def test_the_cgroup_named_by_the_v2_line_is_read(self, tmp_path, monkeypatch):
        self._tree(tmp_path, monkeypatch, "200000 100000\n", proc="0::/box\n")
        assert host_threads() == 8
        (tmp_path / "self-cgroup").write_text("12:cpu:/box/job\n0::/box/job\n")
        assert host_threads() == 2

    def test_an_unreadable_file_changes_nothing(self, tmp_path, monkeypatch):
        cgroup = self._tree(tmp_path, monkeypatch, None)
        (cgroup / "cpu.max").mkdir()  # reading a directory raises an OSError
        assert host_threads() == 8
        monkeypatch.setattr(lanes, "_PROC_CGROUP", str(tmp_path / "absent"))
        assert host_threads() == 8

    def test_a_cgroup_v1_host_changes_nothing(self, tmp_path, monkeypatch):
        self._tree(tmp_path, monkeypatch, "100000 100000\n", proc="4:cpu:/box/job\n")
        assert host_threads() == 8


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
            models.append(train_group(samples, FeatureSet(features), 0.5, group=g))
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
        model = _signed_zero_model()
        bundle = build_bundle([model], GroupingConfig(), _META)
        cases = [{}, {"a": 1}, {"b": 2}, {"a": 3, "b": 1}, {"zzz": 4}]
        samples = [make_sample(f"z{i}", Label.UNKNOWN, 100, ops) for i, ops in enumerate(cases)]
        expected = _oracle(bundle, samples)
        assert expected[0][2] == "-0x0.0p+0" and expected[1][2] == "0x0.0p+0"
        _assert_kernel_matches_oracle(bundle, samples)


class TestExactProducts:
    """The kernel's products skip the zero-count mask only where every likelihood has its sign bit set."""

    @staticmethod
    def _one_feature_model(log_prior):
        """A k=1 model: its one likelihood is log(1) = +0.0, as training gives it."""
        return GroupModel(group=0, features=FeatureSet(("a",)), log_prior=log_prior,
                          log_likelihood={Label.MALWARE: (0.0,), Label.BENIGN: (0.0,)})

    def test_trained_bundles_are_signed_but_a_one_feature_model_is_not(self):
        assert engine._ScoreTables.build(_bundle()).signed
        trained = train_bundle(grouped(two_class_group(0)), k=1, created_at="t")
        assert trained.models[0].log_likelihood[Label.MALWARE] == (0.0,)
        assert not engine._ScoreTables.build(trained).signed

    @pytest.mark.parametrize("log_prior", [
        {Label.MALWARE: -0.0, Label.BENIGN: -800.0},
        {Label.MALWARE: -800.0, Label.BENIGN: -0.0},
    ], ids=["malware", "benign"])
    def test_a_plus_zero_likelihood_takes_the_mask(self, log_prior):
        """An absent feature leaves a -0.0 prior as it is; 0 * +0.0 would make it +0.0."""
        bundle = build_bundle([self._one_feature_model(log_prior)], GroupingConfig(), _META)
        assert not bundle._tables.signed
        cases = [{}, {"a": 1}, {"a": 2**63}, {"b": 7}]
        samples = [make_sample(f"z{i}", Label.UNKNOWN, 100, ops) for i, ops in enumerate(cases)]
        expected = _oracle(bundle, samples)
        assert "-0x0.0p+0" in expected[0] and "-0x0.0p+0" not in expected[1]
        _assert_kernel_matches_oracle(bundle, samples)

    def test_a_negative_zero_prior_with_signed_likelihoods_needs_no_mask(self):
        model = GroupModel(group=0, features=FeatureSet(("a", "b")),
                           log_prior={Label.MALWARE: -0.0, Label.BENIGN: -800.0},
                           log_likelihood={Label.MALWARE: (-0.0, -800.0),
                                           Label.BENIGN: (-800.0, -0.0)})
        bundle = build_bundle([model, _model(3)], GroupingConfig(), _META)
        assert bundle._tables.signed
        cases = [{}, {"a": 1}, {"b": 2}, {"a": 3, "b": 1}, {"zzz": 4}]
        samples = [make_sample(f"z{i}", Label.UNKNOWN, 100, ops) for i, ops in enumerate(cases)]
        expected = _oracle(bundle, samples)
        assert expected[0][2] == "-0x0.0p+0" and expected[1][2] == "-0x0.0p+0"
        _assert_kernel_matches_oracle(bundle, samples)

    @pytest.mark.parametrize("count", [2**63, 2**63 + 2**11, 2**1000, 2**1000 + 1])
    def test_counts_past_int64_take_the_float64_path(self, count):
        """np.array refuses the count as int64, and the float64 block rounds as float(n) does."""
        with pytest.raises(OverflowError):
            np.array([1, count], dtype=np.int64)
        samples = [make_sample("m", Label.UNKNOWN, 10, {"mov": 3, "add": 1}),
                   make_sample("h", Label.UNKNOWN, 10, {"mov": count, "evil": 2})]
        _assert_kernel_matches_oracle(_bundle(), samples)


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
        signed_zero = build_bundle([_signed_zero_model()], GroupingConfig(), _META)
        for bundle in (_bundle(), signed_zero):
            text = bundle_to_json(bundle)
            assert text.startswith('{"format": 3, "config": ')
            assert len(text.splitlines()) == len(bundle.trained_ids) + 2  # one model per line
            assert bundle_to_json(bundle_from_json(text)) == text

    def test_negative_zero_survives_save_and_load(self, tmp_path):
        bundle = build_bundle([_signed_zero_model()], GroupingConfig(), _META)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.models[0].log_prior[Label.MALWARE].hex() == "-0x0.0p+0"
        assert _hex_parameters(loaded) == _hex_parameters(bundle)

    @pytest.mark.parametrize("version", [4, "3", True, 2.0, None, [3], "no key", 2, 3.0])
    def test_loader_rejects_other_formats(self, version):
        doc = json.loads(bundle_to_json(_bundle(groups=(0,))))
        doc["format"] = version
        text = _FORMAT_1 if version == "no key" else json.dumps(doc)
        with pytest.raises(BundleValidationError, match="format"):
            bundle_from_json(text)

    def test_loader_refuses_format_2(self):
        # Apart from its version and the two per-model copies, it is today's document.
        doc = json.loads(_FORMAT_2)
        doc["format"] = 3
        for model in doc["models"]:
            del model["alpha"], model["train_counts"]
        assert doc == json.loads(bundle_to_json(_bundle(groups=(0,))))
        with pytest.raises(BundleValidationError, match="^unsupported bundle format 2$"):
            bundle_from_json(_FORMAT_2)

    def test_format_3_bytes(self):
        """The writer's bytes; a reader that keys by feature, whatever the key order."""
        assert bundle_to_json(_bundle(groups=(0,))) == _FORMAT_3
        assert bundle_to_json(bundle_from_json(_FORMAT_3)) == _FORMAT_3
        doc = json.loads(_FORMAT_3)
        for table in doc["models"][0]["log_likelihood"].values():
            reversed_table = dict(reversed(table.items()))
            table.clear()
            table.update(reversed_table)
        assert list(doc["models"][0]["log_likelihood"]["malware"]) == ["mov", "evil", "add"]
        assert bundle_to_json(bundle_from_json(json.dumps(doc))) == _FORMAT_3

    @pytest.mark.parametrize("mutate", [
        lambda table: table.pop("mov"),
        lambda table: table.update(zzz=-1.0),
        lambda table: table.update(zzz=table.pop("mov")),
    ], ids=["missing", "extra", "renamed"])
    def test_loader_refuses_a_table_not_keyed_by_the_features(self, mutate):
        """A renamed key keeps the table's length, so only a key rule refuses it."""
        doc = json.loads(_FORMAT_3)
        mutate(doc["models"][0]["log_likelihood"]["benign"])
        with pytest.raises(BundleValidationError, match=r"^models\[0\]: benign likelihoods "
                                                        "are not keyed by exactly the features$"):
            bundle_from_json(json.dumps(doc))

    def test_model_lines_hold_only_what_routing_and_scoring_read(self):
        bundle = _bundle()
        text = bundle_to_json(bundle)
        for line in text.splitlines()[1:-1]:
            model = json.loads(line.rstrip(","))
            assert list(model) == ["group", "features", "log_prior", "log_likelihood"]
        assert text.count('"alpha"') == 1
        assert json.loads(text)["meta"]["alpha"] == _META.alpha

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

    def test_loader_rejects_an_empty_model_array(self):
        doc = json.loads(bundle_to_json(_bundle(groups=(0,))))
        doc["models"] = []
        with pytest.raises(EmptyBundleError, match="^bundle has no trained models$"):
            bundle_from_json(json.dumps(doc))

    def test_seventeen_digit_floats(self):
        bundle = _bundle(groups=(0,))
        doc = json.loads(bundle_to_json(bundle))
        model = doc["models"][0]
        stored = model["log_likelihood"]["malware"][model["features"][0]]
        original = bundle.models[0].log_likelihood[Label.MALWARE][0]
        assert stored == original  # the shortest repr round-trips exactly

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("config"),
            lambda doc: doc["models"][0].pop("log_prior"),
            lambda doc: doc["models"][0]["log_likelihood"].pop("malware"),
            lambda doc: doc["models"][0]["features"].append("extra"),
            lambda doc: doc["models"][0].__setitem__("group", 9999),
            lambda doc: doc["models"][0].update(features=[],
                                                log_likelihood={"malware": {}, "benign": {}}),
            lambda doc: doc["models"][0].update(features=["x", "x"], log_likelihood={
                "malware": {"x": -1.0}, "benign": {"x": -1.0}}),
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
            lambda doc: doc["models"][0].__setitem__("features", "add evil mov"),
            lambda doc: doc["models"][0].__setitem__("log_prior", "malware benign"),
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
        with pytest.raises(BundleValidationError, match="nested too deeply"):
            bundle_from_json("[" * 100_000)

    @pytest.mark.parametrize("offset", [0, 9000])
    def test_loader_rejects_bytes_that_are_not_utf8(self, tmp_path, offset):
        path = tmp_path / "bundle.json"
        save_bundle(_bundle(groups=range(40)), path)
        data = bytearray(path.read_bytes())
        assert len(data) > 9000
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BundleValidationError, match=f"not valid UTF-8 at byte offset {offset}$"):
            load_bundle(path)


class TestLoadReuse:
    """load_bundle keeps the last file it loaded; a bundle builds its score tables once."""

    @pytest.fixture(autouse=True)
    def _no_kept_load(self):
        engine._decode_bundle.cache_clear()

    def test_identical_bytes_decode_once(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(_bundle(), first)
        save_bundle(_bundle(), second)
        with mock.patch.object(engine, "_decode_json", wraps=engine._decode_json) as decode:
            bundle = load_bundle(first)
            assert load_bundle(first) is bundle
            assert load_bundle(second) is bundle
        assert decode.call_count == 1

    def test_changed_bytes_of_the_same_length_load_again(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(_bundle(), path)
        old = load_bundle(path)
        stat = path.stat()
        text = path.read_text(encoding="utf-8")
        assert text.count('"k": 3') == 1
        path.write_text(text.replace('"k": 3', '"k": 4'), encoding="utf-8")
        assert path.stat().st_size == stat.st_size
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        new = load_bundle(path)
        assert new is not old and (old.meta.k, new.meta.k) == (3, 4)
        assert load_bundle(path) is new

    def test_a_refused_file_raises_on_every_call(self, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_bundle(_bundle(), good)
        bad.write_text(bundle_to_json(_bundle()).replace('"format": 3', '"format": 4'),
                       encoding="utf-8")
        bundle = load_bundle(good)
        for _ in range(2):
            with pytest.raises(BundleValidationError, match="^unsupported bundle format 4$"):
                load_bundle(bad)
        assert load_bundle(good) is bundle

    def test_score_tables_are_built_once_per_bundle(self):
        bundle = _bundle()
        samples = _workload(bundle, 2 * _BLOCK, lanes=2).samples
        fresh = _bundle()
        expected = [_exact(p) for p in classify_sequential(
            fresh, Workload(samples, 1), warmup=False).predictions]
        build = engine._ScoreTables.build
        with mock.patch.object(engine._ScoreTables, "build", side_effect=build) as spy:
            runs = [classify_sequential(bundle, Workload(samples, 1), warmup=False)
                    for _ in range(2)]
            runs.append(classify_parallel(bundle, Workload(samples, 2), warmup=False))
        assert spy.call_count == 1
        assert [run.lanes for run in runs] == [1, 1, 2]
        for run in runs:
            assert [_exact(p) for p in run.predictions] == expected

    def test_a_shared_bundle_cannot_be_changed(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(_bundle(), path)
        bundle = load_bundle(path)
        model = bundle.models[0]
        with pytest.raises(AttributeError):  # a read-only mapping has no clear method
            bundle.models.clear()
        with pytest.raises(TypeError):
            del bundle.models[0]
        with pytest.raises(TypeError):
            bundle.models[0] = model
        with pytest.raises(TypeError):
            model.log_prior[Label.MALWARE] = 0.0
        with pytest.raises(TypeError):
            model.log_likelihood[Label.BENIGN] = ()
        again = load_bundle(path)
        assert bundle_to_json(again) == path.read_text(encoding="utf-8")
        workload = _workload(again, 64, lanes=1)
        fresh = bundle_from_json(path.read_text(encoding="utf-8"))
        assert ([_exact(p) for p in classify_sequential(again, workload).predictions]
                == [_exact(p) for p in classify_sequential(fresh, workload).predictions])


def _with_likelihoods(model, label, row):
    return dataclasses.replace(model, log_likelihood={**model.log_likelihood, label: row})


def _with_likelihood(model, label, op, value):
    """The model with ``label``'s likelihood of feature ``op`` set to ``value``."""
    row = list(model.log_likelihood[label])
    row[model.features.opcodes.index(op)] = value
    return _with_likelihoods(model, label, tuple(row))


def _doc_model(doc):
    return doc["models"][0]


def _rename_feature(doc, name):
    """Rename the document's feature "mov", in its feature list and its likelihood rows."""
    model = _doc_model(doc)
    model["features"] = [name if op == "mov" else op for op in model["features"]]
    for row in model["log_likelihood"].values():
        row[name] = row.pop("mov")


# One case per invariant that a type checks when built: a constructor call
# on the good model that breaks it, and a bundle document edit that breaks
# it the same way. Features are ("add", "evil", "mov"). A likelihood row's
# length is the type's rule and its table's keys are the loader's, so those
# cases give one message for each. Alpha's cases are those of
# test_one_alpha_rule_for_meta_fit_and_load.
_INVARIANTS = {
    "features-empty": (
        lambda good: FeatureSet(()),
        lambda doc: _doc_model(doc).update(features=[],
                                           log_likelihood={"malware": {}, "benign": {}}),
        InvalidConfigError, "feature set is empty or repeats an opcode"),
    "features-repeated": (
        lambda good: FeatureSet(("mov", "add", "mov")),
        lambda doc: _doc_model(doc)["features"].append("add"),
        InvalidConfigError, "feature set is empty or repeats an opcode"),
    "prior-non-finite": (
        lambda good: dataclasses.replace(
            good, log_prior={Label.MALWARE: math.nan, Label.BENIGN: math.log(0.5)}),
        lambda doc: _doc_model(doc)["log_prior"].update(malware=math.nan),
        BundleValidationError, "group 0: non-finite priors"),
    "prior-sum": (
        lambda good: dataclasses.replace(
            good, log_prior={Label.MALWARE: math.log(0.6), Label.BENIGN: math.log(0.6)}),
        lambda doc: _doc_model(doc)["log_prior"].update(malware=math.log(0.6),
                                                        benign=math.log(0.6)),
        BundleValidationError, "group 0: priors sum to 1.2"),
    "likelihood-missing": (
        lambda good: _with_likelihoods(good, Label.BENIGN, good.log_likelihood[Label.BENIGN][:-1]),
        lambda doc: _doc_model(doc)["log_likelihood"]["benign"].pop("mov"),
        BundleValidationError,
        ("^model for group 0: benign likelihoods are not a tuple of one value per feature$",
         r"^models\[0\]: benign likelihoods are not keyed by exactly the features$")),
    "likelihood-extra": (
        lambda good: _with_likelihoods(good, Label.MALWARE,
                                       good.log_likelihood[Label.MALWARE] + (-1.0,)),
        lambda doc: _doc_model(doc)["log_likelihood"]["malware"].update(zzz=-1.0),
        BundleValidationError,
        ("^model for group 0: malware likelihoods are not a tuple of one value per feature$",
         r"^models\[0\]: malware likelihoods are not keyed by exactly the features$")),
    "likelihood-non-finite": (
        lambda good: _with_likelihood(good, Label.MALWARE, "evil", -math.inf),
        lambda doc: _doc_model(doc)["log_likelihood"]["malware"].update(evil=-math.inf),
        BundleValidationError, "group 0: non-finite malware likelihoods"),
    "likelihood-bool": (
        lambda good: _with_likelihood(good, Label.BENIGN, "add", False),
        lambda doc: _doc_model(doc)["log_likelihood"]["benign"].update(add=False),
        BundleValidationError, "^model for group 0: benign likelihoods are not all numbers$"),
    "likelihood-too-large": (
        lambda good: _with_likelihood(good, Label.MALWARE, "evil", 10**400),
        lambda doc: _doc_model(doc)["log_likelihood"]["malware"].update(evil=10**400),
        BundleValidationError,
        "^model for group 0: malware likelihoods hold an integer too large for a float$"),
    "likelihood-sum": (
        lambda good: _with_likelihoods(good, Label.BENIGN, (-1.0,) * len(good.features.opcodes)),
        lambda doc: _doc_model(doc)["log_likelihood"].update(
            benign={"add": -1.0, "evil": -1.0, "mov": -1.0}),
        BundleValidationError, "group 0: benign likelihoods sum to 1.10"),
    "meta-k-zero": (
        lambda good: dataclasses.replace(_META, k=0),
        lambda doc: doc["meta"].update(k=0),
        InvalidConfigError, "k must be a positive integer, got 0"),
    "meta-k-bool": (
        lambda good: dataclasses.replace(_META, k=True),
        lambda doc: doc["meta"].update(k=True),
        InvalidConfigError, "k must be a positive integer, got True"),
    "meta-seed": (
        lambda good: dataclasses.replace(_META, seed=1.5),
        lambda doc: doc["meta"].update(seed=1.5),
        InvalidConfigError, "seed must be a non-negative integer, got 1.5"),
    "meta-seed-negative": (
        lambda good: dataclasses.replace(_META, seed=-1),
        lambda doc: doc["meta"].update(seed=-1),
        InvalidConfigError, "seed must be a non-negative integer, got -1"),
    "meta-created-at": (
        lambda good: dataclasses.replace(_META, created_at=20260101),
        lambda doc: doc["meta"].update(created_at=20260101),
        InvalidConfigError, "created_at must be a string, got 20260101"),
    "group-bool": (
        lambda good: dataclasses.replace(good, group=True),
        lambda doc: _doc_model(doc).update(group=True),
        BundleValidationError,
        "^model for group True: group must be a non-negative integer, got True$"),
    "group-string": (
        lambda good: dataclasses.replace(good, group="3"),
        lambda doc: _doc_model(doc).update(group="3"),
        BundleValidationError,
        "^model for group 3: group must be a non-negative integer, got '3'$"),
    "group-negative": (
        lambda good: dataclasses.replace(good, group=-1),
        lambda doc: _doc_model(doc).update(group=-1),
        BundleValidationError,
        "^model for group -1: group must be a non-negative integer, got -1$"),
    "features-uppercase": (
        lambda good: FeatureSet(("add", "evil", "MOV")),
        lambda doc: _rename_feature(doc, "MOV"),
        InvalidConfigError, "opcode must be a non-empty lowercase string, got 'MOV'"),
    "features-empty-name": (
        lambda good: FeatureSet(("add", "evil", "")),
        lambda doc: _rename_feature(doc, ""),
        InvalidConfigError, "opcode must be a non-empty lowercase string, got ''"),
    "features-not-a-string": (
        lambda good: FeatureSet(("add", "evil", 3)),
        lambda doc: _doc_model(doc)["features"].__setitem__(2, 3),
        InvalidConfigError, "opcode must be a non-empty lowercase string, got 3"),
}


@pytest.mark.parametrize("build, mutate, error, message", _INVARIANTS.values(),
                         ids=_INVARIANTS.keys())
def test_each_invariant_is_checked_once_by_its_type(build, mutate, error, message):
    """The constructor rejects a part that breaks it; the loader maps that to a data error."""
    type_message, doc_message = message if isinstance(message, tuple) else (message, message)
    good = _model(0)
    with pytest.raises(error, match=type_message):
        build(good)
    doc = json.loads(bundle_to_json(_bundle(groups=(0,))))
    mutate(doc)
    with pytest.raises(BundleValidationError, match=doc_message):
        bundle_from_json(json.dumps(doc))


_UNTRAINABLE = "^no size group has 6 training samples of each class; no bundle written$"


def _trained_bundles(spec, k_values, alpha):
    """train_bundles on the spec's corpus; one with too few samples per class is refused."""
    corpus = grouped(generate_synthetic(spec))
    if spec.samples_per_group_per_class < GroupingConfig().min_per_class:
        with pytest.raises(EmptyBundleError, match=_UNTRAINABLE):
            train_bundles(corpus, k_values, alpha, created_at="t")
        return []
    return list(train_bundles(corpus, k_values, alpha, created_at="t").values())


class TestRoundTripSweep:
    """Every bundle train_bundles returns survives bundle_to_json -> bundle_from_json."""

    @staticmethod
    def _assert_round_trips(bundle):
        text = bundle_to_json(bundle)
        assert bundle_to_json(bundle_from_json(text)) == text

    @pytest.mark.parametrize("seed", range(6))
    def test_trained_bundles_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        spec = SyntheticSpec(
            group_count=int(rng.integers(1, 5)),
            samples_per_group_per_class=int(rng.integers(4, 10)),  # below 6: no group trains
            vocabulary_size=int(rng.integers(2, 60)),
            divergence=float(rng.random()),
            seed=seed,
        )
        for alpha in (0.5, 1, 2.5):
            for bundle in _trained_bundles(spec, (1, 5, 40), alpha):
                assert bundle.meta.alpha == float(alpha)
                assert type(bundle.meta.alpha) is float
                self._assert_round_trips(bundle)

    def test_signed_zero_bundle_round_trips(self):
        self._assert_round_trips(build_bundle([_signed_zero_model()], GroupingConfig(), _META))

    def test_empty_corpus_is_refused(self):
        with pytest.raises(EmptyBundleError, match=_UNTRAINABLE):
            train_bundles(grouped([]), (1, 5, 40), 2.5, created_at="t")


@st.composite
def _training_runs(draw, always_trainable=False):
    """A synthetic spec, feature budgets and alpha for one train_bundles call.

    Most specs have 6-9 samples per group and class, so every group
    trains; unless ``always_trainable``, a minority has 4 or 5, so none
    does.
    """
    untrainable = not always_trainable and draw(st.integers(0, 3)) == 3
    spec = SyntheticSpec(
        group_count=draw(st.integers(1, 4)),
        samples_per_group_per_class=draw(st.integers(4, 5) if untrainable else st.integers(6, 9)),
        vocabulary_size=draw(st.integers(2, 60)),
        divergence=draw(st.floats(0, 1)),
        seed=draw(st.integers(0, 2**16)),
    )
    k_values = draw(st.lists(st.integers(1, 80), min_size=1, max_size=3, unique=True))
    alpha = draw(st.sampled_from([1, 0.5, 2.5]) | st.floats(1e-3, 1e3))
    return spec, k_values, alpha


class TestBundleProperty:
    """bundle_to_json -> bundle_from_json gives back the bundle and the same bytes."""

    @staticmethod
    def _check(bundle):
        text = bundle_to_json(bundle)
        loaded = bundle_from_json(text)
        assert loaded == bundle
        assert bundle_to_json(loaded) == text

    @settings(max_examples=60)
    @given(_training_runs())
    def test_trained_bundles(self, run):
        for bundle in _trained_bundles(*run):
            self._check(bundle)

    @settings(max_examples=60)
    @given(_training_runs(), st.integers(1, 100))
    def test_models_selected_below_the_bundle_budget(self, run, extra):
        """Models whose features were selected at k, in a bundle whose meta.k is larger."""
        for bundle in _trained_bundles(*run):
            meta = dataclasses.replace(bundle.meta, k=bundle.meta.k + extra)
            self._check(build_bundle(bundle.models.values(), bundle.config, meta))


def _mostly(valid, wild):
    """Draws from ``valid`` seven times in eight, else from ``wild`` (valid or not)."""
    return st.integers(0, 7).flatmap(lambda r: valid if r else wild)


# Fields of every kind a caller might pass. Most draws are valid, so that
# about a quarter of the bundles below are built and round-trip.
_ANY_GROUP = (st.integers(-2, 102) | st.booleans() | st.floats(-1, 101)
              | st.sampled_from(["3", ""]))
_GROUP = _mostly(st.integers(0, 99), _ANY_GROUP)
_FEATURE_NAMES = _mostly(
    st.lists(st.sampled_from(["add", "mov", "op1", "ß", "a\0b"]), min_size=1, max_size=3,
             unique=True),
    st.lists(st.sampled_from(["add", "MOV", "", "İ", 3]) | st.text(max_size=2), max_size=4))


def _uniform_model(group, names):
    """A GroupModel over FeatureSet(names) with uniform priors and likelihoods."""
    features = FeatureSet(names)
    row = (-math.log(len(names)),) * len(features.opcodes)
    return GroupModel(group, features, {c: math.log(0.5) for c in CLASSES},
                      {c: row for c in CLASSES})


@settings(max_examples=50)
@given(st.lists(st.tuples(_GROUP, _FEATURE_NAMES.map(tuple)), min_size=1, max_size=3),
       st.integers(1, 3),
       st.none() | st.lists(_mostly(st.none(), _ANY_GROUP), min_size=3, max_size=3))
def test_a_bundle_is_refused_when_built_or_round_trips(fields, k, keys):
    """GroupModel, then build_bundle (keys None) or ModelBundle under the drawn keys.

    A None key stands for the model's own group. Either a constructor
    raises a GroupNBError, or the bundle saves, loads back equal and
    saves the same bytes again.
    """
    meta = dataclasses.replace(_META, k=k)
    try:
        models = [_uniform_model(*f) for f in fields]
        if keys is None:
            bundle = build_bundle(models, GroupingConfig(), meta)
        else:
            by_key = {m.group if key is None else key: m for key, m in zip(keys, models)}
            bundle = ModelBundle(GroupingConfig(), by_key, meta)
    except GroupNBError:
        return
    text = bundle_to_json(bundle)
    loaded = bundle_from_json(text)
    assert loaded == bundle
    assert bundle_to_json(loaded) == text


# A zero of each number type a model takes, and values whose exps are 0.0.
_ZERO = st.sampled_from([0, 0.0, -0.0, np.float64(0.0), np.float64(-0.0)])
_NEGLIGIBLE = (st.integers(-2000, -800) | st.floats(-2000, -800)
               | st.floats(-2000, -800).map(np.float64))


@st.composite
def _log_distributions(draw, n):
    """n log values of mixed number types whose exps sum to 1.

    Either one is a zero and the rest are at most -800, or each is -ln(n)
    as a float or an np.float64 (-0.0 when n is 1).
    """
    if draw(st.booleans()):
        values = [draw(_NEGLIGIBLE) for _ in range(n)]
        values[draw(st.integers(0, n - 1))] = draw(_ZERO)
        return tuple(values)
    return tuple(draw(st.sampled_from([float, np.float64]))(-math.log(n)) for _ in range(n))


@st.composite
def _hand_built_models(draw, group):
    """A GroupModel built from mixed-type values, with an UNKNOWN key in each mapping."""
    names = draw(st.lists(st.sampled_from(["add", "jmp", "mov", "xor"]), min_size=1,
                          max_size=4, unique=True))
    log_prior = dict(zip(CLASSES, draw(_log_distributions(2))))
    log_likelihood = {c: draw(_log_distributions(len(names))) for c in CLASSES}
    log_prior[Label.UNKNOWN] = draw(_ZERO)
    log_likelihood[Label.UNKNOWN] = draw(_log_distributions(len(names)))
    return GroupModel(group, FeatureSet(tuple(names)), log_prior, log_likelihood)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 99), min_size=1, max_size=2, unique=True).flatmap(
    lambda groups: st.tuples(*map(_hand_built_models, groups))))
def test_a_hand_built_bundle_saves_and_loads_again(models):
    """One or two models whose values mix int, float, np.float64 and -0.0.

    The bundle loads back equal, and a second save gives the same bytes.
    """
    bundle = build_bundle(models, GroupingConfig(), dataclasses.replace(_META, k=4))
    text = bundle_to_json(bundle)
    loaded = bundle_from_json(text)
    assert loaded == bundle
    assert bundle_to_json(loaded) == text


def _oracle_lines(bundle_doc, input_lines):
    """Expected prediction documents, computed from the file formats alone.

    Routing, scoring and the tie rule follow the README: group is
    size // width; an untrained group routes to the next trained group
    above, else the nearest below; scores are log prior plus count times
    log likelihood, summed in feature order; ties go to benign. A size
    outside the range, or a score that is not a finite float, gives an
    error line.
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
            out.append({"id": sample["id"], "error": f"size_bytes {size} outside [0, {limit})"})
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
        if not all(map(math.isfinite, scores.values())):
            out.append({"id": sample["id"], "error": "log-score is not a finite float"})
            continue
        label = "malware" if scores["malware"] > scores["benign"] else "benign"
        out.append({"id": sample["id"], "label": label, "log_posterior": scores,
                    "effective_group": effective})
    return out


@st.composite
def _classify_cases(draw):
    """A trained bundle, maybe with models left out, and classify input lines for it.

    Sizes reach one group past the trained ones and past the size range;
    a count of 1.7e308 usually overflows its sample's log-score.
    """
    spec, k_values, alpha = draw(_training_runs(always_trainable=True))
    spec = dataclasses.replace(spec, group_count=draw(st.integers(3, 5)))  # room for gaps
    trained = train_bundles(grouped(generate_synthetic(spec)), k_values[:1], alpha,
                            created_at="t")[k_values[0]]
    ids = trained.trained_ids
    # Every step-th model from a start: gaps below the first and between the kept ones.
    kept = ids[draw(st.integers(0, len(ids) - 1))::draw(st.integers(1, 3))]
    bundle = build_bundle([trained.models[g] for g in kept], trained.config, trained.meta)
    names = st.sampled_from(vocabulary(spec.vocabulary_size))
    lines = []
    for i in range(draw(st.integers(0, 20))):
        size = draw(st.integers(0, (spec.group_count + 1) * 5120) | st.integers(512000, 520000))
        opcodes = draw(st.dictionaries(names, st.integers(1, 20), max_size=8))
        huge = draw(st.none() | names)
        if huge is not None:
            opcodes[huge] = 17 * 10**307
        lines.append(json.dumps({"id": f"s{i}", "size_bytes": size, "opcodes": opcodes}))
    return bundle, lines


def test_classify_property():
    """CLI classify writes the oracle's lines, the same bytes at every lane count.

    The kernel block is cut to 2 samples, so batches of 4 or more start
    worker lanes. One fixed example covers every routing case and both
    errors, whatever the draws are.
    """
    block = 2
    seen = {"lanes": set(), "errors": set(), "groups": set()}
    spec = SyntheticSpec(group_count=5, samples_per_group_per_class=6, vocabulary_size=12,
                         divergence=0.5, seed=7)
    trained = train_bundles(grouped(generate_synthetic(spec)), (4,), 1.0, created_at="t")[4]
    fixed = build_bundle([trained.models[g] for g in (1, 3)], trained.config, trained.meta)
    ops = fixed.models[3].features.opcodes
    fixed_lines = [json.dumps({"id": f"f{i}", "size_bytes": size, "opcodes": opcodes})
                   for i, (size, opcodes) in enumerate([
                       (5120 + 7, {ops[0]: 3, "zzz": 1}),  # group 1, trained
                       (3 * 5120, {ops[1]: 2, ops[2]: 5}),  # group 3, trained
                       (100, {ops[0]: 1}),  # group 0, below the lowest kept model
                       (2 * 5120 + 9, {ops[3]: 4}),  # group 2, between the kept models
                       (4 * 5120 + 1, {ops[1]: 2}),  # group 4, above the highest kept model
                       (7 * 5120, {}),  # group 7, above as well
                       (512000, {ops[0]: 1}),  # outside the size range
                       # Every feature's log-likelihood is negative and one is at most
                       # -ln 4, so this count sends a log-score to -inf.
                       (3 * 5120 + 5, dict.fromkeys(ops, 17 * 10**307)),
                   ])]

    @settings(max_examples=40)
    @given(_classify_cases())
    @example((fixed, fixed_lines))
    def check(case):
        bundle, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            bundle_path, in_path = os.path.join(tmp, "bundle.json"), os.path.join(tmp, "in.jsonl")
            save_bundle(bundle, bundle_path)
            with open(in_path, "w", encoding="utf-8") as fp:
                fp.writelines(line + "\n" for line in lines)
            outputs = {}
            for mode in ["--sequential"] + [f"--parallel --lanes {n}" for n in range(1, 5)]:
                out_path = os.path.join(tmp, "out.jsonl")
                summary = io.StringIO()
                with mock.patch.object(engine, "_BLOCK", block), redirect_stdout(summary):
                    assert main(["classify", "--bundle", bundle_path, "--in", in_path,
                                 "--out", out_path, *mode.split()]) == 0
                with open(out_path, "rb") as fp:
                    outputs[mode] = fp.read()
                lanes = int(re.search(r", (\d+) lanes?,", summary.getvalue())[1])
                want = min(int(mode[-1]), max(1, len(lines) // block)) if "lanes" in mode else 1
                assert lanes == want, (mode, summary.getvalue())
                seen["lanes"].add(lanes)
            assert len(set(outputs.values())) == 1
            with open(bundle_path, encoding="utf-8") as fp:
                expected = _oracle_lines(json.load(fp), lines)
        assert [json.loads(line) for line in outputs["--sequential"].splitlines()] == expected
        for doc, line in zip(expected, lines):
            if "error" in doc:
                seen["errors"].add(doc["error"].split()[0])
            else:
                ids, group = bundle.trained_ids, json.loads(line)["size_bytes"] // 5120
                seen["groups"].add("trained" if group in ids else "below" if group < ids[0]
                                   else "above" if group > ids[-1] else "between")

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(4)),
                           create=True):  # so --lanes 4 is not capped
        check()
    assert seen == {"lanes": {1, 2, 3, 4}, "errors": {"size_bytes", "log-score"},
                    "groups": {"trained", "below", "above", "between"}}


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

    def test_counts_each_group_once_for_every_k(self, monkeypatch):
        calls = []
        real = engine.count_group

        def counting(samples):
            calls.append(len(samples))
            return real(samples)

        monkeypatch.setattr(engine, "count_group", counting)
        samples = two_class_group(0) + two_class_group(1) + two_class_group(2)
        corpus = grouped(samples)
        for k in (1, 2, 3):
            train_bundle(corpus, k, created_at="t")
        bundles = train_bundles(corpus, (1, 2, 3), created_at="t")
        assert calls == [12, 12, 12]
        assert sorted(bundles) == [1, 2, 3]
        train_bundles(grouped(samples), (1, 2, 3), created_at="t")
        assert calls == [12] * 6  # a new corpus counts again, once for every k

    def test_ranks_each_group_once_for_a_k_sweep(self, monkeypatch):
        ranked = []
        real = engine._ranking

        def ranking(table):
            ranked.append(len(table.scores))
            return real(table)

        monkeypatch.setattr(engine, "_ranking", ranking)
        corpus = grouped(generate_synthetic(SyntheticSpec(3, 6, 256, 0.3, 1)))
        bundles = [train_bundle(corpus, k, created_at="t") for k in (20, 80, 200)]
        assert len(ranked) == len(bundles[0].trained_ids) == 3
        for bundle in bundles:
            for g, model in bundle.models.items():
                table = score_opcodes(corpus.groups[g], group=g)
                assert model.features == select_top_k(table, bundle.meta.k)

    @pytest.mark.parametrize("k", [0, True, 1.5])
    def test_a_bad_k_raises_after_the_first_groups_counting_errors(self, k, monkeypatch):
        """As select_top_k did: after group 0 is counted and scored, before group 1 is."""
        calls = []
        real = engine.count_group

        def counting(samples):
            calls.append(samples[0].id)
            return real(samples)

        monkeypatch.setattr(engine, "count_group", counting)
        with pytest.raises(InsufficientClassError, match="group 0: no benign opcode"):
            train_bundle(grouped(_empty_benign() + two_class_group(1)), k, created_at="t")
        calls.clear()
        corpus = grouped(two_class_group(0) + _empty_benign(1))
        with pytest.raises(InvalidConfigError, match=f"k must be a positive integer, got {k}"):
            train_bundle(corpus, k, created_at="t")
        assert calls == ["m000-000"]
        with pytest.raises(InvalidConfigError, match=f"k must be a positive integer, got {k}"):
            train_bundles(corpus, (3, k), created_at="t")
        assert calls == ["m000-000"]  # group 0 is kept, and group 1 is still not reached

    def test_a_sweep_on_one_corpus_matches_a_fresh_corpus_per_call(self):
        samples = generate_synthetic(SyntheticSpec(4, 8, 40, 0.5, 3))
        corpus = grouped(samples)
        for k in (1, 5, 40, 1):
            assert (bundle_to_json(train_bundle(corpus, k, 0.5, created_at="t"))
                    == bundle_to_json(train_bundle(grouped(samples), k, 0.5, created_at="t")))
        swept = train_bundles(corpus, (40, 5), 0.5, created_at="t")
        fresh = train_bundles(grouped(samples), (40, 5), 0.5, created_at="t")
        assert {k: bundle_to_json(b) for k, b in swept.items()} == {
            k: bundle_to_json(b) for k, b in fresh.items()}

    def test_a_replaced_group_is_counted_again(self):
        """A group is replaced only in a new corpus, which counts it afresh."""
        corpus = grouped(generate_synthetic(SyntheticSpec(4, 12, 40, 0.5, 3)))
        before = bundle_to_json(train_bundle(corpus, 5, created_at="t"))
        for value in (corpus.groups[1][::2], list(corpus.groups[1])):
            with pytest.raises(TypeError):
                corpus.groups[1] = value
        replaced = GroupedCorpus(corpus.config, {**corpus.groups, 1: corpus.groups[1][::2]})
        after = bundle_to_json(train_bundle(replaced, 5, created_at="t"))
        fresh = GroupedCorpus(corpus.config, dict(replaced.groups))
        assert after == bundle_to_json(train_bundle(fresh, 5, created_at="t"))
        assert after != before
        assert bundle_to_json(train_bundle(corpus, 5, created_at="t")) == before

    def test_the_callers_lists_do_not_reach_the_corpus(self):
        samples = two_class_group(0)
        groups = {0: samples}
        corpus = GroupedCorpus(GroupingConfig(), groups)
        before = bundle_to_json(train_bundle(corpus, 3, created_at="t"))
        samples.append(make_sample("late", Label.MALWARE, 7, {"zzz": 99}))
        groups[1] = two_class_group(1)
        assert list(corpus.groups) == [0] and len(corpus.groups[0]) == 12
        assert bundle_to_json(train_bundle(corpus, 3, created_at="t")) == before

    def test_a_group_that_fails_to_score_fails_again(self):
        corpus = grouped(_empty_benign() + two_class_group(1))
        for _ in range(2):
            with pytest.raises(InsufficientClassError,
                               match="group 0: no benign opcode occurrences to score"):
                train_bundle(corpus, 3, created_at="t")

    def test_matches_the_public_steps(self):
        corpus = grouped(generate_synthetic(SyntheticSpec(4, 6, 40, 0.5, 3)))
        bundles = train_bundles(corpus, (1, 5, 40), 0.5, created_at="t")
        for k, bundle in bundles.items():
            models = []
            for g in bundle.trained_ids:
                table = score_opcodes(corpus.groups[g], group=g)
                models.append(
                    train_group(corpus.groups[g], select_top_k(table, k), 0.5, group=g)
                )
            steps = build_bundle(models, corpus.config, bundle.meta)
            assert bundle_to_json(steps) == bundle_to_json(bundle)


def _with_unlabeled():
    return two_class_group(0) + [make_sample("u", Label.UNKNOWN, 3, {"evil": 9})]


def _with_unlabeled_in_untrainable_group():
    return two_class_group(0) + [make_sample("u", Label.UNKNOWN, 35_840, {"evil": 9})]  # group 7


def _empty_benign(group=0):
    return [
        s if s.label is Label.MALWARE else dataclasses.replace(s, histogram=OpcodeHistogram({}))
        for s in two_class_group(group)
    ]


def _empty_benign_with_unlabeled():
    return _empty_benign() + [make_sample("u", Label.UNKNOWN, 3, {"evil": 9})]


def _train_by_bundles(samples, k, alpha):
    train_bundles(grouped(samples), (k,), alpha, created_at="t")


def _train_by_steps(samples, k, alpha):
    features = select_top_k(score_opcodes(samples, group=0), k)
    train_group(samples, features, alpha, group=0)


@pytest.mark.parametrize("train", [_train_by_bundles, _train_by_steps])
@pytest.mark.parametrize("samples, k, alpha, error, message", [
    (_with_unlabeled, 5, 0.0, IntegrityError, "sample 'u' has no training label"),
    (_with_unlabeled, 0, 1.0, IntegrityError, "sample 'u' has no training label"),
    (_with_unlabeled, 5, 1.0, IntegrityError, "sample 'u' has no training label"),
    (_empty_benign, 0, 0.0, InsufficientClassError,
     "group 0: no benign opcode occurrences to score"),
    (_empty_benign_with_unlabeled, 5, 1.0, IntegrityError, "sample 'u' has no training label"),
    (_with_unlabeled_in_untrainable_group, 5, 1.0, IntegrityError,
     "sample 'u' has no training label"),
], ids=["unlabeled-alpha-0", "unlabeled-k-0", "unlabeled", "empty-benign-k-0-alpha-0",
        "unlabeled-empty-benign", "unlabeled-in-untrainable-group"])
def test_training_error_precedence(train, samples, k, alpha, error, message):
    """An unlabeled sample comes first, then scoring errors, then k, then alpha."""
    with pytest.raises(error, match=message):
        train(samples(), k, alpha)


@pytest.mark.parametrize("k, alpha, message", [
    (0, 1.0, "k must be a positive integer, got 0"),
    (3, math.nan, "alpha must be positive and finite, got nan"),
    (3, True, "alpha must be positive and finite, got True"),
], ids=["k-0", "alpha-nan", "alpha-true"])
def test_no_trainable_group_still_checks_k_and_alpha(k, alpha, message):
    """With no model to fit, BundleMeta is what rejects them."""
    with pytest.raises(InvalidConfigError, match=message):
        train_bundles(GroupedCorpus(GroupingConfig(), {}), (k,), alpha, created_at="t")


@pytest.mark.parametrize(
    "alpha", [math.nan, math.inf, -math.inf, 0, -1.0, True, "1.0", 10**400],
    ids=["nan", "inf", "-inf", "0", "-1.0", "True", "str", "10**400"])
def test_one_alpha_rule_for_meta_fit_and_load(alpha, tmp_path):
    """BundleMeta, fit_counts and a loaded bundle's meta refuse alpha with one text."""
    text = re.escape(f"alpha must be positive and finite, got {alpha!r}")
    with pytest.raises(InvalidConfigError, match=f"^{text}$"):
        dataclasses.replace(_META, alpha=alpha)
    counts = count_group([make_sample("m", Label.MALWARE, 10, {"add": 1}),
                          make_sample("b", Label.BENIGN, 11, {"mov": 1})])
    with pytest.raises(InvalidConfigError, match=f"^{text}$"):
        fit_counts(counts, FeatureSet(("add", "mov")), alpha, group=0)
    doc = json.loads(bundle_to_json(_bundle()))
    doc["meta"]["alpha"] = alpha
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(BundleValidationError, match=f"^bad bundle config/meta: {text}$"):
        load_bundle(path)


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

    @staticmethod
    def _f_string_writer(run, samples, sink):
        """The writer as it was before the one-format lines: an f-string and writes per line."""
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
                f'"log_posterior": {{"malware": {format(float(scores[Label.MALWARE]), ".17g")}, '
                f'"benign": {format(float(scores[Label.BENIGN]), ".17g")}}}, '
                f'"effective_group": {prediction.effective_group}}}\n'
            )

    _IDS = ['plain', 'quote"d', 'back\\slash', 'tab\tnew\nline\x00\x1f\x7f', 'café  ',
            '\U0001f600 astral \U00010000', '\ud800 lone surrogate', '/slash', 'é']
    _SCORES = [(-0.0, 0.0), (5e-324, -5e-324), (1e308, -1e308), (-1.5, -1.5),
               (-123.456789012345678, -0.1), (math.pi, -math.e), (-2.0 ** -1022, 1.0)]

    def _run(self, predictions_short_by=0):
        samples, predictions, errors = [], [], []
        for i, sid in enumerate(self._IDS):
            samples.append(make_sample(sid, Label.UNKNOWN, 10 * i, {"mov": 1}))
            if i % 4 == 3:
                predictions.append(None)
                errors.append((i, f"error {sid}: size_bytes {i} outside [0, 512000)"))
            else:
                m, b = self._SCORES[i % len(self._SCORES)]
                predictions.append(decide(m, b, 99 - i))
        predictions = predictions[:len(predictions) - predictions_short_by]
        return engine.TimedRun(tuple(predictions), tuple(errors), 0, 1), samples

    def test_bytes_equal_the_f_string_writer(self):
        run, samples = self._run()
        sink, expected = mock.Mock(wraps=io.StringIO()), io.StringIO()
        write_predictions(run, samples, sink)
        self._f_string_writer(run, samples, expected)
        assert sink.write.call_count == 1
        (text,), _ = sink.write.call_args
        assert text == expected.getvalue()
        assert text.isascii()
        assert [json.loads(line)["id"] for line in text.splitlines()] == self._IDS

    def test_every_score_pair_and_both_labels(self):
        samples = [make_sample(f"s{i}", Label.UNKNOWN, 10, {"mov": 1})
                   for i in range(2 * len(self._SCORES))]
        pairs = self._SCORES + [pair[::-1] for pair in self._SCORES]
        run = engine.TimedRun(tuple(decide(m, b, i) for i, (m, b) in enumerate(pairs)), (), 0, 1)
        sink, expected = io.StringIO(), io.StringIO()
        write_predictions(run, samples, sink)
        self._f_string_writer(run, samples, expected)
        assert sink.getvalue() == expected.getvalue()
        assert {json.loads(line)["label"] for line in sink.getvalue().splitlines()} == {
            "malware", "benign"}

    def test_no_samples_is_one_empty_write(self):
        sink = mock.Mock(wraps=io.StringIO())
        write_predictions(engine.TimedRun((), (), 0, 1), [], sink)
        sink.write.assert_called_once_with("")

    def test_fewer_predictions_than_samples_raise_index_error(self):
        run, samples = self._run(predictions_short_by=1)
        with pytest.raises(IndexError):
            write_predictions(run, samples, io.StringIO())


# Trains three bundles on a generated corpus and classifies it, writing
# the bundle texts and then the prediction lines to stdout.
_HASH_SEED_SCRIPT = """
import io, sys
from groupnb.corpus import GroupingConfig, parse_corpus, partition_by_group, serialize_sample
from groupnb.engine import (
    Workload, bundle_to_json, classify_sequential, train_bundles, write_predictions)
from groupnb.synth import SyntheticSpec, generate_synthetic
text = "".join(serialize_sample(s) + "\\n" for s in generate_synthetic(SyntheticSpec(8, 9, 48, 0.4, 2)))
samples = parse_corpus(text)
grouped, _ = partition_by_group(samples, GroupingConfig(min_per_class=8))
bundles = train_bundles(grouped, (5, 20, 60), created_at="2020-01-01T00:00:00+00:00")
for k in (5, 20, 60):
    sys.stdout.write(bundle_to_json(bundles[k]))
sink = io.StringIO()
write_predictions(classify_sequential(bundles[20], Workload(samples, 1), warmup=False), samples, sink)
sys.stdout.write(sink.getvalue())
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """Set and dict-key order of str hashes reaches no bundle byte and no prediction byte."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                       timeout=120).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b'"format": 3') == 3
    assert outputs[0].count(b'"effective_group"') == 8 * 2 * 9
