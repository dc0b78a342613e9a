"""Self-tests of the benchmark at a tiny size: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench

bench._import_program()

from groupnb import engine  # noqa: E402

from perfbench import flows, tracing, workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
            "--trace", str(trace), "--size", "tiny"]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line for line in lines if line.startswith(m["name"] + " = ")]
        assert len(printed) == 1 and printed[0].endswith(" " + m["unit"])
    assert any(line.startswith("failed_share = 0 ") for line in lines)


def test_corrupted_prediction_line_counts_as_failed(monkeypatch, tmp_path):
    """Outputs stay intact through the gate; afterwards one line per file is corrupted."""
    corrupt = {"on": False}
    real_write = engine.write_predictions
    real_gate = workloads.gate

    def write(run, samples, sink):
        buf = io.StringIO()
        real_write(run, samples, buf)
        text = buf.getvalue()
        if corrupt["on"]:
            text = text.replace('"id": "', '"id": "x', 1)
        sink.write(text)

    def gate(*args, **kwargs):
        facts = real_gate(*args, **kwargs)
        corrupt["on"] = True
        return facts

    monkeypatch.setattr(engine, "write_predictions", write)
    monkeypatch.setattr(workloads, "gate", gate)
    result = workloads.run("bulk_scan_seq", 1, 0.2, False, "tiny", tmp_path)
    counter = result.counter
    assert counter.failed >= 1
    assert counter.failed < counter.attempted
    assert all("output differs from its reference" in m for m in counter.messages)


def test_seed_changes_inputs_not_metric_names(capsys, tmp_path):
    batches = []
    for seed in (4, 5):
        inputs = workloads.Inputs(tmp_path / f"seed{seed}")
        inputs.dir.mkdir()
        shape = workloads.SIZES["tiny"]["small_batches"]
        workloads.setup_small(tracing.NullTracer(), shape, seed, inputs)
        batches.append([flows.read_bytes(p) for p in inputs.in_paths])
    assert batches[0] != batches[1]
    names = [list(_run(capsys, "small_batches_seq", seed, 0)[1]["metrics"]) for seed in (4, 5)]
    assert names[0] == names[1]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert tracer.self_times_ns() == [outer.duration_ns - inner.duration_ns, inner.duration_ns]


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and this directory, a run exits non-zero and prints no result."""
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_scan_seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
