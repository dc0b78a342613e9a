"""End-to-end and per-layer benchmark of groupnb, run from the repository root.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload bulk_scan_seq --seed 1 --seconds 10 --trace 0

Every workload, untraced and then traced, with a summary table:

    python3 perfbench/run.py --seed 1

The program under test is imported from ``src/`` next to this directory
and nowhere else. A single run prints its facts and metrics one per line,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The traced run writes its
spans to ``.perfbench_work/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("bulk_scan_seq", "bulk_scan_par", "small_batches_seq", "small_batches_par",
                  "train_sweep")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload; without it, run all of them")
    p.add_argument("--seed", type=int, default=0, help="workload seed (non-negative)")
    p.add_argument("--seconds", type=float, default=10.0, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    return p


def _import_program():
    """Import groupnb from this checkout's src/, refusing any other copy."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import groupnb

    found = Path(groupnb.__file__).resolve().parent
    if found != SRC / "groupnb":
        raise ImportError(f"groupnb imported from {found}, not from {SRC}")
    return groupnb


def _facts(args, workloads) -> list[str]:
    import numpy

    workload = workloads.WORKLOADS[args.workload]
    shape = workloads.SIZES[args.size][workload.corpus]
    cpus = os.cpu_count()
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}",
        f"host: os.cpu_count()={cpus} lanes={workloads.LANES} python={platform.python_version()} "
        f"numpy={numpy.__version__}",
        f"inputs: corpus={workload.corpus} SyntheticSpec{shape.spec + (args.seed,)} "
        f"k={list(shape.ks)} batch_size={shape.batch or 'whole corpus'} batches={shape.batches} "
        f"mode={'parallel' if workload.lanes else 'sequential'}",
    ]
    if shape.tail_spec:
        lines.append(f"inputs: tail SyntheticSpec{shape.tail_spec + (args.seed + 1,)} "
                     f"tail_share={shape.tail_share} oversize_share={shape.oversize_share}")
    if (cpus or 1) < 4:
        lines.append("acceptance check C5 (kernel speedup >= 1.5 at >= 4 threads) cannot be "
                     f"judged on this {cpus}-thread host; engine.kernel_speedup is reported as "
                     "measured")
    return lines


def run_one(args) -> int:
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    from perfbench import workloads

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json" if args.trace else None
    for line in _facts(args, workloads):
        print("# " + line)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                           WORK, trace_path)
    counter = result.counter
    for note in result.notes:
        print("# " + note)
    if trace_path is not None:
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    for message in counter.messages:
        print("# FAILED: " + message)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {counter.failed / counter.attempted:.6g} "
          f"({counter.failed} failed of {counter.attempted} attempted)")
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced, one at a time."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace={trace}: exited {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            rows.append((name, trace, result))
    print("\nworkload            trace  failed/attempted  metric = value unit")
    for name, trace, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<19} {trace:>5}  {result['failed']:>6}/{result['attempted']:<9} "
                  f"{metric} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
