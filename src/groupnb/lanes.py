"""The lane runtime: one body run over lanes, the caller and worker processes.

run_lanes(body, lane_args, warmup) runs body(*lane_args[i]) on lane i.
The caller is lane 0; each further lane is one worker process with its
own pipe, forked where the platform allows (it inherits the body and
its arguments) and spawned elsewhere (they are pickled, so the body must
be a module-level function), through the same code. One lane starts no
process. Behind a ready/go barrier, each worker runs its optional
warm-up call and reports ready; the caller warms lane 0 and waits for
every ready. Then it starts the clock, sends go, runs lane 0 and
receives every worker's result in lane order, so the elapsed time
leaves out process start-up and warm-up. A worker that dies before
returning its result raises LaneError, a worker whose caller has gone
exits quietly, and every worker is joined before run_lanes returns or
raises. host_threads() counts the CPUs this process may run on, within
its cgroup v2 CPU quota.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, Sequence

from .errors import LaneError

__all__: list[str] = []


# The cgroup v2 hierarchy, and the file naming this process's cgroup in it.
_CGROUP_ROOT = "/sys/fs/cgroup"
_PROC_CGROUP = "/proc/self/cgroup"


def host_threads() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one.

    A cgroup v2 CPU quota on the process's own cgroup caps it (_quota_cpus).
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _quota_cpus() or cpus)


def _quota_cpus() -> int | None:
    """ceil(quota / period) of the cpu.max of this process's cgroup v2 cgroup, or None.

    The cgroup is the "0::<path>" line of _PROC_CGROUP. None where the
    quota is "max", or a file is missing, unreadable or malformed.
    """
    try:
        with open(_PROC_CGROUP, encoding="utf-8") as fp:
            path = next(line[3:].rstrip("\n") for line in fp if line.startswith("0::"))
        with open(os.path.join(_CGROUP_ROOT, path.lstrip("/"), "cpu.max"), encoding="utf-8") as fp:
            quota, period = map(int, fp.read().split())
    except (OSError, StopIteration, ValueError):
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _lane(conn, caller_ends, body: Callable, args: tuple, warmup: bool) -> None:
    # A forked lane inherits the caller's pipe ends; while it holds them,
    # it would never see the caller close its own.
    for caller_end in caller_ends:
        caller_end.close()
    try:
        if warmup:
            body(*args)
        conn.send("ready")
        conn.recv()
        conn.send(body(*args))
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


def run_lanes(body: Callable, lane_args: Sequence[tuple], warmup: bool) -> tuple[list, int]:
    """Each lane's body(*args) result, in lane order, and the timed region's wall time in ns."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    procs, conns = [], []
    try:
        for args in lane_args[1:]:
            conn, lane_conn = ctx.Pipe()
            conns.append(conn)
            with lane_conn:  # the worker's copy must be the only one left open
                proc = ctx.Process(target=_lane, daemon=True,
                                   args=(lane_conn, tuple(conns), body, args, warmup))
                proc.start()
            procs.append(proc)
        workers = list(enumerate(zip(procs, conns), start=1))
        if warmup:
            body(*lane_args[0])
        for lane, (proc, conn) in workers:
            _receive(lane, proc, conn)
        t0 = time.perf_counter_ns()
        for conn in conns:
            conn.send("go")
        results = [body(*lane_args[0])]
        results += [_receive(lane, proc, conn) for lane, (proc, conn) in workers]
        elapsed = time.perf_counter_ns() - t0
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return results, elapsed
