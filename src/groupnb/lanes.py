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
raises.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Sequence

from .errors import LaneError

__all__: list[str] = []


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
