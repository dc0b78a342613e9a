"""Host-speed reference for normalizing end-to-end timings.

On a shared host, neighbours' load changes how fast this process runs
by tens of percent, in bursts of well under a second, which would swamp
the differences the benchmark is meant to show between two versions of
groupnb. A fixed piece of pure-Python work of the same kind as groupnb's
(JSON decoding, dict building, float sums), calling nothing in groupnb,
is timed right before and right after every timed interval. The
interval is reported as it would read on a host where that reference
takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / mean(reference before, reference after)
"""

from __future__ import annotations

import gc
import json
import random
import time

NOMINAL_S = 0.007
# Reference time spent around an interval, as a share of the interval.
SHARE = 0.05


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self._lines = [
            json.dumps({"id": f"r{i}", "opcodes": {
                f"op{j:03d}": rng.randrange(1, 50) for j in rng.sample(range(256), 120)}})
            for i in range(100)
        ]

    def _work(self) -> float:
        total = 0.0
        for line in self._lines:
            doc = json.loads(line)
            counts = {op.lower(): n for op, n in doc["opcodes"].items() if n}
            for n in counts.values():
                total += n * 0.5
        return total

    def sample(self, at_least_s: float = 0.0) -> float:
        """Mean seconds per pass of the reference work, over back-to-back passes
        lasting at least ``at_least_s`` (and at least one pass)."""
        # With the collector off, the reference does not depend on how much
        # the process happens to hold when it is sampled.
        enabled = gc.isenabled()
        gc.disable()
        try:
            passes = 0
            t0 = time.perf_counter()
            while True:
                self._work()
                passes += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= at_least_s:
                    return elapsed / passes
        finally:
            if enabled:
                gc.enable()


def scaled(measured_s: float, before_s: float, after_s: float) -> float:
    """A measured interval at the nominal host speed."""
    return measured_s * NOMINAL_S * 2 / (before_s + after_s)
