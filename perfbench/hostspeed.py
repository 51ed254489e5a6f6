"""Wall times scaled to a reference host speed.

The machines this benchmark runs on are shared: other tenants slow a vCPU
by up to 1.8x, in spells of seconds to minutes, and the slowdown shows in
process CPU time as much as in wall time. So each timed piece of work is
bracketed by two runs of a fixed probe that does not touch the program, and
its wall time is divided by how much slower than PROBE_REF_S the probe ran
on either side of it. A change to the program moves the scaled time; a
change in the host's speed moves the probe too and mostly cancels.
"""

from __future__ import annotations

import json
import math
import time

# Geometric mean of the probe's three parts, in seconds, on the machine the
# benchmark was written on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python
# 3.11) at its usual speed. It only sets the scale of the reported values.
PROBE_REF_S = 0.0040


def _interpreter() -> None:
    """Tuples, dicts, float arithmetic and big-int bit operations."""
    acc, counts, bits = 0.0, {}, 0
    for i in range(4000):
        t = (i, i * 3, i * 0.5)
        acc += t[2] * 1.0001 - t[0]
        counts[t[1] & 255] = counts.get(t[1] & 255, 0) + 1
        bits = ((bits << 1) | (i & 1)) & ((1 << 90) - 1)
        bits &= ~(1 << (i % 90))


def _math() -> None:
    """Log-gamma, log and exp, as in a log-space sum."""
    acc = 0.0
    for i in range(1, 7500):
        acc += math.lgamma(i * 0.5) - math.log(i) + math.exp(-i * 1e-4)


def _memory() -> None:
    """A list built, sorted and written as JSON."""
    values = [(i * 2654435761) % 100003 for i in range(12000)]
    values.sort()
    json.dumps(values)


def probe() -> float:
    """Geometric mean of the wall times of the probe's parts, in seconds."""
    product = 1.0
    for part in (_interpreter, _math, _memory):
        start = time.perf_counter()
        part()
        product *= time.perf_counter() - start
    return product ** (1 / 3)


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` of work scaled by the probe times `before` and `after` it."""
    return seconds * PROBE_REF_S / math.sqrt(before * after)


class HostSpeed:
    """Scales consecutive wall times by the probes run between them."""

    def __init__(self) -> None:
        self.last = 0.0  # the latest probe's time
        self.factors: list[float] = []  # host slowdown against PROBE_REF_S

    def resume(self) -> None:
        """Probe before the next timed work, after work that is not timed."""
        self.last = probe()

    def scale(self, seconds: float) -> float:
        """`seconds` of work just finished, at the reference speed."""
        before, self.last = self.last, probe()
        self.factors.append(math.sqrt(before * self.last) / PROBE_REF_S)
        return at_reference(seconds, before, self.last)
