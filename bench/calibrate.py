"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the speed of a core drifts by up to a factor
of two within a minute, for every kind of work alike (a fixed ``Fraction``
loop took 48 ms to 125 ms in one 40 s probe on a 2-vCPU VM, with CPU time
tracking wall time).  Raw wall times of two runs of the same code then
differ by more than any code change worth measuring.

So the benchmark samples the machine's current speed with a fixed kernel,
run between operations (never inside one), and reports every end-to-end
time in *reference seconds*: the measured seconds times the kernel's
reference time over its time measured around that interval.  A code change
moves reference seconds as it moves wall time; a change of machine speed
moves both the operation and the kernel and cancels out.  The kernels use
only the standard library, so no change to cyclecones changes them.  The
raw wall times are kept in each run's record.

There are two kernels, because work in the benchmark process and work in a
fresh interpreter slow down differently:

* ``COMPUTE``: exact arithmetic in the benchmark process, for library
  operations.  In 5 s blocks of a 100 s probe on a 2-vCPU VM, block
  medians of ``small-batch`` operations moved with it at slope 0.93
  (correlation 0.997), and their spread fell from 25% to 2%.
* ``SPAWN``: a fresh interpreter that imports ``json`` and ``fractions``
  and does a little of the same arithmetic, for CLI invocations and
  set-up probes.  In 6 s blocks of a 90 s probe the CLI invocations moved
  with it at slope 0.92 (correlation 0.95), and their spread fell from 13%
  to 4%; the in-process kernel tracked them at slope 0.56 only.

``pin_to_one_cpu`` keeps the benchmark and every process it starts on one
core, so that a kernel and the work it calibrates share that core; without
it the CLI invocations did not follow the in-process kernel at all.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


def kernel() -> Fraction:
    """Fixed exact arithmetic: ``Fraction`` sums, int products, a dict."""
    total = Fraction(0)
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1, 1200):
        total += Fraction(i % 97 + 1, i % 89 + 1)
        acc += (i * 7919) % 1013
        counts[i % 61] = counts.get(i % 61, 0) + acc % 7
    return total


SPAWN_ARGV = (
    sys.executable, "-c",
    "import json\n"
    "from fractions import Fraction\n"
    "sum(Fraction(i % 97 + 1, i % 89 + 1) for i in range(1, 1200))\n",
)


def spawn_kernel() -> None:
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run(SPAWN_ARGV, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    # typical time on a 2-vCPU VM with Python 3.11.7, so that reference
    # seconds read about like wall seconds there
    reference_s: float
    # between operations, one sample per this much wall time since the
    # last one, at most MAX_BURST at a time
    every_s: float
    # an interval's speed is the median of the samples within this many
    # seconds of it, and of at least NEAREST samples on each side
    window_s: float


COMPUTE = Kernel(kernel, reference_s=0.0035, every_s=0.1, window_s=2.0)
SPAWN = Kernel(spawn_kernel, reference_s=0.06, every_s=1.0, window_s=4.0)
MAX_BURST = 8
NEAREST = 4
# The benchmark's operations slow down less than the kernels do: a wall
# time is scaled by (reference time / kernel time) ** SENSITIVITY.  Over
# ten seeds each of cli-fixtures, decompose-ladder and small-batch on a
# 2-vCPU VM, the spread of every end-to-end time between runs was least
# at 0.7 to 0.8 and grew on both sides.
SENSITIVITY = 0.8


def pin_to_one_cpu() -> None:
    """Restricts this process, and every process it starts, to the lowest
    core it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speedometer:
    """Samples of one kernel over a run, and the calibration of an
    interval."""

    def __init__(self, kind: Kernel):
        self.kind = kind
        self.times: list[float] = []  # midpoints, increasing
        self.kernel_s: list[float] = []
        kind.run()  # warm-up, not recorded

    def sample(self) -> None:
        start = perf_counter()
        self.kind.run()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_s.append(end - start)

    def maybe_sample(self) -> None:
        """Samples in proportion to the wall time since the last one."""
        if not self.times:
            self.sample()
            return
        due = int((perf_counter() - self.times[-1]) / self.kind.every_s)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: the
        reference kernel time over the median kernel time near it, to the
        power ``SENSITIVITY``."""
        times, window = self.times, self.kind.window_s
        lo = min(bisect_left(times, start - window), max(0, bisect_left(times, start) - NEAREST))
        hi = max(bisect_right(times, end + window), bisect_right(times, end) + NEAREST)
        near = self.kernel_s[lo:hi]
        if not near:
            raise RuntimeError("no kernel sample near a timed interval")
        return (self.kind.reference_s / statistics.median(near)) ** SENSITIVITY

    def reference_s(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
