"""Interleaved CPU-speed probe, to make timings comparable between runs.

On a shared host the speed of one core drifts by up to 2x within seconds,
as other tenants load its hardware siblings; a plain wall-clock time then
says more about the neighbours than about lcft. While a probe is active, a
timer signal interrupts the program every ``INTERVAL_S`` and times a fixed
pure-Python kernel (integer arithmetic, list indexing, small objects: the
instruction mix of the field and series code). Because the samples are
spread uniformly over wall time, the work done in an interval of T
seconds is T times the mean sampled speed, and that product, in
*reference seconds*, is what the benchmark reports.

The kernel is the benchmark's own code, so a change to lcft cannot move
it. The time spent in the kernel is excluded from ``clock()``.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
KERNEL_ROUNDS = 2000
# the kernel's duration on an uncontended core of the 2-vCPU development VM
# (Python 3.11.7); one reference second is one second at that speed
REFERENCE_S = 0.0007


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    table = list(range(256))
    acc = 0
    for i in range(rounds):
        x = table[(i * 7) & 255]
        acc = (acc + x * i) % 65521
        acc ^= _Pair(x, acc).a
    return acc


class SpeedProbe:
    """Samples the core's speed on a timer while it is entered."""

    def __init__(self):
        self.samples = []        # kernel durations, in seconds
        self.spent = 0.0         # total seconds spent in the kernel
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter`` with the probe's own time taken out."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def mark(self) -> int:
        """Start a measured phase: take a sample, return the phase's mark."""
        self.sample()
        return len(self.samples) - 1

    def speed(self, mark: int) -> float:
        """Mean speed since ``mark`` relative to the reference core.

        Takes a closing sample, so a phase always has at least two.
        """
        self.sample()
        return statistics.fmean(REFERENCE_S / d for d in self.samples[mark:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
