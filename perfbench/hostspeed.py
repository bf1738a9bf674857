"""Host-speed sampling, for timings that hold still on a shared machine.

On a shared 2-vCPU virtual machine the same single-threaded work took
from 1x to 2x the wall time, in phases lasting from seconds to about a
minute.  A small fixed pure-Python kernel (exact fractions and a dict,
like the analyser's own work) slows down in the same phases.  So while
a ``HostSpeed`` is active, a SIGALRM handler times the kernel every
``INTERVAL_S`` seconds of wall time, also inside long operations.  A
wall time divided by the mean kernel time over the same window is the
work in kernel units.  In three sets of ten seeds per workload, the
interquartile range of whole-round wall times was 9-25% of their
median, and that of these quotients 5-9%.

``normalised`` converts kernel units back to seconds on a host where the
kernel takes ``NOMINAL_KERNEL_S``, about its time on that VM when
undisturbed, under CPython 3.11.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.25
NOMINAL_KERNEL_S = 0.0007


def kernel() -> int:
    total = Fraction(0)
    digits: dict[int, int] = {}
    for i in range(1, 220):
        total += Fraction(1, i)
        digits[i % 97] = total.denominator % 1000
    return len(digits)


class HostSpeed:
    """Samples the kernel while active (``with HostSpeed() as host:``)."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in time order
        self.stolen = 0.0  # wall time spent sampling

    def sample(self, *_signal) -> None:
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.stolen += elapsed

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int, float]:
        return perf_counter(), len(self.samples), self.stolen

    def elapsed(self, mark) -> float:
        """Wall time since ``mark``, less the time spent sampling."""
        start, _, stolen = mark
        return perf_counter() - start - (self.stolen - stolen)

    def normalised(self, seconds: float, mark) -> float:
        """``seconds`` of work done since ``mark``, at nominal host speed.

        Takes a sample now, so every window has one.  The tenth of samples
        at either end is dropped: a sample caught by a pause of the whole
        machine would count that pause once per sample interval.
        """
        self.sample()
        window = sorted(self.samples[mark[1]:])
        trim = len(window) // 10
        return seconds * NOMINAL_KERNEL_S / statistics.fmean(window[trim:len(window) - trim])
