"""The machine's speed, measured right beside the work it scales.

The benchmark runs on shared hosts whose speed drifts: on a 2-core
container of such a host, the same 16 hints took up to 1.9 times as long
in one 2-second window as in another, and their median over 25-second
stretches moved by more than a quarter within minutes.  Process CPU time
drifts as much as wall time, so neither clock alone tells a slower program
from a busier host.

So a run times a fixed probe (an interpreter loop and small least-squares
solves, as the package's own hot paths are) right before every operation it
times, and scales each operation's time by the probes around it::

    scaled = measured * REFERENCE_S / median(probes around the operation)

A scaled time reads in the same unit as a measured one: it is the time the
operation would take on a machine on which the probe takes ``REFERENCE_S``.
The probe lives in the benchmark, so a change to the package moves the
scaled times exactly as it moves the measured ones; only the host's drift
cancels.  Runs also report the unscaled values, for comparison.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0035  # about the probe's time on a 2-core cloud container
AROUND = 3  # probes on each side of an operation that set its scale

_A = np.random.default_rng(0).random((24, 24))
_B = np.random.default_rng(1).random(24)


def probe() -> float:
    """Seconds one fixed piece of work takes now."""
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(12):
        np.linalg.lstsq(_A, _B, rcond=None)
    return perf_counter() - start


class Gauge:
    """The probes of one run, in the order they were taken."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0  # seconds spent probing

    def tick(self) -> int:
        """Take one probe; returns its index, which marks the operation
        timed right after it."""
        start = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - start
        return len(self.probes) - 1

    def scale(self, seconds: float, first: int, last: int = None) -> float:
        """``seconds`` of work done between probe ``first`` and the probe
        after ``last`` (default ``first``), scaled by ``REFERENCE_S`` over
        the median of those probes and ``AROUND`` more on each side."""
        last = first if last is None else last
        window = self.probes[max(0, first - AROUND + 1) : last + AROUND + 1]
        return seconds * REFERENCE_S / median(window)
