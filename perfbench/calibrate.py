"""Calibration of reported times against a fixed reference loop.

Shared machines change speed: on a shared 2-core x86 machine the same
aldyn call ran up to 2x slower for tens of seconds at a time, and an
interleaved pure-Python loop slowed by the same factor (the ratio of the
two held within a few percent while each alone moved by 50%).  So every
run times this loop between its checks, and each set-up sample right
after its set-up, and reports every time as
``raw * NOMINAL_S / (loop time around it)``, the loop time being the
median of the few samples taken nearest that measurement: seconds on a
machine where the loop takes NOMINAL_S.  The loop is part of the
benchmark and does not touch aldyn, so a change to aldyn cannot move it.

A workload whose checks are cold processes names ``reference_process`` in
its ``REFERENCE`` instead: a cold interpreter that imports numpy and runs
the loop.  Process start and import do not slow down with the loop (one
measurement: the loop at 11 and 20 ms, a bare interpreter start at 45 and
60 ms), and over ten 22-second windows of cold CLI checks the median
spread by 8.5% scaled by the loop and by 4% scaled by this process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

NOMINAL_S = 0.010
ITERATIONS = 1200
INTERVAL_S = 0.25
NOMINAL_PROCESS_S = 0.150
PROCESS_INTERVAL_S = 1.0
WINDOW = 2  # samples on each side of a measurement


def reference_loop() -> float:
    """Seconds for a fixed mix of Fraction arithmetic and dict and tuple
    work, the operations that dominate aldyn's exact arithmetic."""
    t0 = time.perf_counter()
    table = {}
    for i in range(ITERATIONS):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        b = Fraction(i % 5 - 2, i % 11 + 1)
        key = (i % 101, i % 7)
        table[key] = table.get(key, Fraction(0)) + a * b - a / (b + 3)
    return time.perf_counter() - t0


def reference_process() -> float:
    """Seconds for a cold interpreter that imports numpy and runs the
    reference loop twice; it imports nothing of aldyn."""
    code = "import numpy; from perfbench.calibrate import reference_loop as r; r(); r()"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent.parent,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class Calibration:
    """Reference samples taken at most every ``interval`` seconds when
    ``tick`` is called between measurements; times are scaled to a machine
    where ``reference`` takes ``nominal`` seconds."""

    def __init__(self, reference=reference_loop, nominal=NOMINAL_S, interval=INTERVAL_S):
        self.reference, self.nominal, self.interval = reference, nominal, interval
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False):
        now = time.perf_counter()
        if force or now - self._last >= self.interval:
            self.samples.append(self.reference())
            self._last = time.perf_counter()

    def mark(self) -> int:
        """Position of a measurement that just ended, for ``factor``."""
        return len(self.samples)

    def factor(self, mark: int | None = None) -> float:
        """Scale for a measurement at ``mark``, or for all of them."""
        if mark is None:
            window = self.samples
        else:
            window = self.samples[max(0, mark - WINDOW): mark + WINDOW]
        return self.nominal / statistics.median(window)
