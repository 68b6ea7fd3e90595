"""The machine's current speed, measured with a fixed kernel of interpreter
and numpy work that uses no wdmt code.

On the reference machine the speed of the same call drifts by up to +-40%
over seconds, in CPU time as much as in wall time, and every kind of work
slows together. Timed figures are reported at the reference speed, at which
one kernel run takes ``REFERENCE_S``: a measured rate times the kernel's
time over ``REFERENCE_S``, or a measured time divided by it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3


class Calibration:
    """Runs the kernel between operations, about every ``EVERY_S``, and
    keeps each run's time."""

    EVERY_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(1 << 16)
        self._rows = rng.standard_normal((1 << 15, 3)) + 1j * rng.standard_normal((1 << 15, 3))
        self.seconds: list[float] = []
        self._last = time.perf_counter()

    def kernel(self) -> None:
        total = 0
        for i in range(30_000):
            total += i * i % 7
        np.sort(self._values)
        np.einsum("nm,nm->n", self._rows.conj(), self._rows)

    def timed(self) -> float:
        """Run the kernel once; keep and return its time."""
        start = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self.seconds.append(self._last - start)
        return self.seconds[-1]

    def maybe_run(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.timed()

    def speed_factor(self) -> float:
        """Mean kernel time over its reference time (above 1: slower)."""
        return statistics.fmean(self.seconds) / REFERENCE_S
