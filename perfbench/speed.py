"""Machine-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on are shared, and their speed drifts by
up to +-25% over seconds to minutes while the process keeps its CPU (CPU
time tracks wall time).  A run of bottiter alone cannot tell that drift
from a change in the program.  So the benchmark times a fixed loop of
pure-Python work, independent of bottiter, between operations, and
reports every time metric at reference speed:

    reported = measured * REFERENCE_S / (median loop time over the
                                         calibrations of the same sweep)

REFERENCE_S is the loop's median time on the machine the
benchmark was defined on, an Intel Xeon with 2 vCPUs under CPython
3.11.7, so there the reported and measured times agree at its median
speed.  The measured figures are printed next to the reported ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.008
SHARE = 0.05  # calibration time per unit of measured work
PERIOD_S = 0.5  # measured work between two calibrations


def calibration_loop() -> float:
    """Time one pass of fixed work like bottiter's: floor sums over
    integers, exact rational arithmetic and small allocations."""
    start = time.perf_counter()
    total = 0
    for m in range(1, 8000):
        for p, q in ((7919, 20011), (104, 20021), (9001, 20023)):
            total += (m * p) // q
    acc = Fraction(0)
    for j in range(1, 400):
        acc += Fraction(j, 20011) - Fraction(j, 20021)
    table = {}
    for i in range(4000):
        table[(i, i % 7)] = [i, total]
    return time.perf_counter() - start


class SpeedMeter:
    """The speed factor of one series of timed operations, e.g. a sweep.

    Call `record` after each operation with its measured time.  The
    machine is calibrated at the start, again whenever PERIOD_S of
    measured work has accumulated, and by `factor`.  Each calibration runs
    the loop for about SHARE of the work since the last one, so the
    samples cover the series evenly even around one long operation.
    `factor` returns REFERENCE_S over the median loop time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._calibrate(PERIOD_S)
        self._owed = 0.0

    def record(self, seconds: float) -> None:
        self._owed += seconds
        if self._owed >= PERIOD_S:
            self._calibrate(self._owed)
            self._owed = 0.0

    def factor(self) -> float:
        if self._owed:
            self._calibrate(max(self._owed, PERIOD_S))
            self._owed = 0.0
        return REFERENCE_S / statistics.median(self.samples)

    def _calibrate(self, work: float) -> None:
        passes = max(3, round(SHARE * work / REFERENCE_S))
        self.samples.extend(calibration_loop() for _ in range(passes))
