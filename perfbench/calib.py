"""Calibration: scale measured CPU times to a reference speed of the machine.

The benchmark runs on virtual machines whose cores are shared.  Even CPU time
(which leaves out the time the host takes the core away) swings by up to a
factor of two over seconds to minutes, as the physical core is shared with
other tenants or its clock changes.  So next to the program's work the
benchmark times a fixed pure-Python loop that shares no code with the
package, and scales each pass's times by ``REFERENCE_S`` over the loop's mean
CPU time in that pass.  A scaled time reads as the CPU time the work would
take while the loop takes ``REFERENCE_S``: the slowdown of the moment
divides out, a change to the program does not.

On the baseline machine a cold cache-cleared chunk of ``arith-sweep`` ops
timed alternately with the loop for 90 s varied by a factor of 1.77 in CPU
time per 1.5 s window, and by 1.16 after scaling.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The loop's CPU time on the baseline machine (median of 3000 samples), so
# scaled times are of the size of the raw ones.
REFERENCE_S = 0.00027
# A pass takes one sample per EVERY_S of the program's CPU time.
EVERY_S = 0.01


def loop():
    """Rational arithmetic, dict and list work, as the package does."""
    acc, counts = Fraction(0), {}
    for i in range(1, 50):
        acc += Fraction(i * i + 1, 3 * i + 7)
        counts[i % 17] = counts.get(i % 17, 0) + i
        row = [j * i for j in range(8)]
    return acc, counts, row


def sample() -> float:
    """CPU seconds of one run of the loop."""
    start = time.process_time()
    loop()
    return time.process_time() - start


def samples(n: int) -> list[float]:
    """n samples after one that is dropped (it may pay for first-touch page faults)."""
    sample()
    return [sample() for _ in range(n)]


class Calibrator:
    """Takes a sample after every EVERY_S of work, so samples spread evenly over the work."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def after(self, work_s: float) -> None:
        self._since += work_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.samples.append(sample())


def scale(taken: list[float]) -> float:
    """Factor that turns CPU times measured next to these samples into reference-speed times."""
    return REFERENCE_S / statistics.mean(taken)
