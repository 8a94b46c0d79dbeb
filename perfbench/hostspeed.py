"""Host-speed calibration for the end-to-end times.

The benchmark shares its machine with other tenants, whose load makes the
same pass run up to twice as long from one minute to the next (CPU time
tracks wall time, so the process is slowed, not descheduled).  A fixed
calibration loop of small NumPy and Python operations, the same mix that
bounds fay-lab, slows by the same factor.  Each timed step is therefore
bracketed by two calibration samples and scaled to a reference host on
which one sample takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean(sample before, sample after)

The loop does not touch fay-lab, so a change to the program moves the
scaled time exactly as it moves the wall time on a quiet host.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: one calibration sample on a quiet 2-core x86-64 sandbox, Python 3.11
REFERENCE_S = 0.011

_ITERATIONS = 900

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.8]]) + 0.5j * np.eye(3)


def calibrate():
    """Wall time of the fixed calibration loop."""
    t0 = time.perf_counter()
    v = np.ones(3, dtype=complex)
    acc = 0.0
    for i in range(_ITERATIONS):
        z = _A @ v
        v = np.linalg.solve(_A, z + 0.001 * i)
        acc += abs(np.exp(1j * z).sum()) + math.sqrt(i + 1.0)
    if not math.isfinite(acc):
        raise ArithmeticError("calibration loop diverged")
    return time.perf_counter() - t0


class Laps:
    """Times consecutive steps; ``lap()`` ends one step and starts the next.

    ``wall`` holds each step's wall time and ``scaled`` the same time on
    the reference host.  Calibration runs between steps, outside them.
    """

    def __init__(self):
        self.wall, self.scaled, self.samples = [], [], [calibrate()]
        self._start = time.perf_counter()

    def lap(self, *_):
        wall = time.perf_counter() - self._start
        self.samples.append(calibrate())
        self.wall.append(wall)
        self.scaled.append(wall * 2 * REFERENCE_S / (self.samples[-2] + self.samples[-1]))
        self._start = time.perf_counter()
