"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark's host is shared: over tens of seconds to minutes the
same wavewalk call can take anywhere from 1x to 1.4x its best time, and
work of every kind that lasts more than a few milliseconds slows
together (vector trig, memory streams, Python string formatting).  So run.py times this kernel before every op (and
a block of it before every set-up probe), and reports its timings
at the speed where the kernel takes NOMINAL_S: a measured time t is
reported as t * NOMINAL_S / (median kernel time around it).

The kernel never calls wavewalk, so no change to the package can move
it.  The raw timings are kept beside the scaled ones in every run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's typical time on the reference box (see README.md)
NOMINAL_S = 3.4e-3
#: kernel passes in a block; the first only warms the caches back up
BLOCK = 6


class HostSpeed:
    """Times the reference kernel; scale() turns its samples into a factor."""

    def __init__(self):
        rng = np.random.default_rng(20050621)
        self._trig = rng.uniform(0.0, 1.0, 1 << 15)  # 256 KiB
        self._stream = rng.uniform(0.0, 1.0, 1 << 19)  # 4 MiB
        self._floats = rng.uniform(0.0, 1.0, 1500).tolist()
        # preallocated outputs: a fresh 4 MiB array would cost page
        # faults or not depending on what the op before it freed
        self._trig_out = np.empty_like(self._trig)
        self._stream_out = np.empty_like(self._stream)
        self.sample()  # first touch of the arrays and code paths

    def sample(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        t = np.cos(self._trig, out=self._trig_out)
        for _ in range(3):
            np.cos(t, out=t)
        np.multiply(self._stream, t[0], out=self._stream_out)
        ",".join(f"{v:.17g}" for v in self._floats)
        return time.perf_counter() - start

    def block(self) -> list[float]:
        """Warm samples of the kernel, taken back to back."""
        return [self.sample() for _ in range(BLOCK)][1:]

    @staticmethod
    def scale(samples) -> float:
        """Factor that takes times measured beside these samples to nominal speed."""
        return NOMINAL_S / statistics.median(samples)
