"""Host-speed calibration for the benchmark's timings.

A shared 2-vCPU virtual machine (Intel Xeon at 2.1 GHz) changes speed by up
to 1.8x, and it does so within a second: consecutive kernel samples 0.7 s
apart read 3.2 ms and 6.0 ms. A pretrain-clm step moved between 10 ms and
17 ms at one seed within one minute. The kernel below does the same kind of
work as bplm's tape (many small float64 numpy ops, slices copied out,
closures recorded on a list and replayed in reverse with zero-filled
gradient buffers) and uses no bplm code, so no change to the program moves
it.

A run samples the kernel every ``INTERVAL_S`` or so, between steps and
between evaluation calls, never inside a timed interval (``Clock.tick``).
Each stretch of work between two samples is scaled by ``NOMINAL_S`` over the
mean of the two samples around it, so a timing is corrected by the host's
speed at the moment it was taken. In a 5-minute recording of pretrain-clm
cut into 10 blocks of 30 s, the block medians of step time spread 0.21
(quartile distance over median) raw, 0.043 when divided by the block's mean
kernel time, and 0.028 when each 0.8 s window was divided by the kernel
sample taken next to it; for held-out evaluation time the three read 0.21,
0.10 and 0.045.

The kernel is not wholly independent of the program: samples taken between
training steps read about 10% slower than samples taken between passes,
after checkpoint I/O, with the fastest of three runs counted and the
garbage collector off. A program change that alters the state it leaves
behind (cache contents, heap layout) can therefore move scaled timings by
a few percent, far less than the benchmark's bounds.

``NOMINAL_S`` is about the kernel's time when that host runs at full speed
(3.3-3.5 ms, numpy 2.4.6 with one OpenBLAS thread), so at full speed the
reported timings equal the measured ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

NOMINAL_S = 3.4e-3
REPEATS = 3          # kernel runs per sample; the fastest counts
INTERVAL_S = 0.2     # least time between two samples taken by ``tick``

_rng = np.random.default_rng(0)
_SMALL = [_rng.normal(size=(32, 32)) for _ in range(8)]
_WIDE = _rng.normal(size=(32, 256))
_X = _rng.normal(size=(40, 32))


def _kernel() -> float:
    t0 = time.perf_counter()
    tape = []
    h = _X
    for i in range(120):
        w = _SMALL[i % 8]
        y = h @ w
        part = y[:, 0:16].copy()
        e = np.exp(y - y.max(axis=1, keepdims=True))
        h = e / e.sum(axis=1, keepdims=True)
        tape.append((h, part, lambda g, w=w: g @ w.T))
    logits = h @ _WIDE
    g = (logits - logits.mean()) @ _WIDE.T
    for out, part, bw in reversed(tape):
        full = np.zeros_like(out)
        full[:, 0:16] = part
        g = bw(g) * 0.5 + full
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Fastest of REPEATS runs of the calibration kernel. The first run
    after the program's own work is slower (5.8 ms against 5.2 ms for the
    third, at one host speed), because that work evicted the kernel's data;
    how much it evicts depends on the program, so that run must not count.
    The garbage collector is off meanwhile, so a collection of the
    program's objects does not land in the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_kernel() for _ in range(REPEATS))
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel samples over a run, and timings scaled by them.

    The work between two consecutive samples is one segment; its speed
    factor is ``NOMINAL_S`` over the mean of those two samples. Time spent
    in the samples themselves belongs to no segment. Take a sample before
    the first interval and after the last one that is to be scaled.
    """

    def __init__(self):
        self.ticking = True
        self._starts = []    # perf_counter at the start of each sample
        self._ends = []      # ... and at its end
        self._kernel = []    # the sample's kernel time

    def sample(self) -> None:
        t0 = time.perf_counter()
        k = kernel_s()
        self._starts.append(t0)
        self._ends.append(time.perf_counter())
        self._kernel.append(k)

    def tick(self) -> None:
        """Take a sample if ticking and the last one is INTERVAL_S old."""
        if self.ticking and (time.perf_counter() - self._ends[-1]
                             >= INTERVAL_S):
            self.sample()

    def mean_kernel_s(self) -> float:
        return statistics.mean(self._kernel)

    def samples(self) -> int:
        return len(self._kernel)

    def _segments(self, t0, t1):
        """(overlap of [t0, t1] with a segment, that segment's factor)."""
        first = max(bisect.bisect_right(self._ends, t0) - 1, 0)
        for i in range(first, len(self._kernel) - 1):
            lo, hi = max(t0, self._ends[i]), min(t1, self._starts[i + 1])
            if self._ends[i] >= t1:
                break
            if hi > lo:
                yield hi - lo, 2 * NOMINAL_S / (self._kernel[i]
                                                 + self._kernel[i + 1])

    def raw(self, t0: float, t1: float) -> float:
        """Measured time of [t0, t1] outside the kernel samples."""
        return sum(d for d, _ in self._segments(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] outside the kernel samples, at nominal speed."""
        return sum(d * f for d, f in self._segments(t0, t1))
