"""Machine-speed calibration.

The speed of a shared machine drifts by up to 2x for seconds at a time, and
CPU time drifts with wall time, so raw timings do not repeat run to run. The
benchmark therefore interleaves a fixed kernel, in slices of about a
millisecond, with the work it times, and scales every timing by how fast the
kernel ran next to it:

    calibrated = raw * REF_SLICE_S / (median kernel slice time nearby)

A calibrated second is a second on a machine where one kernel slice takes
REF_SLICE_S. The kernel is fixed benchmark code that calls nothing in
lftree, so a faster tree still shows as a faster tree. It resembles the
tree's own work: a generator scans 32-slot "leaves" of __slots__ objects
spread over a multi-megabyte working set, one yield per slot read, and takes
a lock once per leaf.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time

# Median Kernel.slice() time on the machine the bounds were tuned on
# (2 cores, CPython 3.11.7).
REF_SLICE_S = 0.0009

_LEAVES = 8192
_SLOTS = 32
_PICKS = 4096
_SCANS_PER_SLICE = 128


class _Slot:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _scan(leaf, lo, hi):
    best = 0
    for slot in leaf:
        yield
        v = slot.v
        if lo <= v <= hi and (not best or v < best):
            best = v
    return best


class Kernel:
    """The fixed calibration work. Its inputs never depend on the workload
    seed, so every run times the same instructions."""

    def __init__(self):
        rng = random.Random(0x6b65726e)
        self._leaves = [[_Slot(rng.getrandbits(30)) for _ in range(_SLOTS)]
                        for _ in range(_LEAVES)]
        self._picks = [rng.randrange(_LEAVES) for _ in range(_PICKS)]
        self._next = 0
        self._lock = threading.Lock()
        self.sink = 0
        self.slices: list[float] = []
        # half a million long-lived objects: keep them out of every later
        # collection, so the GC cost inside timed work is the program's own
        gc.collect()
        gc.freeze()

    def slice(self) -> float:
        """Run one slice; return its wall time in seconds."""
        leaves, picks = self._leaves, self._picks
        i = self._next
        acc = 0
        t0 = time.perf_counter()
        for _ in range(_SCANS_PER_SLICE):
            gen = _scan(leaves[picks[i]], 1 << 28, 1 << 29)
            i = (i + 1) % _PICKS
            try:
                while True:
                    next(gen)
            except StopIteration as stop:
                acc += stop.value
            with self._lock:
                acc += 1
        elapsed = time.perf_counter() - t0
        self._next = i
        self.sink ^= acc
        self.slices.append(elapsed)
        return elapsed

    def batch(self, n: int) -> float:
        """Median time of n slices run back to back."""
        return statistics.median(self.slice() for _ in range(n))


class Calibrated:
    """Kernel readings taken between pieces of timed work.

    Call `start()` before the first piece and `after()` right after each
    piece. `after()` takes a reading of `slices` kernel slices and returns
    the factor that scales that piece's raw timings: REF_SLICE_S over the
    median of the last `window` readings, which include the ones just
    before and just after the piece.
    """

    def __init__(self, kernel: Kernel, window: int, slices: int = 1):
        self.kernel = kernel
        self.window = window
        self.slices = slices
        self.readings: list[float] = []

    def start(self) -> None:
        self.readings.append(self.kernel.batch(self.slices))

    def after(self) -> float:
        self.readings.append(self.kernel.batch(self.slices))
        return REF_SLICE_S / statistics.median(self.readings[-self.window:])
