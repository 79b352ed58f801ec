"""Machine-speed reference for the geodin benchmark.

The benchmark runs on shared hosts whose CPU speed drifts by up to a factor
of two within tens of seconds, with no steal time to show it: a pure-Python
loop and the CLI's ops slow down together.  Raw wall times of two runs of the
same code minutes apart then differ by more than any useful bound.

So while an interval is timed, a SIGALRM timer interrupts the process every
``PERIOD_S`` and the handler times one pass of a fixed reference kernel.  The
interval is rescaled to the speed at which a pass takes ``NOMINAL_S``:

    scaled = (wall - time spent in the handler) * NOMINAL_S / mean(pass times)

Sampling inside the interval follows speed changes during a long op, which
timing the kernel only before and after it does not.  The handler runs on
the main thread between bytecodes, changes no state the CLI reads, and costs
about 2% of the wall time, which is subtracted.  It is a signal handler, not
a thread.

The kernel mixes the two kinds of work the CLI does: interpreted Python
(loops, attribute stores) and small numpy ops on 48x48 arrays, near the shape
of the classifier head.  Its matrix products are below OpenBLAS's threading
threshold, so the BLAS thread count does not change it.  It lives here, not
in ``src/``: a change to geodin cannot change it.  Raw wall times are kept
next to the scaled ones in the run's record.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.0005  # one kernel pass at "reference speed"; near its median on a 2-vCPU x86-64 VM
PERIOD_S = 0.04

_A = np.random.default_rng(12345).standard_normal((48, 48)) / 7.0


class _Box:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


def _python_part(n: int) -> int:
    box = _Box()
    for i in range(n):
        box.value = (box.value + i * i) % 1_000_003
    return box.value


def _numpy_part(n: int) -> float:
    v = _A
    for _ in range(n):
        v = np.tanh(_A @ v + 0.1)
    return float(v[0, 0])


def kernel_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _python_part(3000)
    _numpy_part(25)
    return time.perf_counter() - t0


class Sampler:
    """Samples the kernel during timed intervals and rescales them."""

    def __init__(self):
        kernel_s()  # the first pass pays for caches
        self.samples = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel_s())

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S of wall time until the block ends."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def summary(self) -> dict:
        """The last block's samples: how many, their total and mean seconds.
        A block shorter than one period gets one pass timed now."""
        samples = self.samples or [kernel_s()]
        return {"n": len(self.samples), "total_s": sum(self.samples), "mean_s": statistics.fmean(samples)}


def scale(wall: float, summary: dict) -> float:
    """`wall` seconds of an interval sampled as in `summary`, at reference speed."""
    return (wall - summary["total_s"]) * NOMINAL_S / summary["mean_s"]
