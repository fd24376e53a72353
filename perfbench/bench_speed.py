"""Host-speed probe: a fixed kernel timed between the items.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, over seconds and over minutes, with CPU time equal to
wall time (the process is not descheduled; each instruction just takes
longer).  A drift that lasts a whole run cannot be averaged away inside
the run, so each item's time is divided by the time a fixed kernel takes
around it, and scaled back to seconds by ``NOMINAL_S``:

    normalized = item seconds * NOMINAL_S / median(kernel runs near it)

The kernel runs once before the first item and once after every item,
and once more per ``EXTRA_EVERY_S`` of a long item.  The runs near an
item are the batch right before it, the batch right after it, and every
run within one item duration of either end of it.  For a short item
that is the two runs either side of it, which track the host's speed
best: the speed moves within a second, and a short item followed by
its kernel run sees the same speed.  For a long item, during which the
speed moves, it is the runs over a stretch of time like its own.  The
median keeps one kernel run that an interrupt slowed from moving the
result.

The kernel does the kinds of work the workloads spend their time in, in
about equal shares: short array expressions, scalar ``brentq`` callbacks
into numpy code, a streaming pass over a 1 MB array, and an interpreted
loop, without allocating any array.  A slowdown of the host does not slow all code alike (scalar
callbacks slowed more than streaming array passes), and the mix follows
the sweep, trace and oracle items better than any one of its parts.  It
calls nothing from the package, so a change to the program leaves it
alone.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import brentq

EXTRA_EVERY_S = 0.5

_GRID = np.linspace(0.0, 10.0, 256)
_LONG = np.linspace(0.0, 1.0, 131072)
# the kernel writes into these, so that it allocates no array: a 1 MB
# allocation costs page faults or not depending on what the program
# freed before it, which would tie the kernel's time to the program
_SHORT_A = np.empty_like(_GRID)
_SHORT_B = np.empty_like(_GRID)
_LONG_OUT = np.empty_like(_LONG)


def kernel() -> float:
    """A fixed amount of work; returns its checksum."""
    acc = 0.0
    for j in range(180):  # short array expressions
        np.multiply(_GRID, 1.0 + 1e-3 * j, out=_SHORT_A)
        np.sin(_SHORT_A, out=_SHORT_A)
        np.cumsum(_SHORT_A, out=_SHORT_B)
        acc += float(_SHORT_B[-1])
    for j in range(100):  # scalar brentq callbacks into numpy
        scale = 1.0 + 1e-3 * j
        acc += brentq(lambda x: np.cos(x) - x * scale, 0.0, 1.5)
    np.multiply(_LONG, -3.0, out=_LONG_OUT)  # one streaming pass
    np.exp(_LONG_OUT, out=_LONG_OUT)
    acc += float(_LONG_OUT.sum())
    k = 0
    for i in range(8000):  # interpreted loop
        k += i * i % 7
    return acc + k


# about the kernel's median time on the 2-vCPU Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1) the baseline in DESIGN.md was
# measured on, so a normalized time reads as seconds on that host at its
# usual speed
NOMINAL_S = 0.0065


class SpeedProbe:
    """Kernel runs on the run's clock, in batches, and item times
    normalized by them."""

    def __init__(self):
        self.at = []       # midpoint of each kernel run (perf_counter)
        self.took = []     # its seconds
        self.batches = []  # (first run, end) of each batch

    def sample(self, count=1) -> int:
        """Run the kernel ``count`` times; returns the batch's index."""
        first = len(self.took)
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)
        self.batches.append((first, len(self.took)))
        return len(self.batches) - 1

    def after_item(self, seconds) -> int:
        return self.sample(1 + int(seconds / EXTRA_EVERY_S))

    def normalized(self, before, after, start, end):
        """Seconds of an item that ran from ``start`` to ``end``, between
        batches ``before`` and ``after``, at the kernel's nominal speed."""
        at = np.asarray(self.at)
        near = (at >= 2 * start - end) & (at <= 2 * end - start)
        near[self.batches[before][0]:self.batches[before][1]] = True
        near[self.batches[after][0]:self.batches[after][1]] = True
        took = np.asarray(self.took)[near]
        return (end - start) * NOMINAL_S / float(np.median(took))
