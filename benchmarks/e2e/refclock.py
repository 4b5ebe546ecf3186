"""Reference clock: fixed kernels that say how slow the host is right now.

On the shared hosts this benchmark runs on, the same CPU-bound code moves
its raw median by 20-30 % between back-to-back runs, in regimes that last
seconds, so minima and longer runs do not help.  The harness therefore
runs these kernels before and after every op; the ratio of their times to
the nominal constants below is the host's *slowdown* at that moment, and
every reported time is the raw time divided by it.

There are three kernels because the host does not slow all code alike.
Measured over four minutes in which the ``symbolic_provenance`` op moved
between 169 and 311 ms, a tight dict-update loop slowed 1.67x, a NumPy
stable argsort 1.50x, and a loop that allocates containers 1.97x (the op
itself: 1.84x).  The slowdown is the geometric mean of all three, for
every workload alike.  What each candidate clock left of the op's median
over 12 s windows of one process (standard deviation of the logarithm;
the same stream of ops for every column):

    workload              raw      loop+argsort   all three
    symbolic_provenance   15.8 %   6.3 %          4.5 %
    scan_analytic          4.1 %   2.4 %          2.4 %
    serve_read             7.8 %   2.3 %          2.1 %

The third kernel is there for the first row: code that allocates boxed
objects slows more than either a tight loop or array code shows.  No clock
fits every workload exactly (``scan_analytic`` slows by about the 0.8th
power of this one, ``symbolic_provenance`` by about the 1.2th); what is
left is the noise floor ``NOISE.md`` reports.  This module never imports
``repro``.

The nominal constants were measured on a quiet host and are part of the
benchmark's definition: changing them or the kernels rescales reported
times, which is a re-baseline, not a tweak.
"""

from __future__ import annotations

import math
import time
from statistics import median
from typing import List, Sequence, Tuple

import numpy as np

NOMINAL_S = (0.000560, 0.001800, 0.002500)  # loop, alloc, argsort

#: Smoothing half-width, in samples, around each op (see :func:`smooth`).
HALF_WINDOW = 6

_ARRAY = (np.arange(100_000, dtype=np.int64) * 7919) % 100_003

Sample = Tuple[float, float, float]


def _loop_kernel() -> None:
    d: dict = {}
    get = d.get
    for i in range(6000):
        k = i & 1023
        d[k] = get(k, 0) + i


def _alloc_kernel() -> None:
    d: dict = {}
    for i in range(4000):
        d[(i, i * 7)] = [i, str(i)]


def sample() -> Sample:
    """Run the kernels once; return each one's time over its nominal."""
    t0 = time.perf_counter()
    _loop_kernel()
    t1 = time.perf_counter()
    _alloc_kernel()
    t2 = time.perf_counter()
    np.argsort(_ARRAY, kind="stable")
    t3 = time.perf_counter()
    return ((t1 - t0) / NOMINAL_S[0], (t2 - t1) / NOMINAL_S[1],
            (t3 - t2) / NOMINAL_S[2])


def slowdown(one: Sample) -> float:
    """The host slowdown (1.0 = nominal) one sample shows: the geometric
    mean of the three kernels' ratios."""
    return math.exp(sum(math.log(ratio) for ratio in one) / len(one))


def now() -> float:
    """Sample the kernels and return the slowdown they show."""
    return slowdown(sample())


def smooth(samples: Sequence[float], half_window: int = HALF_WINDOW) -> List[float]:
    """Per-op slowdowns from the ``n + 1`` samples that bracket ``n`` ops.

    ``samples[i]`` was taken just before op ``i`` and ``samples[i + 1]``
    just after it.  One sample is a few milliseconds of work and jitters;
    the median of the ``2 * half_window`` samples centred on the op does
    not, and is still much shorter than the host's speed regimes.
    """
    n = len(samples) - 1
    return [
        median(samples[max(0, i + 1 - half_window): i + 1 + half_window])
        for i in range(n)
    ]


def between(before: float, after: float) -> float:
    """The slowdown over one bracketed step: geometric mean of its ends."""
    return math.sqrt(before * after)
