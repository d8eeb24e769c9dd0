"""Host-speed calibration.

On a shared host the same code runs up to ~1.5x slower for seconds to
minutes at a time, and how much slower depends on what the code leans on.
A reading times three small kernels, each standing for one kind of work
the program does: interpreter arithmetic, a walk over a list too large
for the private caches, and hashing, dict stores and sorting.  Each
kernel's time is the median of ``REPS`` runs, and the reading is their
geometric mean.  Measured on this benchmark's workloads, that geometric
mean tracks the program's slowdowns better than any one of the kernels
(see README.md).

``scale(seconds, before, after)`` converts a time measured between two
readings to what it would have been at ``REF_S``, the median reading on the
2-vCPU host the benchmark was built on, so there it reads close to wall
time.
"""

from __future__ import annotations

import math
import random
import statistics
import time

REPS = 3
REF_S = 0.0013
# ~10 MB of float objects in shuffled order: a walk over every sixth one
# touches ~3 MB of cache lines, more than a core's private L2 holds
_FLOATS = [random.Random(2015).random() for _ in range(300_000)]
random.Random(1505).shuffle(_FLOATS)


def _arith() -> None:
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5) * (i + 1.0) - abs(i * 0.5 - acc)


def _walk() -> None:
    acc = 0.0
    for x in _FLOATS[::6]:
        acc += x


def _dicts() -> None:
    seen = {}
    for i in range(1500):
        seen[str(i)] = (i * 7919) % 1500
    sorted(seen, key=seen.get)


KERNELS = (_arith, _walk, _dicts)


def _median_time(kernel) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reading() -> float:
    """Seconds, the geometric mean of the kernels' times on this CPU now."""
    return math.exp(statistics.mean(math.log(_median_time(k)) for k in KERNELS))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between readings ``before`` and ``after``, at REF_S."""
    return seconds * REF_S / ((before + after) / 2)
