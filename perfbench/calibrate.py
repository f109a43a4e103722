"""A fixed calibration kernel that gauges the machine's speed of the moment.

The benchmark was tuned on two vCPUs shared with other tenants.  There the
same CLI call took 28 ms or 52 ms, switching within a second, and for
minutes at a time every call ran about 1.6 times slower.  Process CPU time
rose with the wall time, so only a measurement taken at the same moment
can tell a slower program from a slower machine.

The worker runs ``kernel`` at the start of each pass and right after each
request, so every request lies between two kernel calls, and reports each
request's time as a multiple of their mean time, in reference units of
``REFERENCE_S`` seconds per kernel call (see ``normalized``).  The kernel
is the benchmark's own code and calls nothing in nicom, so a change to
nicom moves the requests' times and leaves the kernel's alone.  Its mix
resembles the requests': a dict-keyed recurrence of big integers with
binomial coefficients, a sum of Beatty-style floors by ``isqrt``, and a
decimal conversion.  It takes about 1 ms.
"""

from __future__ import annotations

import gc
from math import comb, isqrt
from time import perf_counter

# Seconds one kernel call is taken to last: a reference time reads as
# seconds on a machine where the kernel takes exactly this long.
REFERENCE_S = 0.001


def kernel() -> int:
    cache = {}
    fa, fb = 1, 2
    for k in range(3, 60):
        for s in range(4):
            acc = cache.get((k - 1, s), 0)
            for i in range(s + 1):
                acc += comb(s, i) * fa**i * fb ** (s - i) * cache.get((k - 2, s - i), 1)
            cache[k, s] = acc
        fa, fb = fb, fa + fb
    total = sum(n * ((n + isqrt(5 * n * n)) // 2) ** 3 for n in range(1, 1500))
    return len(str(cache[59, 3] * total))


def timed_kernel() -> float:
    """Seconds one kernel call takes, with the cyclic garbage collector paused.

    Pausing it keeps a collection of the program's own objects out of the
    kernel's time, so the program's heap cannot move the reference.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def normalized(seconds: float, kernel_seconds: float) -> float:
    """A time measured next to a kernel call, in reference seconds."""
    return seconds / kernel_seconds * REFERENCE_S
