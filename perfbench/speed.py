"""Machine speed, measured with a fixed piece of Python work.

Other tenants of the machine slow pure-Python code by up to 1.9x for
seconds to minutes at a time, so raw times of the same work differ that
much between runs.  `kernel` shares no code with ambreal; timed next to
an operation, KERNEL_REF_S over its time is the factor that scales the
operation's time to the reference speed.  A change to ambreal cannot move
the kernel, so it moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.0007  # about the kernel's least time on the 2.1 GHz reference machine


class _Cell:
    __slots__ = ("a", "b")


def kernel() -> int:
    """Fixed Python work of the program's kinds: exact Fraction arithmetic,
    small linked objects, dict and tuple traffic."""
    x = Fraction(355, 1021)
    seen = {}
    head = None
    for i in range(150):
        x = 1 - 2 * abs(x)
        seen[x] = i
        c = _Cell()
        c.a = (x, i)
        c.b = head
        head = c
    n = 0
    while head is not None:
        n += head.a[1]
        head = head.b
    return n + len(seen)


def kernel_s() -> float:
    """Median time of three kernel runs, after a first one that refills the
    caches an operation has just evicted; the median ignores one run hit
    by a collection or an interrupt."""
    kernel()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale_now() -> float:
    """The scale factor from the median of a few kernel timings."""
    return KERNEL_REF_S / statistics.median(kernel_s() for _ in range(3))
