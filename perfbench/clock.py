"""Host time scaled to a fixed reference speed.

On the 2-CPU virtual machine this benchmark was built on, the speed of
the same code changes by up to 1.9x from one stretch of seconds or
minutes to the next, and from one process to the next: the host's
other tenants set it, not the program.  So every timed operation is
bracketed by a fixed piece of reference work (the benchmark's own: a
pure-Python loop and numpy sorts, none of the program), run on the same
CPU right before and after it, and the operation is scored by the ratio
of its time to the reference's.  A slow stretch lengthens both and
leaves the ratio; a faster program shortens only the operation.  Times
are reported as ``ratio * REFERENCE_S``: host seconds at the speed at
which the reference work takes ``REFERENCE_S`` (it took 12-15 ms on
that host).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the reference work takes at the reference speed.
REFERENCE_S = 0.012
_SORTED = np.arange(100_000, dtype=np.int64)[::-1].copy()


def reference() -> float:
    """Do the reference work once; its host seconds."""
    t0 = time.perf_counter()
    total = 0
    seen = {}
    for i in range(40_000):
        total += i * i % 7
        seen[i & 1023] = total
    for _ in range(4):
        np.sort(_SORTED)
    return time.perf_counter() - t0


class RefClock:
    """Scales operation times by the reference work around them."""

    def __init__(self) -> None:
        reference()  # first-call costs stay out
        self.last = statistics.median(reference() for _ in range(3))

    def restart(self) -> None:
        """Take a fresh reference before the next operation."""
        self.last = reference()

    def scale(self, *seconds: float) -> list[float]:
        """Reference-scaled ``seconds`` of operations that just ran.

        The operations ran since the last reference (or :meth:`restart`);
        each is divided by the mean of that reference and one taken now.
        """
        now = reference()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return [s * factor for s in seconds]
