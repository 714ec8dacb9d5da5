"""Host speed, read from a fixed probe run between pieces of measured work.

On a shared host the speed of this process drifts by 20 to 60 % over
seconds and minutes, while the package's work stays the same.  A short probe
that uses neither the package nor its data (plain Python arithmetic and
dictionary updates, and small numpy array operations, the two kinds of work
a campaign is made of) runs between the pieces that are timed, outside their
timing.  A duration measured at time ``t`` is read at reference speed by
multiplying it with :meth:`SpeedLog.factor` at ``t``: the reference probe
time over the median probe time around ``t``.

The correction only undoes what the host does to this process.  A change to
the package does not move the probe, so it moves the corrected figures as
much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median probe time on the reference host (2-core Intel Xeon KVM guest,
# Python 3.11, numpy 2.4).  Corrected durations read as if measured there at
# that speed; the constant only scales them.
REFERENCE_PROBE_S = 0.003
# A factor is the median of this many probes nearest in time.
WINDOW = 7

_POINTS = np.linspace(0.0, 1.0, 16).reshape(8, 2)


def probe() -> float:
    """Run the probe once; return its duration in seconds."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    x = 0.0
    for i in range(6000):
        x += i * 0.5
        table[i & 127] = x
    total = 0.0
    for i in range(240):
        moved = _POINTS * 1.5 + (i & 7) * 0.125
        total += float(np.hypot(moved[:, 0], moved[:, 1]).min())
    return time.perf_counter() - start


class SpeedLog:
    """Probe readings of one run, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []  # mid-point of each probe
        self.durations: list[float] = []
        self.spent = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        duration = probe()
        self.times.append(start + duration / 2)
        self.durations.append(duration)
        self.spent += time.perf_counter() - start

    def factor(self, at: float) -> float:
        """Reference probe time over the median of the ``WINDOW`` probes
        nearest to ``at`` (a ``time.perf_counter`` reading)."""
        if not self.durations:
            return 1.0
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        window = self.durations[lo:lo + WINDOW]
        return REFERENCE_PROBE_S / statistics.median(window)

    def host_speed(self) -> float:
        """Reference probe time over the run's median probe time: above 1
        when the host ran this process faster than the reference."""
        return REFERENCE_PROBE_S / statistics.median(self.durations) \
            if self.durations else 1.0
