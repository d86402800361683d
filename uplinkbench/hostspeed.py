"""Host-speed probe: what the timed metrics are normalised by.

The reference box shares its cores with other tenants, and its speed
moves by up to half within minutes (see README, *Host noise*).  Every
timed figure of the program moves with it, so two runs of the same code
a few minutes apart can differ by more than any useful bound.  A run
therefore samples the host's speed while it measures: a fixed unit of
work, written here and independent of ``src/``, is timed every
``SAMPLE_EVERY_S`` of the run, interleaved with the workload, so it sees
the same stretches of fast and slow host that the program sees.  The
run's speed is the reference unit time over the mean unit time measured,
and the end-to-end times are reported at the reference speed (times
multiplied by it, rates divided by it).  A change to the program moves
the workload's times and not the unit's, so it still shows in full.

In a closed loop the program runs in the benchmark's thread and does
nothing while a unit runs, so :meth:`HostProbe.clock` leaves the units'
time out of every timestamp and no frame's latency includes it.  In the
open loop a unit runs only while no frame is outstanding and the next
one is not yet due, so it delays nothing.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one unit took on the reference box (median over 30 s of
#: back-to-back units); the speed a run reports is relative to it.
REFERENCE_UNIT_S = 1.9e-3
#: How often a run samples the host's speed, in seconds of its own clock.
SAMPLE_EVERY_S = 0.05
#: Steps of one unit; each is a small complex QR, an element-wise pass
#: over a short vector and a short plain-Python loop, the mix of work the
#: receiver does per search.
UNIT_STEPS = 48

_rng = np.random.default_rng(2014)
_MATRIX = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_VECTOR = _rng.standard_normal(64)


def unit() -> float:
    """The fixed unit of work the probe times."""
    total = 0.0
    for step in range(UNIT_STEPS):
        _, upper = np.linalg.qr(_MATRIX)
        total += float(np.abs(upper[0, 0])) + float((_VECTOR * step).sum())
        for index in range(60):
            total += (index * step) % 7
    return total


class HostProbe:
    """Times units of work during a run and keeps their time apart."""

    def __init__(self) -> None:
        self.units = 0
        self.unit_s = 0.0        # wall time spent in units
        self.unit_cpu_s = 0.0    # CPU time spent in units
        self._last = float("-inf")

    def clock(self) -> float:
        """Wall clock less the time spent in units."""
        return time.perf_counter() - self.unit_s

    def cpu_clock(self) -> float:
        """Process CPU clock less the CPU time spent in units."""
        return time.process_time() - self.unit_cpu_s

    def sample(self) -> None:
        """Time one unit."""
        cpu = time.process_time()
        started = time.perf_counter()
        unit()
        self.unit_s += time.perf_counter() - started
        self.unit_cpu_s += time.process_time() - cpu
        self.units += 1
        self._last = self.clock()

    def maybe_sample(self) -> None:
        """Time one unit if ``SAMPLE_EVERY_S`` have passed since the last."""
        if self.clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def speed(self) -> float:
        """Host speed over the run relative to the reference box (above
        1 when faster)."""
        return REFERENCE_UNIT_S * self.units / self.unit_s
