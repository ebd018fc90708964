"""Host-speed correction: time every unit of work next to a fixed reference kernel.

The benchmark runs on shared hosts whose speed for the same CPU-bound Python
code moves by 1.5-2x, in stretches from a fraction of a second to minutes
(other tenants on the same physical cores; no CPU time is stolen, so CPU-time
clocks move with wall time). Medians or minima over one run cannot remove a
slow stretch that covers the whole run.

So a short reference kernel (``probe``), written here and independent of
``alignflow``, runs just before every timed unit of work. A unit's corrected
time is its measured time scaled by ``PROBE_NOMINAL_S`` over the median probe
time of the units around it: the time the unit would have taken had the host
run the probe at its nominal speed. A change to ``alignflow`` does not touch
the probe, so corrected times compare commits as raw times would on a quiet
host. The probe's own time is never counted in a unit.

The kernel is a pure-Python arithmetic loop, run once untimed and then timed,
with the garbage collector off: so its time does not depend on what ran just
before it (a numpy kernel read up to 1.7x slower right after a long
utterance than when idle; this one within 5%). Over 18 consecutive long_align
passes whose raw time moved by 1.8x (coefficient of variation 17%), the
corrected time moved by 1.15x (3%).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

# the probe's time on an unloaded core of the machine the benchmark was tuned
# on (2-vCPU Xeon VM, Python 3.11); it only scales corrected times
PROBE_NOMINAL_S = 1.2e-4
# a unit's host speed is the median probe over this many units either side
WINDOW = 8


def _kernel() -> float:
    acc = 0.0
    for x in range(1500):
        acc += x * 0.5 if x & 1 else -x
    return acc


def probe() -> float:
    """Seconds one run of the reference kernel takes now."""
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def no_probe() -> float:
    """Stands in for ``probe`` where nothing is corrected (traced reps)."""
    return 0.0


@dataclasses.dataclass
class Series:
    """Measured seconds of a sequence of units, each with the probe taken before it."""

    raw: list[float] = dataclasses.field(default_factory=list)
    probes: list[float] = dataclasses.field(default_factory=list)

    def add(self, seconds: float, probe_s: float) -> None:
        self.raw.append(seconds)
        self.probes.append(probe_s)

    def corrected(self) -> list[float]:
        """Each unit's seconds at nominal host speed."""
        return [correct(seconds, statistics.median(self.probes[max(0, i - WINDOW):i + WINDOW + 1]))
                for i, seconds in enumerate(self.raw)]


def correct(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at nominal host speed."""
    return seconds * PROBE_NOMINAL_S / probe_s
