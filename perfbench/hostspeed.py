"""Host-speed probe: scale measured host times to a fixed reference speed.

The benchmark's host is a small share of a shared machine.  Its speed
for one fixed piece of pure-Python work drifts by up to 40% within a
minute, with no steal time showing, so a plain wall time of the same
run on the same commit spreads by as much.  Timing a reference loop
between repeats does not cancel this: the speed moves within seconds.

:class:`Probe` samples the host's speed throughout the measured
interval instead.  A ``SIGPROF`` timer fires every ``INTERVAL_S`` of
the interpreter's CPU time, and its handler times one probe unit: a
fixed piece of work that uses only the standard library, so none of
the program's code runs in it.  Over an interval,
:meth:`Probe.factor` is the mean of ``REFERENCE_UNIT_S / duration``
over the samples taken in it.  A time multiplied by that factor reads
as it would on a host that runs the probe unit in ``REFERENCE_UNIT_S``.

On a 2-vCPU Xeon VM this cut the quartile spread of fourteen kaslr repeats
from 0.17 of the median (plain wall time) to 0.02.  The probe's own
time (about 3% of each interval) is part of every measured time.  A
program that thrashes the host's caches slows the probe a little too,
which lowers the factor; see ``README.md``.
"""

from __future__ import annotations

import signal
import time

#: Duration of one probe unit at the reference speed (about the median
#: on the 2-vCPU Xeon VM the benchmark was written on).
REFERENCE_UNIT_S = 1.3e-3
#: CPU time between two samples.
INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def touch(self, delta: int) -> int:
        self.hits += 1
        return (self.value + delta) & 0xFFFF


def probe_unit() -> int:
    """The fixed work one sample times: dict lookups, object creation,
    attribute updates and method calls, as an interpreter-bound
    simulator does."""
    cells: dict[int, _Cell] = {}
    total = 0
    for i in range(1500):
        key = (i * 2654435761) & 0x3FF
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key, i)
        total ^= cell.touch(i)
    return total


class Probe:
    """Samples the probe unit's duration every ``INTERVAL_S`` of CPU
    time between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        probe_unit()
        self.durations.append(time.perf_counter() - began)

    def start(self) -> None:
        # Warm the unit up, then take one sample at once, so that even
        # a short interval has a sample.
        probe_unit()
        probe_unit()
        self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        """A position to pass to :meth:`factor` as an interval's end
        or start."""
        return len(self.durations)

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Mean of ``REFERENCE_UNIT_S / duration`` over the samples
        taken between two marks."""
        window = self.durations[since:until]
        if not window:
            raise ValueError("no host-speed sample in the interval")
        return sum(REFERENCE_UNIT_S / d for d in window) / len(window)
