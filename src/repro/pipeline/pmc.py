"""Performance monitoring counters.

Counter names follow the events the paper samples where they exist
(op-cache hit/miss on Zen, decoder-sourced dispatch, resteers).  The
attack tooling samples counters exactly like ``perf``: read, run, read,
subtract.

Counters live in a flat list indexed by interned event indices
(:data:`EVENT_INDEX`).  Hot paths resolve an event name to its slot once
(:meth:`PMC.index`) and bump the shared ``counts`` list directly, so a
counter update costs one list-index increment instead of a string hash
plus membership test per event.

``cycles`` is the exception: like ``perf``'s event it counts core
cycles, so it is read from the core's clock (``cpu.cycles``) when the
bank is read, relative to its value at the last :meth:`PMC.reset`.
Nothing increments its slot.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

#: Events the CPU emits.
EVENTS = (
    "cycles",
    "instructions",
    "op_cache_hit",                      # op_cache_hit_miss.op_cache_hit
    "op_cache_miss",                     # op_cache_hit_miss.op_cache_miss
    "de_dis_uops_from_decoder",          # µops built by the decoder
    "l1i_access",
    "l1i_miss",
    "l1d_access",
    "l1d_miss",
    "branch_retired",
    "branch_mispredict",
    "resteer_frontend",                  # decoder-detected (Phantom)
    "resteer_backend",                   # execute-detected (Spectre)
    "phantom_fetch",                     # transient fetch performed
    "phantom_decode",                    # transient decode performed
    "phantom_exec_uops",                 # µops transiently executed
    "transient_load",                    # D-cache fills from bad paths
    "syscalls",
)

#: Interned event name -> counter slot.  The CPU resolves indices at
#: construction time and increments ``PMC.counts`` slots directly.
EVENT_INDEX: dict[str, int] = {name: i for i, name in enumerate(EVENTS)}

_CYCLES = EVENT_INDEX["cycles"]


class PMC:
    """A bank of monotonically increasing counters.

    ``counts`` is the raw slot list; its identity is stable across
    :meth:`reset` so pre-bound references held by the CPU fast path
    never go stale.  *core* is the object whose ``cycles`` attribute
    the ``cycles`` event reads; it is held weakly, so a CPU owning its
    bank forms no reference cycle with it.  A bank without a core
    reads ``cycles`` as 0.
    """

    __slots__ = ("counts", "_core", "_cycles_base")

    def __init__(self, core=None) -> None:
        self.counts: list[int] = [0] * len(EVENTS)
        self._core = None if core is None else weakref.ref(core)
        self._cycles_base = 0

    @staticmethod
    def index(event: str) -> int:
        """Resolve *event* to its counter slot (KeyError if unknown)."""
        try:
            return EVENT_INDEX[event]
        except KeyError:
            raise KeyError(f"unknown PMC event {event!r}") from None

    def _cycles(self) -> int:
        """Core cycles since the last :meth:`reset` (0 with no core)."""
        core = None if self._core is None else self._core()
        return 0 if core is None else core.cycles - self._cycles_base

    def add(self, event: str, n: int = 1) -> None:
        try:
            index = EVENT_INDEX[event]
        except KeyError:
            raise KeyError(f"unknown PMC event {event!r}") from None
        if index == _CYCLES:
            raise ValueError("PMC 'cycles' reads the core clock; "
                             "advance cpu.cycles instead")
        self.counts[index] += n

    def read(self, event: str) -> int:
        try:
            index = EVENT_INDEX[event]
        except KeyError:
            raise KeyError(f"unknown PMC event {event!r}") from None
        if index == _CYCLES:
            return self._cycles()
        return self.counts[index]

    def snapshot(self) -> dict[str, int]:
        snap = dict(zip(EVENTS, self.counts))
        snap["cycles"] = self._cycles()
        return snap

    def reset(self) -> None:
        counts = self.counts
        for i in range(len(counts)):
            counts[i] = 0
        self._cycles_base += self._cycles()

    @contextmanager
    def sample(self, *events: str):
        """perf-style sampling: ``with pmc.sample("op_cache_miss") as s: ...``
        then ``s["op_cache_miss"]`` holds the delta."""
        before = {event: self.read(event) for event in events}
        deltas: dict[str, int] = {}
        yield deltas
        for event in events:
            deltas[event] = self.read(event) - before[event]
