"""Wall-clock timing helper for host-time microbenchmarks.

This measures *host* time (how long the simulator itself takes), not
simulated cycles — the instrument for "make a hot path measurably
faster" claims.
"""

from __future__ import annotations

import time


def time_callable(fn, *, repeat: int = 5, number: int = 10_000) -> float:
    """Best-of-*repeat* seconds for *number* calls of *fn* (timeit-style,
    min defeats scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - start)
    return best
