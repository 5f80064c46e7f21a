"""Host-time timing helper."""

from repro.telemetry.profiling import time_callable


def test_time_callable_returns_best_of_seconds():
    calls = []
    best = time_callable(lambda: calls.append(None), repeat=2, number=3)
    assert best >= 0.0
    assert len(calls) == 6
