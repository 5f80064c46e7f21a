"""Fast-path execution gate.

The simulator ships two architecturally identical execution engines: the
naive per-step interpreter and a fast path built on compiled step thunks,
decode and translation memoization and quiescence skipping (see
``docs/performance.md``).  The ``PHANTOM_REPRO_FASTPATH`` environment
variable selects the engine at *construction* time — ``CPU``/
``MemorySystem`` read it once when built, so flipping the variable
mid-run has no effect on live objects.

Accepted values:

* unset, ``1`` or anything not listed below — fast path fully on;
* ``0`` / ``false`` / ``off`` / ``no`` — naive path (the
  differential-testing oracle);
* ``quiesce=0`` — fast path with ticked idle instead of event-skipped
  (the only selectively disabled layer; unknown flags such as the
  retired ``superblocks=0`` leave the fast path fully on).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "PHANTOM_REPRO_FASTPATH"

_DISABLED = ("0", "false", "off", "no")


@dataclass(frozen=True)
class FastpathConfig:
    """Parsed engine selection.

    ``enabled`` picks the engine; ``quiesce`` only matters when the fast
    path is on (both engines must agree on idle semantics — quiescence
    skipping is behaviour-neutral by construction, pinned by
    ``tests/pipeline/test_quiescence.py``).
    """

    enabled: bool = True
    quiesce: bool = True


def parse_fastpath(value: str | None) -> FastpathConfig:
    """Parse one ``PHANTOM_REPRO_FASTPATH`` value (None = unset)."""
    if value is None:
        return FastpathConfig()
    text = value.strip().lower()
    if not text:
        return FastpathConfig()
    if text in _DISABLED:
        return FastpathConfig(enabled=False, quiesce=False)
    # Anything not explicitly disabling enables the fast path; only a
    # ``quiesce=`` flag in a comma-separated list turns a layer off.
    quiesce = True
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        if sep and name.strip() == "quiesce":
            quiesce = raw.strip() not in _DISABLED
    return FastpathConfig(quiesce=quiesce)


def fastpath_config() -> FastpathConfig:
    """The engine configuration the environment selects."""
    return parse_fastpath(os.environ.get(ENV_VAR))


def fastpath_enabled() -> bool:
    """True unless ``PHANTOM_REPRO_FASTPATH`` explicitly disables it."""
    return fastpath_config().enabled
