"""Fast-path execution gate.

The simulator ships two architecturally identical execution engines: the
naive per-step interpreter and a fast path built on compiled step thunks
and decode and translation memoization (see ``docs/performance.md``).
The ``PHANTOM_REPRO_FASTPATH`` environment variable selects the engine
at *construction* time — ``CPU``/``MemorySystem`` read it once when
built, so flipping the variable mid-run has no effect on live objects.

Accepted values:

* ``0`` / ``false`` / ``off`` / ``no`` (any case) — naive path (the
  differential-testing oracle);
* anything else, unset included — fast path.  Retired layer flags such
  as ``superblocks=0`` are unknown values and leave it on.
"""

from __future__ import annotations

import os

ENV_VAR = "PHANTOM_REPRO_FASTPATH"

_DISABLED = ("0", "false", "off", "no")


def fastpath_enabled() -> bool:
    """True unless ``PHANTOM_REPRO_FASTPATH`` explicitly disables it."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _DISABLED
