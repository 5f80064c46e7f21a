"""``PHANTOM_REPRO_FASTPATH``: which engine each value selects."""

import pytest

from repro.fastpath import ENV_VAR, fastpath_enabled
from repro.memory import MemorySystem
from repro.pipeline import CPU, ZEN2


@pytest.mark.parametrize("value, fast", [
    (None, True),
    ("", True),
    ("1", True),
    ("0", False),
    ("off", False),
    (" OFF ", False),
    # Retired layer flags are unknown values now: the full fast engine.
    ("quiesce=0", True),
    ("superblocks=0", True),
    ("superblocks=0,quiesce=0", True),
])
def test_fastpath_enabled(monkeypatch, value, fast):
    if value is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, value)
    assert fastpath_enabled() is fast


@pytest.mark.parametrize("value, fast", [
    ("0", False),
    ("quiesce=0", True),
    ("superblocks=0", True),
])
def test_cpu_reads_the_environment(monkeypatch, value, fast):
    monkeypatch.setenv(ENV_VAR, value)
    mem = MemorySystem(16 << 20)
    cpu = CPU(ZEN2, mem)
    assert mem.fastpath is fast
    assert cpu._fastpath is fast
