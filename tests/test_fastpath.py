"""``PHANTOM_REPRO_FASTPATH`` parsing: which engine each value selects."""

import pytest

from repro.fastpath import ENV_VAR, FastpathConfig, parse_fastpath
from repro.memory import MemorySystem
from repro.pipeline import CPU, ZEN2

FAST = FastpathConfig(enabled=True, quiesce=True)
NAIVE = FastpathConfig(enabled=False, quiesce=False)
TICKED = FastpathConfig(enabled=True, quiesce=False)


@pytest.mark.parametrize("value, expected", [
    (None, FAST),
    ("", FAST),
    ("1", FAST),
    ("0", NAIVE),
    ("off", NAIVE),
    (" OFF ", NAIVE),
    ("quiesce=0", TICKED),
    ("quiesce=1", FAST),
    # The retired fusion flag is unknown now: the full fast engine.
    ("superblocks=0", FAST),
    ("superblocks=0,quiesce=0", TICKED),
])
def test_parse_fastpath(value, expected):
    assert parse_fastpath(value) == expected


@pytest.mark.parametrize("value, fast, quiesce", [
    ("0", False, False),
    ("quiesce=0", True, False),
    ("superblocks=0", True, True),
])
def test_cpu_reads_the_environment(monkeypatch, value, fast, quiesce):
    monkeypatch.setenv(ENV_VAR, value)
    mem = MemorySystem(16 << 20)
    cpu = CPU(ZEN2, mem)
    assert mem.fastpath is fast
    assert cpu._fastpath is fast
    assert cpu._quiesce is quiesce
