"""Performance counter bank."""

import pytest

from repro.isa import Assembler, Reg
from repro.pipeline import EVENTS, PMC

from .conftest import USER_CODE


def test_counters_start_zero():
    pmc = PMC()
    for event in EVENTS:
        assert pmc.read(event) == 0


def test_add_and_read():
    pmc = PMC()
    pmc.add("op_cache_hit")
    pmc.add("op_cache_hit", 4)
    assert pmc.read("op_cache_hit") == 5


def test_unknown_event_rejected():
    pmc = PMC()
    with pytest.raises(KeyError):
        pmc.add("bogus_event")
    with pytest.raises(KeyError):
        pmc.read("bogus_event")


def test_sample_context_measures_delta():
    pmc = PMC()
    pmc.add("instructions", 100)
    with pmc.sample("instructions", "l1d_miss") as sample:
        pmc.add("instructions", 7)
        pmc.add("l1d_miss", 3)
    assert sample["instructions"] == 7
    assert sample["l1d_miss"] == 3
    assert pmc.read("instructions") == 107


def test_snapshot_covers_all_events():
    pmc = PMC()
    pmc.add("syscalls")
    snap = pmc.snapshot()
    assert set(snap) == set(EVENTS)
    assert snap["syscalls"] == 1


def test_reset():
    pmc = PMC()
    pmc.add("branch_retired", 9)
    pmc.reset()
    assert pmc.read("branch_retired") == 0


class Core:
    cycles = 0


def test_cycles_tracks_the_core_clock_and_honours_reset():
    core = Core()
    pmc = PMC(core)
    core.cycles = 40
    assert pmc.read("cycles") == 40
    assert pmc.snapshot()["cycles"] == 40
    with pmc.sample("cycles") as sample:
        core.cycles += 7
    assert sample["cycles"] == 7
    pmc.reset()
    assert pmc.read("cycles") == 0
    core.cycles += 5
    assert pmc.snapshot()["cycles"] == 5


def test_cycles_is_read_not_added():
    with pytest.raises(ValueError):
        PMC(Core()).add("cycles")
    assert PMC().read("cycles") == 0     # no core: no clock


def test_cpu_cycles_event_counts_core_cycles(harness):
    asm = Assembler(USER_CODE)
    for _ in range(20):
        asm.add_ri(Reg.RAX, 1)
    asm.hlt()
    harness.load(asm)
    harness.run(USER_CODE)
    cpu = harness.cpu
    assert cpu.cycles > 0
    assert cpu.pmc.read("cycles") == cpu.cycles


def test_paper_event_names_present():
    """The counters the paper samples exist under their real names."""
    assert "op_cache_hit" in EVENTS
    assert "op_cache_miss" in EVENTS
    assert "de_dis_uops_from_decoder" in EVENTS


def test_sample_contexts_nest_independently():
    pmc = PMC()
    with pmc.sample("instructions") as outer:
        pmc.add("instructions", 2)
        with pmc.sample("instructions", "l1d_miss") as inner:
            pmc.add("instructions", 5)
            pmc.add("l1d_miss", 9)
        assert inner["instructions"] == 5
        assert inner["l1d_miss"] == 9
        pmc.add("instructions", 1)
    assert outer["instructions"] == 8   # sees inner's additions too


def test_sample_records_delta_when_body_raises():
    pmc = PMC()
    try:
        with pmc.sample("instructions") as sample:
            pmc.add("instructions", 3)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    # The generator-based contextmanager does not run past the yield on
    # an exception, so the delta dict stays empty rather than lying.
    assert sample == {}
    assert pmc.read("instructions") == 3
