"""The fast-path execution engine: equivalence, caching, invalidation.

The step cache (compiled ``(pc, privilege)`` thunks) and the naive
interpreter must be indistinguishable to everything architectural and
everything the paper measures: cycles, PMCs, speculation episodes.
These tests pin that equivalence at CPU level, the compile-on-second-
visit rule (a first visit leaves a shared revisit marker) and the
cache-coherence rules (``invalidate_code`` must drop step/decode/
transient entries and the µop-cache windows they fed).
"""

import pytest

from repro.core import AttackerRuntime
from repro.errors import HaltRequested
from repro.fuzz import generate
from repro.fuzz.harness import build_world, run_world
from repro.fuzz.invariants import check_cache_coherence
from repro.isa import Assembler, Cond, Reg
from repro.kernel import Machine
from repro.memory import MemorySystem
from repro.params import PAGE_SHIFT, PAGE_SIZE
from repro.pipeline import CPU, ZEN2, by_name

CODE = 0x0000_0010_0000
DATA = 0x0000_0200_0000
STACK = 0x0000_7FF0_0000


class Twin:
    """One CPU per engine, same program, same inputs."""

    def __init__(self, fastpath: bool):
        self.mem = MemorySystem(128 << 20, fastpath=fastpath)
        self.cpu = CPU(ZEN2, self.mem, fastpath=fastpath)
        self.cpu.record_episodes = True
        self.mem.map_anonymous(STACK - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                               user=True, nx=True)
        self.cpu.state.write(Reg.RSP, STACK)

    def load_and_run(self, asm: Assembler, **attrs):
        self.mem.load_image(asm.image(), user=True, **attrs)
        self.run()

    def run(self, pc: int = CODE):
        try:
            self.cpu.run(pc, max_instructions=200_000)
        except HaltRequested:
            return
        raise AssertionError("program did not halt")


def branchy_program(iters: int = 300) -> Assembler:
    """Data-dependent branches: mispredicts, Spectre windows, episodes."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RBX, DATA)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 13)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shr_ri(Reg.RDX, 7)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.and_ri(Reg.RDX, 1)
    asm.cmp_ri(Reg.RDX, 0)
    asm.jcc(Cond.E, "skip")
    asm.store(Reg.RBX, 0, Reg.RAX)
    asm.load(Reg.RSI, Reg.RBX, 0)
    asm.label("skip")
    asm.call("leaf")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    asm.label("leaf")
    asm.add_ri(Reg.RDI, 1)
    asm.ret()
    return asm


class TestEngineEquivalence:
    def test_identical_cycles_pmcs_and_episodes(self):
        slow, fast = Twin(fastpath=False), Twin(fastpath=True)
        for twin in (slow, fast):
            twin.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
            twin.load_and_run(branchy_program())
        assert fast.cpu.cycles == slow.cpu.cycles
        assert fast.cpu.pmc.snapshot() == slow.cpu.pmc.snapshot()
        assert fast.cpu.episodes == slow.cpu.episodes
        for r in Reg:
            assert fast.cpu.state.read(r) == slow.cpu.state.read(r), r

    def test_mispredicts_actually_happened(self):
        fast = Twin(fastpath=True)
        fast.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
        fast.load_and_run(branchy_program())
        assert fast.cpu.pmc.read("branch_mispredict") > 10


class TestStepCache:
    def test_cache_fills_after_warm_execution(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RCX, 3)
        asm.label("loop")
        asm.sub_ri(Reg.RCX, 1)
        asm.jcc(Cond.NE, "loop")
        asm.hlt()
        fast.load_and_run(asm)
        # The loop body was revisited, so it holds compiled thunks; the
        # mov and the hlt ran once and hold the revisit marker.
        cache = fast.cpu._step_cache_user
        marker = fast.cpu._revisit_user
        assert len(cache) == 4
        assert [pc for pc, thunk in cache.items() if thunk is marker] \
            == [CODE, max(cache)]

    def test_disabled_engine_compiles_nothing(self):
        slow = Twin(fastpath=False)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 5)
        asm.hlt()
        slow.load_and_run(asm)
        assert not slow.cpu._step_cache_user
        assert slow.cpu.state.read(Reg.RAX) == 5

    def test_first_visit_leaves_the_shared_marker(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        cache = fast.cpu._step_cache_user
        assert set(cache) == {CODE, CODE + 10}
        assert all(thunk is fast.cpu._revisit_user
                   for thunk in cache.values())
        assert fast.cpu._revisit_user is not fast.cpu._revisit_kernel

    def test_second_visit_compiles(self, monkeypatch):
        fast = Twin(fastpath=True)
        compiled = count_compiles(monkeypatch, fast.cpu)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        assert compiled == []
        fast.run()
        assert compiled == [CODE, CODE + 10]
        cache = fast.cpu._step_cache_user
        assert all(thunk is not fast.cpu._revisit_user
                   for thunk in cache.values())
        fast.run()                        # warm: nothing left to compile
        assert compiled == [CODE, CODE + 10]

    def test_invalidate_drops_the_marker(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu._step_cache_user[CODE] is fast.cpu._revisit_user
        fast.cpu.invalidate_code(CODE, CODE + 16)
        assert not fast.cpu._step_cache_user
        assert CODE >> PAGE_SHIFT not in fast.cpu._code_pages

    def test_invalidate_drops_compiled_thunks(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        fast.run()
        assert CODE in fast.cpu._step_cache_user
        assert fast.cpu._step_cache_user[CODE] is not \
            fast.cpu._revisit_user
        fast.cpu.invalidate_code(CODE, CODE + 16)
        assert CODE not in fast.cpu._step_cache_user
        assert CODE not in fast.cpu._decode_cache

    def test_self_modifying_code_reexecutes(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu.state.read(Reg.RAX) == 1
        pa = fast.mem.aspace.translate_noperm(CODE)
        fast.mem.phys.write(pa + 2, (77).to_bytes(8, "little"))
        fast.cpu.invalidate_code(CODE, CODE + 16)
        fast.run()
        assert fast.cpu.state.read(Reg.RAX) == 77

    def test_invalidate_flushes_uop_windows(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RCX, 2)
        asm.label("loop")
        asm.nop_sled(32)
        asm.sub_ri(Reg.RCX, 1)
        asm.jcc(Cond.NE, "loop")
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu.uopcache.lookup(CODE)
        fast.cpu.invalidate_code(CODE, CODE + 64)
        assert not fast.cpu.uopcache.lookup(CODE)

    def test_invalidate_reaches_back_across_page_boundary(self):
        """An instruction starting on the previous page whose bytes
        spill into the invalidated range must be dropped too."""
        fast = Twin(fastpath=True)
        straddle = CODE + PAGE_SIZE - 4   # 10-byte mov crosses the page
        asm = Assembler(straddle)
        asm.mov_ri(Reg.RAX, 0xAB)
        asm.hlt()
        fast.mem.load_image(asm.image(), user=True)
        fast.run(straddle)
        fast.run(straddle)
        assert straddle in fast.cpu._step_cache_user
        fast.cpu.invalidate_code(CODE + PAGE_SIZE, CODE + PAGE_SIZE + 8)
        assert straddle not in fast.cpu._step_cache_user


    def test_train_indirect_compiles_nothing_for_the_snippet(
            self, monkeypatch):
        """Each ``train_indirect`` rewrites its snippet before running
        it, so the snippet's pcs only ever see first visits."""
        machine = Machine(ZEN2, syscall_noise_evictions=0)
        attacker = AttackerRuntime(machine)
        compiled = count_compiles(monkeypatch, machine.cpu)
        src, target = 0x0000_0000_0810_0AC0, 0x0000_0000_0890_0000
        attacker.write_code(target, b"\xf4")
        assert attacker.train_indirect(src, target)
        assert attacker.train_indirect(src, target)
        snippet = machine.cpu._step_cache_user
        assert snippet[src - 10] is machine.cpu._revisit_user
        assert snippet[src] is machine.cpu._revisit_user
        assert compiled == [target]          # the hlt, visited twice

    def test_rewrite_then_run_matches_naive(self):
        """Alternating rewrites and reruns of a training snippet: markers
        dropped, re-installed and compiled give the naive results."""
        hlt_a, hlt_b = CODE + 0x100, CODE + 0x200
        schedule = [(hlt_a, True), (hlt_a, False), (hlt_b, True),
                    (hlt_b, False), (hlt_b, False), (hlt_a, True),
                    (hlt_b, True), (hlt_b, False), (hlt_a, True)]
        slow, fast = Twin(fastpath=False), Twin(fastpath=True)
        for twin in (slow, fast):
            image = Assembler(CODE)
            image.nop_sled(0x100)
            image.hlt()
            image.nop_sled(0xFF)
            image.hlt()
            twin.mem.load_image(image.image(), user=True)
            pa = twin.mem.aspace.translate_noperm(CODE)
            for target, rewrite in schedule:
                if rewrite:
                    asm = Assembler(CODE)
                    asm.mov_ri(Reg.RAX, target)
                    asm.jmp_reg(Reg.RAX)
                    segment, _ = asm.finish()
                    twin.mem.phys.write(pa, segment.data)
                    twin.cpu.invalidate_code(CODE, CODE + len(segment.data))
                twin.run()
        assert fast.cpu.cycles == slow.cpu.cycles
        assert fast.cpu.pmc.snapshot() == slow.cpu.pmc.snapshot()
        assert fast.cpu.episodes == slow.cpu.episodes
        assert fast.cpu.pmc.read("branch_mispredict") > 0
        assert any(thunk is not fast.cpu._revisit_user
                   for thunk in fast.cpu._step_cache_user.values())

    def test_markers_are_indexed_for_invalidation(self):
        world = build_world(generate(0), by_name("zen2"), fastpath=True)
        run_world(world)
        cpu = world.cpu
        markers = [pc for pc, thunk in cpu._step_cache_user.items()
                   if thunk is cpu._revisit_user]
        assert markers
        assert check_cache_coherence(world) == []
        pc = markers[0]
        page = pc >> PAGE_SHIFT
        cpu._code_pages[page] = {p for p in cpu._code_pages[page] if p != pc}
        assert any(f"step-user cache holds pc {pc:#x}" in v.detail
                   for v in check_cache_coherence(world))


def count_compiles(monkeypatch, cpu: CPU) -> list[int]:
    """Record the pc of every step thunk *cpu* compiles from now on."""
    compiled: list[int] = []
    compile_step = cpu._compile_step

    def counting(pc, instr, kernel_mode):
        compiled.append(pc)
        return compile_step(pc, instr, kernel_mode)

    monkeypatch.setattr(cpu, "_compile_step", counting)
    return compiled


class TestL1MissCounting:
    """Satellite: the shared L1-miss heuristic (latency >= L2 latency).

    Pins the current counting behaviour for both cache levels on both
    engines: the first touch of a line is a miss, re-touches are hits.
    """

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_l1d_miss_counted_once_per_cold_line(self, fastpath):
        twin = Twin(fastpath=fastpath)
        twin.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RBX, DATA)
        asm.load(Reg.RAX, Reg.RBX, 0)
        asm.load(Reg.RDX, Reg.RBX, 0)
        asm.hlt()
        twin.load_and_run(asm)
        assert twin.cpu.pmc.read("l1d_access") == 2
        assert twin.cpu.pmc.read("l1d_miss") == 1

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_l1i_miss_counted_once_per_cold_line(self, fastpath):
        twin = Twin(fastpath=fastpath)
        asm = Assembler(CODE)   # ~16 bytes: one cache line of code
        asm.mov_ri(Reg.RAX, 1)
        asm.mov_ri(Reg.RDX, 2)
        asm.hlt()
        twin.load_and_run(asm)
        assert twin.cpu.pmc.read("l1i_miss") == 1
        assert twin.cpu.pmc.read("l1i_access") == \
            twin.cpu.pmc.read("instructions")

    def test_threshold_is_l2_latency(self):
        twin = Twin(fastpath=True)
        assert twin.cpu._l1_miss_threshold == \
            twin.mem.hier.params.l2_latency
