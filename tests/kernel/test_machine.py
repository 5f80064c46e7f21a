"""Machine boot, syscalls, paper-offset gadgets, mitigations, physmap."""

import gc
import weakref

import pytest

from repro.core.kaslr_image import break_kernel_image_kaslr
from repro.errors import PageFault
from repro.isa import Assembler, Reg, decode, Mnemonic
from repro.kernel import (DISCLOSURE_GADGET_OFFSET, FDGET_POS_OFFSET,
                          IBPB_HARDENED, Machine, MitigationConfig,
                          SYS_GETPID, SYS_MDS, SYS_READV, SYS_REV,
                          TASK_PID_NR_NS_OFFSET)
from repro.params import PAGE_SIZE
from repro.pipeline import ZEN2, ZEN3


@pytest.fixture(scope="module")
def machine():
    return Machine(ZEN2, kaslr_seed=11)


class TestBoot:
    def test_kernel_not_user_accessible(self, machine):
        with pytest.raises(PageFault):
            machine.mem.aspace.translate(machine.kaslr.image_base,
                                         user_mode=True)

    def test_listing1_at_paper_offset(self, machine):
        """image + 0xf6520 must decode to Listing 1's byte sequence."""
        base = machine.kaslr.image_base + TASK_PID_NR_NS_OFFSET
        raw, _ = machine.mem.fetch_code(base, 16)
        first = decode(raw)
        assert first.mnemonic is Mnemonic.NOPL and first.length == 8
        second = decode(raw, 8)
        assert second.mnemonic is Mnemonic.PUSH
        assert second.dest is Reg.RBP

    def test_listing3_at_paper_offset(self, machine):
        base = machine.kaslr.image_base + DISCLOSURE_GADGET_OFFSET
        raw, _ = machine.mem.fetch_code(base, 16)
        instr = decode(raw)
        assert instr.mnemonic is Mnemonic.MOV_RM
        assert instr.dest is Reg.R12 and instr.base is Reg.R12
        assert instr.disp == 0xBE0

    def test_listing2_call_site(self, machine):
        call_site = machine.kernel.sym("fdget_call_site")
        assert call_site > machine.kaslr.image_base + FDGET_POS_OFFSET
        raw, _ = machine.mem.fetch_code(call_site, 8)
        assert decode(raw).mnemonic is Mnemonic.CALL

    def test_physmap_maps_physical_memory(self, machine):
        """Writing through a user page must be readable through physmap."""
        user_va = 0x0000_0000_0100_0000
        machine.map_user(user_va, PAGE_SIZE)
        machine.mem.write_data(user_va, 8, 0x1122334455667788,
                               user_mode=True)
        pa = machine.mem.aspace.translate_noperm(user_va)
        value, _ = machine.mem.read_data(machine.kaslr.physmap_base + pa, 8)
        assert value == 0x1122334455667788

    def test_physmap_not_executable(self, machine):
        with pytest.raises(PageFault):
            machine.mem.fetch_code(machine.kaslr.physmap_base + 0x1000, 8)

    def test_different_seeds_different_layout(self):
        a = Machine(ZEN3, kaslr_seed=1)
        b = Machine(ZEN3, kaslr_seed=2)
        assert a.kaslr.image_base != b.kaslr.image_base


class TestSyscalls:
    def test_getpid(self, machine):
        assert machine.syscall(SYS_GETPID) == 1234

    def test_unknown_syscall_enosys(self, machine):
        assert machine.syscall(999) == (-38) & ((1 << 64) - 1)

    def test_readv_returns_zero(self, machine):
        assert machine.syscall(SYS_READV, 3, 0x4000) == 0

    def test_syscall_preserves_user_context(self, machine):
        rsp_before = machine.cpu.state.read(Reg.RSP)
        machine.syscall(SYS_GETPID)
        assert machine.cpu.state.read(Reg.RSP) == rsp_before
        assert not machine.cpu.kernel_mode

    def test_rev_module_callable(self, machine):
        machine.syscall(SYS_REV)
        assert not machine.cpu.kernel_mode

    def test_mds_module_in_bounds(self, machine):
        assert machine.syscall(SYS_MDS, 3, 0) == 0

    def test_syscall_counts(self, machine):
        before = machine.cpu.pmc.read("syscalls")
        machine.syscall(SYS_GETPID)
        assert machine.cpu.pmc.read("syscalls") == before + 1


class TestAttackerRuntime:
    def test_run_user_program(self, machine):
        code = 0x0000_0000_0200_0000
        asm = Assembler(code)
        asm.mov_ri(Reg.RAX, 55)
        asm.hlt()
        machine.load_user_image(asm.image())
        machine.run_user(code)
        assert machine.cpu.state.read(Reg.RAX) == 55

    def test_user_fault_propagates(self, machine):
        with pytest.raises(PageFault):
            machine.run_user(0x0000_0000_0300_0000)

    def test_timed_load_hot_cold(self, machine):
        va = 0x0000_0000_0210_0000
        machine.map_user(va, PAGE_SIZE)
        machine.user_touch(va)
        hot = machine.timed_user_load(va)
        machine.clflush(va)
        cold = machine.timed_user_load(va)
        assert cold > hot

    def test_timed_exec_hot_cold(self, machine):
        va = 0x0000_0000_0220_0000
        machine.map_user(va, PAGE_SIZE)
        machine.user_exec_touch(va)
        hot = machine.timed_user_exec(va)
        machine.clflush(va)
        cold = machine.timed_user_exec(va)
        assert cold > hot

    def test_huge_page_physically_contiguous(self, machine):
        va = 0x0000_0000_4000_0000
        machine.map_user_huge(va)
        pa0 = machine.mem.aspace.translate_noperm(va)
        pa1 = machine.mem.aspace.translate_noperm(va + 5 * PAGE_SIZE)
        assert pa1 - pa0 == 5 * PAGE_SIZE
        assert pa0 % (2 << 20) == 0

    def test_seconds_advances(self, machine):
        t0 = machine.seconds()
        machine.syscall(SYS_GETPID)
        assert machine.seconds() > t0

    def test_write_user_invalidate(self, machine):
        code = 0x0000_0000_0230_0000
        asm = Assembler(code)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        machine.load_user_image(asm.image())
        machine.run_user(code)
        asm2 = Assembler(code)
        asm2.mov_ri(Reg.RAX, 2)
        asm2.hlt()
        machine.write_user(code, asm2.finish()[0].data)
        machine.run_user(code)
        assert machine.cpu.state.read(Reg.RAX) == 2


class TestMitigationsWiring:
    def test_msr_bits_applied(self):
        m = Machine(ZEN2, mitigations=MitigationConfig(
            suppress_bp_on_non_br=True))
        assert m.cpu.msr.suppress_bp_on_non_br

    def test_ibpb_on_entry_flushes_btb(self):
        m = Machine(ZEN2, mitigations=IBPB_HARDENED)
        from repro.isa import BranchKind
        m.cpu.bpu.btb.train(0x1000, BranchKind.DIRECT, 0x2000,
                            kernel_mode=False)
        m.syscall(SYS_GETPID)
        # The user-planted entry is gone (the kernel's own branches
        # legitimately retrain entries after the barrier).
        assert m.cpu.bpu.btb.lookup(0x1000, kernel_mode=False) is None


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects inside the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestClose:
    def booted_and_run(self):
        machine = Machine(ZEN2, kaslr_seed=3)
        machine.syscall(SYS_GETPID)
        # One §7.1 probe: BTB training, rewritten user code, phantom and
        # Spectre windows, compiled thunks on both privilege levels.
        break_kernel_image_kaslr(
            machine, candidates=[machine.kaslr.image_base])
        return machine

    def test_closed_machine_is_freed_by_reference_counting(
            self, no_cyclic_gc):
        machine = self.booted_and_run()
        cycles = machine.cycles
        machine.close()
        assert machine.cpu.pmc.read("cycles") == cycles  # still readable
        parts = [weakref.ref(o) for o in (machine, machine.cpu,
                                          machine.mem)]
        del machine
        assert [ref() for ref in parts] == [None, None, None]
