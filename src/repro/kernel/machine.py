"""The Machine: CPU + memory + kernel, booted with KASLR and mitigations.

This is the top-level facade experiments run against.  It provides:

* the victim OS: syscall dispatch into kernel text whose gadgets sit at
  the paper's image offsets, kernel modules, KASLR-randomized layout,
  mitigations;
* the unprivileged-attacker runtime: map user pages, write code, run
  programs, issue syscalls, flush lines and perform timed accesses.

Everything the attacker does either executes on the simulated CPU or is
a documented runtime shortcut (timed loads/fetches) that touches the
caches exactly as the equivalent instruction sequence would.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from itertools import compress

from ..errors import HaltRequested, PageFault, ReproError
from ..isa import Assembler, Image, Reg
from ..memory import MemorySystem
from ..params import HUGE_PAGE_SIZE, PAGE_SIZE, canonical
from ..pipeline import CPU, Microarch
from ..telemetry import metrics as _metrics
from ..telemetry.trace import TRACE as _TRACE

_REG = _metrics.REGISTRY
from .kaslr import Kaslr, MODULES_BASE
from .layout import DATA_SIZE, IMAGE_SIZE, kernel_images
from .mitigations import DEFAULT_MITIGATIONS, MitigationConfig
from .modules import MDS_ARRAY_LENGTH, MODULE_SIZE

#: Fixed user-space addresses of the attacker process.
USER_STUB = 0x0000_0000_0040_0000       # syscall trampoline
USER_STACK_TOP = 0x0000_7FFF_FF00_0000
USER_STACK_SIZE = 64 * PAGE_SIZE
KERNEL_STACK = 0xFFFF_FFFF_A000_0000
KERNEL_STACK_SIZE = 4 * PAGE_SIZE

#: Offset of the 4096-byte random secret inside the kernel data region.
SECRET_OFFSET = 0x1000
SECRET_SIZE = 4096

#: ``_TOP_BIT_CLEAR[b]`` is 1 when byte *b* has its top bit clear.
_TOP_BIT_CLEAR = bytes(int(b < 0x80) for b in range(256))


def draw_secret(rng: random.Random, n: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(n))`` in bulk: the same
    bytes, and *rng* left in the same state.

    ``randrange(256)`` rejection-samples 9-bit draws: each try takes one
    32-bit Mersenne Twister word, accepts it when its top bit is clear
    and returns ``word >> 23``.  ``getrandbits(32 * k)`` yields the next
    *k* words of the same stream, least significant first, so one
    round takes exactly as many words as bytes are still missing (the
    sequential loop needs at least that many: no overdraw) and keeps
    the accepted ones in order.
    """
    out = bytearray()
    while need := n - len(out):
        words = rng.getrandbits(32 * need)
        values = (words >> 23).to_bytes(4 * need, "little")[::4]
        keep = words.to_bytes(4 * need, "little")[3::4].translate(
            _TOP_BIT_CLEAR)
        out.extend(compress(values, keep))
    return bytes(out)


@dataclass(frozen=True)
class MachineSpec:
    """Declarative, picklable description of one :class:`Machine` boot.

    Experiments pass specs instead of keyword sprawl at call sites, and
    — because a spec is plain data keyed by the µarch *name* — a spec
    crosses the process-pool boundary of :mod:`repro.runner` where a
    booted :class:`Machine` (caches, CPU, mapped memory) cannot.  Two
    boots of the same spec are bit-identical machines.
    """

    uarch: str
    phys_mem: int = 2 << 30
    kaslr_seed: int = 0
    rng_seed: int = 0
    mitigations: MitigationConfig = DEFAULT_MITIGATIONS
    sibling_load: bool = False
    syscall_noise_evictions: int = 2

    def with_(self, **changes) -> "MachineSpec":
        return replace(self, **changes)

    def boot(self) -> "Machine":
        return Machine.from_spec(self)

    def describe(self) -> dict:
        """Manifest ``config`` block for this spec (same shape as
        :func:`repro.telemetry.manifest.machine_config`, no boot
        required)."""
        from ..pipeline import by_name

        uarch = by_name(self.uarch)
        return {
            "uarch": uarch.name,
            "model": uarch.model,
            "vendor": uarch.vendor,
            "clock_ghz": uarch.clock_ghz,
            "kaslr_seed": self.kaslr_seed,
            "mitigations": {k: bool(v)
                            for k, v in asdict(self.mitigations).items()},
            "phys_mem_bytes": self.phys_mem,
        }


class Machine:
    """A booted system: hardware model + kernel + one attacker process."""

    def __init__(self, uarch: Microarch, *, phys_mem: int = 2 << 30,
                 kaslr_seed: int = 0,
                 mitigations: MitigationConfig = DEFAULT_MITIGATIONS,
                 rng_seed: int = 0, sibling_load: bool = False,
                 syscall_noise_evictions: int = 2) -> None:
        self.uarch = uarch
        self.kaslr_seed = kaslr_seed
        self.rng_seed = rng_seed
        self.rng = random.Random(rng_seed)
        self.mem = MemorySystem(phys_mem, hierarchy=uarch.hierarchy,
                                rng=self.rng)
        self.cpu = CPU(uarch, self.mem, rng=self.rng)
        self.kaslr = Kaslr.randomize(kaslr_seed)
        self._m_syscalls = _metrics.counter("machine_syscalls")
        self._m_noise = _metrics.counter("machine_noise_evictions")
        self.mitigations = mitigations
        self.sibling_load = sibling_load
        self.syscall_noise_evictions = syscall_noise_evictions
        self._saved_user_pc = 0
        self._saved_user_rsp = 0

        self._boot()

    @classmethod
    def from_spec(cls, spec: MachineSpec) -> "Machine":
        """Boot the machine a :class:`MachineSpec` describes."""
        from ..pipeline import by_name

        return cls(by_name(spec.uarch), phys_mem=spec.phys_mem,
                   kaslr_seed=spec.kaslr_seed, rng_seed=spec.rng_seed,
                   mitigations=spec.mitigations,
                   sibling_load=spec.sibling_load,
                   syscall_noise_evictions=spec.syscall_noise_evictions)

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def _boot(self) -> None:
        mem = self.mem
        image_base = self.kaslr.image_base
        self.data_base = image_base + IMAGE_SIZE

        # Shared, read-only images: phys.write copies their bytes.
        self.modules, self.kernel = kernel_images(image_base)

        # Kernel text: one executable supervisor range; code copied in.
        image_pa = mem.frames.alloc(IMAGE_SIZE)
        mem.aspace.map_linear(image_base, image_pa, IMAGE_SIZE,
                              user=False, nx=False)
        for segment in self.kernel.image.segments:
            mem.phys.write(image_pa + (segment.base - image_base),
                           segment.data)

        # Kernel data: NX supervisor range after the text.
        data_pa = mem.frames.alloc(DATA_SIZE)
        mem.aspace.map_linear(self.data_base, data_pa, DATA_SIZE,
                              user=False, nx=True)
        mem.phys.write_int(data_pa, 8, MDS_ARRAY_LENGTH)
        secret = draw_secret(self.rng, SECRET_SIZE)
        mem.phys.write(data_pa + SECRET_OFFSET, secret)
        self._secret = secret

        # Modules: executable supervisor region at a fixed base.
        module_pa = mem.frames.alloc(MODULE_SIZE)
        mem.aspace.map_linear(MODULES_BASE, module_pa, MODULE_SIZE,
                              user=False, nx=False)
        for segment in self.modules.image.segments:
            mem.phys.write(module_pa + (segment.base - MODULES_BASE),
                           segment.data)

        # physmap: the whole of physical memory, NX, at a randomized base.
        mem.aspace.map_linear(self.kaslr.physmap_base, 0, mem.phys.size,
                              user=False, nx=True)

        # Kernel stack.
        mem.map_anonymous(KERNEL_STACK, KERNEL_STACK_SIZE, user=False,
                          nx=True)

        # Attacker syscall stub: ``syscall ; hlt``.
        stub = Assembler(USER_STUB)
        stub.syscall()
        stub.hlt()
        mem.load_image(stub.image(), user=True)

        # User stack.
        mem.map_anonymous(USER_STACK_TOP - USER_STACK_SIZE, USER_STACK_SIZE,
                          user=True, nx=True)
        self.cpu.state.write(Reg.RSP, USER_STACK_TOP - 64)

        # Wire traps and mitigations.
        self.cpu.trap_handler = self._trap
        self.cpu.msr.suppress_bp_on_non_br = \
            self.mitigations.suppress_bp_on_non_br
        self.cpu.msr.auto_ibrs = self.mitigations.auto_ibrs

    # ------------------------------------------------------------------
    # traps
    # ------------------------------------------------------------------

    def _trap(self, cpu: CPU, trap: str, instr, result) -> None:
        if trap == "syscall":
            if cpu.kernel_mode:
                raise ReproError("nested syscall")
            self._saved_user_pc = result.next_pc
            self._saved_user_rsp = cpu.state.read(Reg.RSP)
            cpu.kernel_mode = True
            cpu.state.write(Reg.RSP, KERNEL_STACK + KERNEL_STACK_SIZE - 64)
            cpu.cycles += self.uarch.syscall_entry_cost
            cpu.pmc.add("syscalls")
            if _REG.enabled:
                self._m_syscalls.value += 1
            if _TRACE.enabled:
                _TRACE.emit("syscall", cpu.cycles,
                            nr=cpu.state.read(Reg.RAX))
            if self.mitigations.ibpb_on_kernel_entry:
                cpu.bpu.ibpb()
            if self.mitigations.rsb_stuffing_on_entry:
                # §2.4: overwrite user-poisoned return predictions with
                # a fenced kernel pad.
                cpu.bpu.rsb.clear()
                pad = self.kernel.sym("rsb_stuff_pad")
                for _ in range(cpu.bpu.rsb.depth):
                    cpu.bpu.rsb.push(pad)
                cpu.cycles += 2 * cpu.bpu.rsb.depth
            self._inject_syscall_noise()
            cpu.pc = self.kernel.sym("syscall_entry")
            return
        if trap == "sysret":
            if not cpu.kernel_mode:
                raise ReproError("sysret from user mode")
            cpu.kernel_mode = False
            cpu.state.write(Reg.RSP, self._saved_user_rsp)
            cpu.cycles += self.uarch.syscall_exit_cost
            cpu.pc = self._saved_user_pc
            return
        raise ReproError(f"unexpected trap {trap!r} at {cpu.pc:#x}")

    def _inject_syscall_noise(self) -> None:
        """Model the syscall path thrashing I-cache sets beyond the code
        we simulate (the noise §7.3 fights): each eviction removes one
        resident line from a random L1I set.  A busy sibling thread
        makes the machine's timing behaviour more uniform, which the
        paper exploits; here it slightly reduces the thrash."""
        n = self.syscall_noise_evictions
        if self.sibling_load:
            n = max(0, n - 1)
        l1i = self.mem.hier.l1i
        if _REG.enabled:
            self._m_noise.value += n
        for _ in range(n):
            set_index = self.rng.randrange(l1i.num_sets)
            resident = l1i.resident_lines(set_index)
            if resident:
                l1i.invalidate(self.rng.choice(resident))

    # ------------------------------------------------------------------
    # attacker runtime
    # ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.cpu.cycles

    def seconds(self) -> float:
        """Simulated wall-clock time since boot."""
        return self.cpu.cycles / (self.uarch.clock_ghz * 1e9)

    def close(self) -> None:
        """Release the machine: drop the references that tie it and its
        core into cycles, so it is freed as soon as the last outside
        reference goes instead of at the next cyclic GC pass.  The
        machine cannot run afterwards; its counters stay readable."""
        self.cpu.close()

    @property
    def timing_jitter_sigma(self) -> float:
        """Timer noise level; a loaded sibling stabilises timing
        (paper §6.4 stresses the sibling with ``stress -c 10``)."""
        return 1.0 if self.sibling_load else 2.0

    def map_user(self, va: int, size: int, *, nx: bool = False) -> None:
        """mmap: anonymous user memory."""
        self.mem.map_anonymous(va, size, user=True, nx=nx)

    def map_user_huge(self, va: int, *, nx: bool = True) -> None:
        """mmap a 2 MiB transparent huge page (physically contiguous)."""
        pa = self.mem.frames.alloc_huge()
        self.mem.aspace.map_range(va, pa, HUGE_PAGE_SIZE, user=True,
                                  nx=nx, huge=True)

    def alloc_filler_huge_pages(self, count: int) -> None:
        """Consume huge pages to re-randomize later allocations'
        physical addresses (Table 5's re-randomization step)."""
        for _ in range(count):
            self.mem.frames.alloc_huge()

    def write_user(self, va: int, data: bytes) -> None:
        """Write into user memory (and invalidate stale decodes)."""
        pa = self.mem.aspace.translate(va, write=True, user_mode=True)
        self.mem.phys.write(pa, data)
        self.cpu.invalidate_code(va, va + len(data))

    def load_user_image(self, image: Image, *, nx: bool = False) -> None:
        self.mem.load_image(image, user=True, nx=nx)

    def run_user(self, pc: int, *, max_instructions: int = 200_000,
                 regs: dict[Reg, int] | None = None) -> None:
        """Run attacker code at *pc* until ``hlt``.

        PageFaults in user mode propagate to the caller (the attacker
        catches them, e.g. when training with kernel-address targets).
        """
        self.cpu.state.write(Reg.RSP, USER_STACK_TOP - 64)
        if regs:
            for reg, value in regs.items():
                self.cpu.state.write(reg, value)
        try:
            self.cpu.run(pc, max_instructions=max_instructions)
        except HaltRequested:
            return
        except PageFault:
            if self.cpu.kernel_mode:
                raise ReproError("kernel page fault (oops)") from None
            raise

    def syscall(self, nr: int, rdi: int = 0, rsi: int = 0,
                rdx: int = 0, *, max_instructions: int = 200_000) -> int:
        """Issue a system call through the user stub; returns RAX."""
        self.cpu.state.write(Reg.RAX, nr)
        self.cpu.state.write(Reg.RDI, rdi)
        self.cpu.state.write(Reg.RSI, rsi)
        self.cpu.state.write(Reg.RDX, rdx)
        self.run_user(USER_STUB, max_instructions=max_instructions)
        return self.cpu.state.read(Reg.RAX)

    # -- timing / cache primitives (attacker-visible) ----------------------

    def clflush(self, va: int) -> None:
        self.mem.clflush(va)
        self.cpu.cycles += 40

    def timed_user_load(self, va: int) -> int:
        """Execute the equivalent of ``rdtsc; mov r,[va]; rdtsc``.

        Returns the load latency in cycles (no jitter — callers add
        timer noise via :class:`repro.sidechannel.Timer`)."""
        _, cyc = self.mem.read_data(canonical(va), 8, user_mode=True)
        self.cpu.cycles += cyc + 2
        return cyc

    def timed_user_exec(self, va: int) -> int:
        """Time an instruction fetch at *va* (Figure 5 A's probe)."""
        _, cyc = self.mem.fetch_code(canonical(va), 8, user_mode=True)
        self.cpu.cycles += cyc + 2
        return cyc

    def user_touch(self, va: int) -> None:
        """Untimed user load (prime traffic)."""
        _, cyc = self.mem.read_data(canonical(va), 8, user_mode=True)
        self.cpu.cycles += cyc

    def user_exec_touch(self, va: int) -> None:
        """Untimed user instruction fetch (I-cache prime traffic)."""
        _, cyc = self.mem.fetch_code(canonical(va), 8, user_mode=True)
        self.cpu.cycles += cyc

    # -- test-only introspection -------------------------------------------

    def secret_bytes(self) -> bytes:
        """Ground-truth secret (verification of leaks in benches/tests)."""
        return self._secret

    @property
    def secret_va(self) -> int:
        return self.data_base + SECRET_OFFSET
