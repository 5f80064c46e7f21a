"""Architectural execution semantics for the implemented x86-64 subset.

The pipeline backend calls :func:`execute` for each instruction once its
µops are scheduled; memory traffic is routed through caller-supplied
load/store callables so the cache hierarchy observes every access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..params import MASK64, canonical
from .instructions import Cond, Instruction, Mnemonic, Reg


@dataclass(slots=True)
class Flags:
    """The subset of RFLAGS the implemented instructions read or write."""

    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False


@dataclass(slots=True)
class ArchState:
    """Architectural register state."""

    regs: list[int] = field(default_factory=lambda: [0] * 16)
    flags: Flags = field(default_factory=Flags)

    def read(self, reg: Reg) -> int:
        return self.regs[reg]

    def write(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & MASK64

    def copy(self) -> "ArchState":
        clone = ArchState(regs=list(self.regs), flags=Flags(
            self.flags.zf, self.flags.sf, self.flags.cf, self.flags.of))
        return clone


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One memory access performed by an instruction."""

    addr: int
    size: int
    is_write: bool


@dataclass(slots=True)
class ExecResult:
    """Outcome of architecturally executing one instruction."""

    next_pc: int
    taken: bool | None = None          # branch direction (None: not a branch)
    target: int | None = None          # resolved branch target, if branch
    accesses: list[MemAccess] = field(default_factory=list)
    trap: str | None = None            # 'syscall' | 'sysret' | 'hlt' | 'ud2'


LoadFn = Callable[[int, int], int]
StoreFn = Callable[[int, int, int], None]


def _signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


def _set_logic_flags(flags: Flags, result: int) -> None:
    result &= MASK64
    flags.zf = result == 0
    flags.sf = bool(result >> 63)
    flags.cf = False
    flags.of = False


def _set_add_flags(flags: Flags, a: int, b: int, result: int) -> None:
    flags.zf = (result & MASK64) == 0
    flags.sf = bool((result >> 63) & 1)
    flags.cf = result > MASK64
    flags.of = (_signed(a) + _signed(b)) != _signed(result)


def _set_sub_flags(flags: Flags, a: int, b: int, result: int) -> None:
    flags.zf = (result & MASK64) == 0
    flags.sf = bool((result >> 63) & 1)
    flags.cf = (a & MASK64) < (b & MASK64)
    flags.of = (_signed(a) - _signed(b)) != _signed(result & MASK64)


def condition_met(cc: Cond, flags: Flags) -> bool:
    """Evaluate condition code *cc* against *flags*."""
    table = {
        Cond.O: flags.of,
        Cond.NO: not flags.of,
        Cond.B: flags.cf,
        Cond.AE: not flags.cf,
        Cond.E: flags.zf,
        Cond.NE: not flags.zf,
        Cond.BE: flags.cf or flags.zf,
        Cond.A: not flags.cf and not flags.zf,
        Cond.S: flags.sf,
        Cond.NS: not flags.sf,
        Cond.P: False,   # parity not modelled
        Cond.NP: True,
        Cond.L: flags.sf != flags.of,
        Cond.GE: flags.sf == flags.of,
        Cond.LE: flags.zf or (flags.sf != flags.of),
        Cond.G: not flags.zf and (flags.sf == flags.of),
    }
    return table[cc]


def execute(instr: Instruction, pc: int, state: ArchState,
            load: LoadFn, store: StoreFn,
            rdtsc: Callable[[], int] | None = None) -> ExecResult:
    """Execute *instr* at *pc*, mutating *state* and calling load/store.

    ``load(addr, size) -> value`` and ``store(addr, size, value)`` are
    supplied by the pipeline so memory effects traverse the cache
    hierarchy.  Returns the architectural :class:`ExecResult`.
    """
    m = instr.mnemonic
    flags = state.flags
    fall = (pc + instr.length) & MASK64
    res = ExecResult(next_pc=fall)

    def mem_addr() -> int:
        assert instr.base is not None
        return canonical(state.read(instr.base) + instr.disp)

    if m in (Mnemonic.NOP, Mnemonic.NOPL, Mnemonic.LFENCE, Mnemonic.MFENCE):
        return res
    if m in (Mnemonic.JMP, Mnemonic.JMP_SHORT):
        res.taken = True
        res.target = instr.target(pc)
        res.next_pc = res.target
        return res
    if m is Mnemonic.JMP_REG:
        res.taken = True
        res.target = canonical(state.read(instr.dest))
        res.next_pc = res.target
        return res
    if m is Mnemonic.JCC:
        res.taken = condition_met(instr.cc, flags)
        res.target = instr.target(pc)
        res.next_pc = res.target if res.taken else fall
        return res
    if m in (Mnemonic.CALL, Mnemonic.CALL_REG):
        rsp = (state.read(Reg.RSP) - 8) & MASK64
        state.write(Reg.RSP, rsp)
        store(rsp, 8, fall)
        res.accesses.append(MemAccess(rsp, 8, True))
        res.taken = True
        if m is Mnemonic.CALL:
            res.target = instr.target(pc)
        else:
            res.target = canonical(state.read(instr.dest))
        res.next_pc = res.target
        return res
    if m is Mnemonic.RET:
        rsp = state.read(Reg.RSP)
        ret_addr = canonical(load(rsp, 8))
        state.write(Reg.RSP, (rsp + 8) & MASK64)
        res.accesses.append(MemAccess(rsp, 8, False))
        res.taken = True
        res.target = ret_addr
        res.next_pc = ret_addr
        return res
    if m is Mnemonic.MOV_RI:
        state.write(instr.dest, instr.imm)
        return res
    if m is Mnemonic.MOV_RR:
        state.write(instr.dest, state.read(instr.src))
        return res
    if m is Mnemonic.MOV_RM:
        addr = mem_addr()
        state.write(instr.dest, load(addr, 8))
        res.accesses.append(MemAccess(addr, 8, False))
        return res
    if m is Mnemonic.MOVB_RM:
        # Modelled as a zero-extending byte load (movzx-style), which is
        # how the paper's disclosure gadgets use byte loads.
        addr = mem_addr()
        state.write(instr.dest, load(addr, 1) & 0xFF)
        res.accesses.append(MemAccess(addr, 1, False))
        return res
    if m is Mnemonic.MOV_MR:
        addr = mem_addr()
        store(addr, 8, state.read(instr.src))
        res.accesses.append(MemAccess(addr, 8, True))
        return res
    if m is Mnemonic.LEA:
        state.write(instr.dest, canonical(state.read(instr.base) + instr.disp))
        return res
    if m is Mnemonic.ADD_RI or m is Mnemonic.ADD_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.ADD_RI else state.read(instr.src)
        result = a + (b & MASK64)
        _set_add_flags(flags, a, b & MASK64, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SUB_RI or m is Mnemonic.SUB_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.SUB_RI else state.read(instr.src)
        result = (a - (b & MASK64)) & MASK64
        _set_sub_flags(flags, a, b & MASK64, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.CMP_RI or m is Mnemonic.CMP_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.CMP_RI else state.read(instr.src)
        result = (a - (b & MASK64)) & MASK64
        _set_sub_flags(flags, a, b & MASK64, result)
        return res
    if m is Mnemonic.TEST_RR:
        _set_logic_flags(flags, state.read(instr.dest)
                         & state.read(instr.src))
        return res
    if m is Mnemonic.INC:
        a = state.read(instr.dest)
        result = (a + 1) & MASK64
        # inc preserves CF, updates the rest like add.
        carry = flags.cf
        _set_add_flags(flags, a, 1, a + 1)
        flags.cf = carry
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.DEC:
        a = state.read(instr.dest)
        result = (a - 1) & MASK64
        carry = flags.cf
        _set_sub_flags(flags, a, 1, result)
        flags.cf = carry
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.NEG:
        a = state.read(instr.dest)
        result = (-a) & MASK64
        _set_sub_flags(flags, 0, a, result)
        flags.cf = a != 0
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.NOT:
        state.write(instr.dest, ~state.read(instr.dest))
        return res   # not touches no flags
    if m is Mnemonic.IMUL_RR:
        a = _signed(state.read(instr.dest))
        b = _signed(state.read(instr.src))
        product = a * b
        result = product & MASK64
        overflow = product != _signed(result)
        flags.cf = flags.of = overflow
        # zf/sf are architecturally undefined after imul; we model them
        # from the truncated result for determinism.
        flags.zf = result == 0
        flags.sf = bool(result >> 63)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.XCHG_RR:
        a = state.read(instr.dest)
        state.write(instr.dest, state.read(instr.src))
        state.write(instr.src, a)
        return res
    if m is Mnemonic.CMOV:
        if condition_met(instr.cc, flags):
            state.write(instr.dest, state.read(instr.src))
        return res
    if m is Mnemonic.AND_RI:
        result = state.read(instr.dest) & (instr.imm & MASK64)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.XOR_RR:
        result = state.read(instr.dest) ^ state.read(instr.src)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.OR_RR:
        result = state.read(instr.dest) | state.read(instr.src)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SHL_RI:
        result = (state.read(instr.dest) << instr.imm) & MASK64
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SHR_RI:
        result = state.read(instr.dest) >> instr.imm
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.PUSH:
        rsp = (state.read(Reg.RSP) - 8) & MASK64
        state.write(Reg.RSP, rsp)
        store(rsp, 8, state.read(instr.dest))
        res.accesses.append(MemAccess(rsp, 8, True))
        return res
    if m is Mnemonic.POP:
        rsp = state.read(Reg.RSP)
        state.write(instr.dest, load(rsp, 8))
        state.write(Reg.RSP, (rsp + 8) & MASK64)
        res.accesses.append(MemAccess(rsp, 8, False))
        return res
    if m is Mnemonic.RDTSC:
        cycles = rdtsc() if rdtsc is not None else 0
        state.write(Reg.RAX, cycles & 0xFFFFFFFF)
        state.write(Reg.RDX, (cycles >> 32) & 0xFFFFFFFF)
        return res
    if m is Mnemonic.SYSCALL:
        res.trap = "syscall"
        return res
    if m is Mnemonic.SYSRET:
        res.trap = "sysret"
        return res
    if m is Mnemonic.HLT:
        res.trap = "hlt"
        return res
    if m is Mnemonic.UD2:
        res.trap = "ud2"
        return res
    raise AssertionError(f"unhandled mnemonic {m}")


#: Per-condition flag evaluators for compiled executors.  Must stay in
#: lock-step with :func:`condition_met` (P/NP: parity is not modelled).
_COND_EVAL: dict[Cond, Callable[[Flags], bool]] = {
    Cond.O: lambda f: f.of,
    Cond.NO: lambda f: not f.of,
    Cond.B: lambda f: f.cf,
    Cond.AE: lambda f: not f.cf,
    Cond.E: lambda f: f.zf,
    Cond.NE: lambda f: not f.zf,
    Cond.BE: lambda f: f.cf or f.zf,
    Cond.A: lambda f: not f.cf and not f.zf,
    Cond.S: lambda f: f.sf,
    Cond.NS: lambda f: not f.sf,
    Cond.P: lambda f: False,
    Cond.NP: lambda f: True,
    Cond.L: lambda f: f.sf != f.of,
    Cond.GE: lambda f: f.sf == f.of,
    Cond.LE: lambda f: f.zf or (f.sf != f.of),
    Cond.G: lambda f: not f.zf and (f.sf == f.of),
}

#: ``thunk(state, load, store, rdtsc) -> ExecResult``
ExecutorFn = Callable[
    [ArchState, LoadFn, StoreFn, "Callable[[], int] | None"], ExecResult]

_RAX = int(Reg.RAX)
_RDX = int(Reg.RDX)
_RSP = int(Reg.RSP)


def compile_executor(instr: Instruction, pc: int) -> ExecutorFn:
    """Specialise :func:`execute` for one decoded instruction at *pc*.

    Returns a thunk with the mnemonic dispatch, condition table, operand
    indices and address arithmetic resolved once at compile time.  The
    thunk mutates *state* and calls load/store exactly as ``execute``
    would and returns an equal :class:`ExecResult` — every register,
    flag, memory-access and trap effect is byte-identical, so the fast
    path stays architecturally invisible (pinned by
    ``tests/isa/test_compiled_semantics.py``).  A fresh ``ExecResult``
    is allocated per call: results outlive the next execution of the
    same pc (e.g. a backend-mispredict window re-running it
    transiently), so thunks must never reuse one.
    """
    m = instr.mnemonic
    fall = (pc + instr.length) & MASK64

    if m in (Mnemonic.NOP, Mnemonic.NOPL, Mnemonic.LFENCE, Mnemonic.MFENCE):
        def thunk(state, load, store, rdtsc):
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.JMP, Mnemonic.JMP_SHORT):
        tgt = instr.target(pc)

        def thunk(state, load, store, rdtsc):
            return ExecResult(next_pc=tgt, taken=True, target=tgt)
        return thunk
    if m is Mnemonic.JMP_REG:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            tgt = canonical(state.regs[d])
            return ExecResult(next_pc=tgt, taken=True, target=tgt)
        return thunk
    if m is Mnemonic.JCC:
        tgt = instr.target(pc)
        cond = _COND_EVAL[instr.cc]

        def thunk(state, load, store, rdtsc):
            taken = cond(state.flags)
            return ExecResult(next_pc=tgt if taken else fall,
                              taken=taken, target=tgt)
        return thunk
    if m in (Mnemonic.CALL, Mnemonic.CALL_REG):
        tgt = instr.target(pc) if m is Mnemonic.CALL else None
        d = None if instr.dest is None else int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            rsp = (regs[_RSP] - 8) & MASK64
            regs[_RSP] = rsp
            store(rsp, 8, fall)
            target = tgt if tgt is not None else canonical(regs[d])
            return ExecResult(next_pc=target, taken=True, target=target,
                              accesses=[MemAccess(rsp, 8, True)])
        return thunk
    if m is Mnemonic.RET:
        def thunk(state, load, store, rdtsc):
            regs = state.regs
            rsp = regs[_RSP]
            ret_addr = canonical(load(rsp, 8))
            regs[_RSP] = (rsp + 8) & MASK64
            return ExecResult(next_pc=ret_addr, taken=True, target=ret_addr,
                              accesses=[MemAccess(rsp, 8, False)])
        return thunk
    if m is Mnemonic.MOV_RI:
        d = int(instr.dest)
        value = instr.imm & MASK64

        def thunk(state, load, store, rdtsc):
            state.regs[d] = value
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.MOV_RR:
        d = int(instr.dest)
        s = int(instr.src)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            regs[d] = regs[s]
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.MOV_RM:
        d = int(instr.dest)
        b = int(instr.base)
        disp = instr.disp

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            addr = canonical(regs[b] + disp)
            regs[d] = load(addr, 8) & MASK64
            return ExecResult(next_pc=fall,
                              accesses=[MemAccess(addr, 8, False)])
        return thunk
    if m is Mnemonic.MOVB_RM:
        d = int(instr.dest)
        b = int(instr.base)
        disp = instr.disp

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            addr = canonical(regs[b] + disp)
            regs[d] = load(addr, 1) & 0xFF
            return ExecResult(next_pc=fall,
                              accesses=[MemAccess(addr, 1, False)])
        return thunk
    if m is Mnemonic.MOV_MR:
        s = int(instr.src)
        b = int(instr.base)
        disp = instr.disp

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            addr = canonical(regs[b] + disp)
            store(addr, 8, regs[s])
            return ExecResult(next_pc=fall,
                              accesses=[MemAccess(addr, 8, True)])
        return thunk
    if m is Mnemonic.LEA:
        d = int(instr.dest)
        b = int(instr.base)
        disp = instr.disp

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            regs[d] = canonical(regs[b] + disp)
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.ADD_RI, Mnemonic.ADD_RR):
        d = int(instr.dest)
        imm = None if m is Mnemonic.ADD_RR else instr.imm & MASK64
        s = None if instr.src is None else int(instr.src)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            a = regs[d]
            b = imm if imm is not None else regs[s]
            result = a + b
            _set_add_flags(state.flags, a, b, result)
            regs[d] = result & MASK64
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.SUB_RI, Mnemonic.SUB_RR, Mnemonic.CMP_RI,
             Mnemonic.CMP_RR):
        d = int(instr.dest)
        imm = (None if m in (Mnemonic.SUB_RR, Mnemonic.CMP_RR)
               else instr.imm & MASK64)
        s = None if instr.src is None else int(instr.src)
        writes = m in (Mnemonic.SUB_RI, Mnemonic.SUB_RR)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            a = regs[d]
            b = imm if imm is not None else regs[s]
            result = (a - b) & MASK64
            _set_sub_flags(state.flags, a, b, result)
            if writes:
                regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.TEST_RR:
        d = int(instr.dest)
        s = int(instr.src)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            _set_logic_flags(state.flags, regs[d] & regs[s])
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.INC:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            flags = state.flags
            a = regs[d]
            carry = flags.cf
            _set_add_flags(flags, a, 1, a + 1)
            flags.cf = carry
            regs[d] = (a + 1) & MASK64
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.DEC:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            flags = state.flags
            a = regs[d]
            result = (a - 1) & MASK64
            carry = flags.cf
            _set_sub_flags(flags, a, 1, result)
            flags.cf = carry
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.NEG:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            flags = state.flags
            a = regs[d]
            result = (-a) & MASK64
            _set_sub_flags(flags, 0, a, result)
            flags.cf = a != 0
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.NOT:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            regs[d] = ~regs[d] & MASK64
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.IMUL_RR:
        d = int(instr.dest)
        s = int(instr.src)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            flags = state.flags
            product = _signed(regs[d]) * _signed(regs[s])
            result = product & MASK64
            flags.cf = flags.of = product != _signed(result)
            flags.zf = result == 0
            flags.sf = bool(result >> 63)
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.XCHG_RR:
        d = int(instr.dest)
        s = int(instr.src)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            a = regs[d]
            regs[d] = regs[s]
            regs[s] = a
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.CMOV:
        d = int(instr.dest)
        s = int(instr.src)
        cond = _COND_EVAL[instr.cc]

        def thunk(state, load, store, rdtsc):
            if cond(state.flags):
                regs = state.regs
                regs[d] = regs[s]
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.AND_RI:
        d = int(instr.dest)
        imm = instr.imm & MASK64

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            result = regs[d] & imm
            _set_logic_flags(state.flags, result)
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.XOR_RR, Mnemonic.OR_RR):
        d = int(instr.dest)
        s = int(instr.src)
        is_xor = m is Mnemonic.XOR_RR

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            result = regs[d] ^ regs[s] if is_xor else regs[d] | regs[s]
            _set_logic_flags(state.flags, result)
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.SHL_RI, Mnemonic.SHR_RI):
        d = int(instr.dest)
        shift = instr.imm
        left = m is Mnemonic.SHL_RI

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            result = ((regs[d] << shift) & MASK64 if left
                      else regs[d] >> shift)
            _set_logic_flags(state.flags, result)
            regs[d] = result
            return ExecResult(next_pc=fall)
        return thunk
    if m is Mnemonic.PUSH:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            rsp = (regs[_RSP] - 8) & MASK64
            regs[_RSP] = rsp
            store(rsp, 8, regs[d])
            return ExecResult(next_pc=fall,
                              accesses=[MemAccess(rsp, 8, True)])
        return thunk
    if m is Mnemonic.POP:
        d = int(instr.dest)

        def thunk(state, load, store, rdtsc):
            regs = state.regs
            rsp = regs[_RSP]
            regs[d] = load(rsp, 8) & MASK64
            regs[_RSP] = (rsp + 8) & MASK64
            return ExecResult(next_pc=fall,
                              accesses=[MemAccess(rsp, 8, False)])
        return thunk
    if m is Mnemonic.RDTSC:
        def thunk(state, load, store, rdtsc):
            cycles = rdtsc() if rdtsc is not None else 0
            regs = state.regs
            regs[_RAX] = cycles & 0xFFFFFFFF
            regs[_RDX] = (cycles >> 32) & 0xFFFFFFFF
            return ExecResult(next_pc=fall)
        return thunk
    if m in (Mnemonic.SYSCALL, Mnemonic.SYSRET, Mnemonic.HLT, Mnemonic.UD2):
        trap = {Mnemonic.SYSCALL: "syscall", Mnemonic.SYSRET: "sysret",
                Mnemonic.HLT: "hlt", Mnemonic.UD2: "ud2"}[m]

        def thunk(state, load, store, rdtsc):
            return ExecResult(next_pc=fall, trap=trap)
        return thunk
    raise AssertionError(f"unhandled mnemonic {m}")

