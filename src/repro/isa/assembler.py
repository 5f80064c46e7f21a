"""Two-pass assembler producing loadable images with symbol tables.

Because every implemented encoding has a displacement-independent
length, layout is finalized in the first pass and label displacements
are patched in the second.  The assembler emits into a single
contiguous region starting at ``base``; multi-region programs combine
several assemblers into one :class:`Image`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from ..errors import AssemblerError
from ..params import MASK64
from .encoder import NOPL_SEQUENCES, encode
from .instructions import Cond, Instruction, Mnemonic, Reg

Target = "str | int"


@dataclass(frozen=True)
class Segment:
    """A contiguous span of bytes at a fixed virtual address."""

    base: int
    data: bytes

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, va: int) -> bool:
        return self.base <= va < self.end


@dataclass
class Image:
    """A set of non-overlapping segments plus a symbol table."""

    segments: list[Segment] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)

    def add(self, segment: Segment, symbols: dict[str, int] | None = None) -> None:
        for existing in self.segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise AssemblerError(
                    f"segment [{segment.base:#x},{segment.end:#x}) overlaps "
                    f"[{existing.base:#x},{existing.end:#x})")
        self.segments.append(segment)
        if symbols:
            clash = set(symbols) & set(self.symbols)
            if clash:
                raise AssemblerError(f"duplicate symbols: {sorted(clash)}")
            self.symbols.update(symbols)

    def merge(self, other: "Image") -> None:
        for segment in other.segments:
            self.add(segment)
        clash = set(other.symbols) & set(self.symbols)
        if clash:
            raise AssemblerError(f"duplicate symbols: {sorted(clash)}")
        self.symbols.update(other.symbols)

    def frozen(self) -> "Image":
        """A read-only copy: a segment tuple and a symbol-table proxy,
        so ``add``/``merge`` on it raise."""
        return Image(segments=tuple(self.segments),
                     symbols=MappingProxyType(dict(self.symbols)))

    def read(self, va: int, size: int) -> bytes:
        """Read *size* bytes at *va*; gaps are an error."""
        for segment in self.segments:
            if segment.contains(va):
                off = va - segment.base
                if off + size > len(segment.data):
                    raise AssemblerError(f"read beyond segment at {va:#x}")
                return segment.data[off:off + size]
        raise AssemblerError(f"no segment maps {va:#x}")


@dataclass
class _Fixup:
    index: int          # instruction index in self._items
    pc: int             # address of the instruction
    label: str
    short: bool = False


class Assembler:
    """Sequential emitter for one segment.

    Usage::

        asm = Assembler(0x400000)
        asm.label("loop")
        asm.nop()
        asm.jmp("loop")
        segment, symbols = asm.finish()
    """

    def __init__(self, base: int) -> None:
        self.base = base
        self._pc = base
        self._items: list[bytes] = []
        self._fixups: list[_Fixup] = []
        self._symbols: dict[str, int] = {}

    # -- layout ----------------------------------------------------------

    @property
    def pc(self) -> int:
        """Address of the next emitted byte."""
        return self._pc

    def label(self, name: str) -> int:
        if name in self._symbols:
            raise AssemblerError(f"duplicate label {name!r}")
        self._symbols[name] = self._pc
        return self._pc

    def pad_to(self, va: int, fill: int = 0x90) -> None:
        """Advance to *va*, filling with *fill* bytes (default: nop)."""
        if va < self._pc:
            raise AssemblerError(
                f"pad_to {va:#x} is behind current pc {self._pc:#x}")
        self._raw(bytes([fill]) * (va - self._pc))

    def align(self, alignment: int, fill: int = 0x90) -> None:
        rem = self._pc % alignment
        if rem:
            self._raw(bytes([fill]) * (alignment - rem))

    def _raw(self, data: bytes) -> None:
        self._items.append(data)
        self._pc += len(data)

    def raw(self, data: bytes) -> None:
        """Emit raw bytes (e.g. data constants inside a code region)."""
        self._raw(data)

    def _emit(self, instr: Instruction) -> int:
        pc = self._pc
        self._raw(encode(instr))
        return pc

    def emit(self, instr: Instruction) -> int:
        """Emit an already-constructed :class:`Instruction` verbatim.

        Branch displacements are taken as-is (no label resolution);
        used by the binary rewriter when re-emitting lifted code.
        """
        return self._emit(instr)

    def _emit_branch(self, mnemonic: Mnemonic, target: "str | int",
                     cc: Cond | None = None) -> int:
        short = mnemonic is Mnemonic.JMP_SHORT
        if isinstance(target, str):
            instr = Instruction(mnemonic, cc=cc, disp=0)
            pc = self._pc
            index = len(self._items)
            self._emit(instr)
            self._fixups.append(_Fixup(index, pc, target, short))
            return pc
        instr_len = len(encode(Instruction(mnemonic, cc=cc, disp=0)))
        disp = (target - (self._pc + instr_len))
        disp = ((disp + (1 << 63)) & MASK64) - (1 << 63)  # wrap to signed
        return self._emit(Instruction(mnemonic, cc=cc, disp=disp))

    # -- instructions ------------------------------------------------------

    def nop(self) -> int:
        return self._emit(Instruction(Mnemonic.NOP))

    def nopl(self, length: int = 8) -> int:
        if length not in NOPL_SEQUENCES:
            raise AssemblerError(f"no canonical nop of length {length}")
        return self._emit(Instruction(Mnemonic.NOPL, imm=length))

    def nop_sled(self, byte_count: int) -> int:
        """Emit *byte_count* bytes of single-byte nops."""
        pc = self._pc
        self._raw(b"\x90" * byte_count)
        return pc

    def jmp(self, target: "str | int") -> int:
        return self._emit_branch(Mnemonic.JMP, target)

    def jmp_short(self, target: "str | int") -> int:
        return self._emit_branch(Mnemonic.JMP_SHORT, target)

    def jmp_reg(self, reg: Reg) -> int:
        return self._emit(Instruction(Mnemonic.JMP_REG, dest=reg))

    def jcc(self, cc: Cond, target: "str | int") -> int:
        return self._emit_branch(Mnemonic.JCC, target, cc=cc)

    def call(self, target: "str | int") -> int:
        return self._emit_branch(Mnemonic.CALL, target)

    def call_reg(self, reg: Reg) -> int:
        return self._emit(Instruction(Mnemonic.CALL_REG, dest=reg))

    def ret(self) -> int:
        return self._emit(Instruction(Mnemonic.RET))

    def mov_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.MOV_RI, dest=dest,
                                      imm=imm & MASK64))

    def mov_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.MOV_RR, dest=dest, src=src))

    def load(self, dest: Reg, base: Reg, disp: int = 0) -> int:
        return self._emit(Instruction(Mnemonic.MOV_RM, dest=dest, base=base,
                                      disp=disp))

    def loadb(self, dest: Reg, base: Reg, disp: int = 0) -> int:
        return self._emit(Instruction(Mnemonic.MOVB_RM, dest=dest, base=base,
                                      disp=disp))

    def store(self, base: Reg, disp: int, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.MOV_MR, src=src, base=base,
                                      disp=disp))

    def lea(self, dest: Reg, base: Reg, disp: int = 0) -> int:
        return self._emit(Instruction(Mnemonic.LEA, dest=dest, base=base,
                                      disp=disp))

    def add_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.ADD_RI, dest=dest, imm=imm))

    def add_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.ADD_RR, dest=dest, src=src))

    def sub_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.SUB_RI, dest=dest, imm=imm))

    def sub_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.SUB_RR, dest=dest, src=src))

    def and_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.AND_RI, dest=dest, imm=imm))

    def xor_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.XOR_RR, dest=dest, src=src))

    def or_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.OR_RR, dest=dest, src=src))

    def shl_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.SHL_RI, dest=dest, imm=imm))

    def shr_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.SHR_RI, dest=dest, imm=imm))

    def cmp_ri(self, dest: Reg, imm: int) -> int:
        return self._emit(Instruction(Mnemonic.CMP_RI, dest=dest, imm=imm))

    def cmp_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.CMP_RR, dest=dest, src=src))

    def test_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.TEST_RR, dest=dest, src=src))

    def inc(self, dest: Reg) -> int:
        return self._emit(Instruction(Mnemonic.INC, dest=dest))

    def dec(self, dest: Reg) -> int:
        return self._emit(Instruction(Mnemonic.DEC, dest=dest))

    def neg(self, dest: Reg) -> int:
        return self._emit(Instruction(Mnemonic.NEG, dest=dest))

    def not_(self, dest: Reg) -> int:
        return self._emit(Instruction(Mnemonic.NOT, dest=dest))

    def imul_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.IMUL_RR, dest=dest, src=src))

    def xchg_rr(self, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.XCHG_RR, dest=dest, src=src))

    def cmov(self, cc: Cond, dest: Reg, src: Reg) -> int:
        return self._emit(Instruction(Mnemonic.CMOV, cc=cc, dest=dest,
                                      src=src))

    def push(self, reg: Reg) -> int:
        return self._emit(Instruction(Mnemonic.PUSH, dest=reg))

    def pop(self, reg: Reg) -> int:
        return self._emit(Instruction(Mnemonic.POP, dest=reg))

    def lfence(self) -> int:
        return self._emit(Instruction(Mnemonic.LFENCE))

    def mfence(self) -> int:
        return self._emit(Instruction(Mnemonic.MFENCE))

    def syscall(self) -> int:
        return self._emit(Instruction(Mnemonic.SYSCALL))

    def sysret(self) -> int:
        return self._emit(Instruction(Mnemonic.SYSRET))

    def rdtsc(self) -> int:
        return self._emit(Instruction(Mnemonic.RDTSC))

    def hlt(self) -> int:
        return self._emit(Instruction(Mnemonic.HLT))

    def ud2(self) -> int:
        return self._emit(Instruction(Mnemonic.UD2))

    # -- output ------------------------------------------------------------

    def finish(self) -> tuple[Segment, dict[str, int]]:
        """Resolve fixups and return ``(segment, symbols)``."""
        for fixup in self._fixups:
            if fixup.label not in self._symbols:
                raise AssemblerError(f"undefined label {fixup.label!r}")
            target = self._symbols[fixup.label]
            item = self._items[fixup.index]
            disp = target - (fixup.pc + len(item))
            mnemonic = Mnemonic.JMP_SHORT if fixup.short else None
            patched = self._patch(item, disp)
            self._items[fixup.index] = patched
        return (Segment(self.base, b"".join(self._items)),
                dict(self._symbols))

    @staticmethod
    def _patch(encoded: bytes, disp: int) -> bytes:
        """Re-encode the displacement field of an already-laid-out branch."""
        import struct

        if encoded[0] == 0xEB:  # jmp short rel8
            if not -128 <= disp <= 127:
                raise AssemblerError(f"short jump displacement {disp} too far")
            return bytes([0xEB]) + struct.pack("<b", disp)
        if encoded[0] in (0xE9, 0xE8):  # jmp/call rel32
            return bytes([encoded[0]]) + struct.pack("<i", disp)
        if encoded[0] == 0x0F and 0x80 <= encoded[1] <= 0x8F:  # jcc rel32
            return encoded[:2] + struct.pack("<i", disp)
        raise AssemblerError(f"cannot patch {encoded.hex()}")

    def image(self) -> Image:
        """Finish and wrap the single segment in an :class:`Image`."""
        segment, symbols = self.finish()
        image = Image()
        image.add(segment, symbols)
        return image
