"""x86-64 subset ISA: instruction model, encoder/decoder, assembler, µops."""

from .assembler import Assembler, Image, Segment
from .decoder import MAX_INSTR_BYTES, decode, decode_cached
from .encoder import NOPL_SEQUENCES, encode, encode_with_length
from .instructions import BranchKind, Cond, Instruction, Mnemonic, Reg
from .semantics import (ArchState, ExecResult, Flags, MemAccess,
                        compile_executor, condition_met, execute)
from .uops import Uop, UopKind, crack, uop_count

__all__ = [
    "Assembler",
    "ArchState",
    "BranchKind",
    "Cond",
    "ExecResult",
    "Flags",
    "Image",
    "Instruction",
    "MAX_INSTR_BYTES",
    "MemAccess",
    "Mnemonic",
    "NOPL_SEQUENCES",
    "Reg",
    "Segment",
    "Uop",
    "UopKind",
    "compile_executor",
    "condition_met",
    "crack",
    "decode",
    "decode_cached",
    "encode",
    "encode_with_length",
    "execute",
    "uop_count",
]
