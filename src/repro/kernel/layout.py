"""Kernel text: syscall dispatcher and the paper's victim functions.

The three code snippets the exploits hinge on sit at the exact kernel
image offsets the paper reports:

* ``__task_pid_nr_ns`` prologue (Listing 1) at ``image + 0xf6520`` —
  the ``getpid()`` speculation site;
* the physmap disclosure gadget (Listing 3,
  ``mov r12, [r12+0xbe0]``) at ``image + 0x41da52``;
* ``__fdget_pos`` (Listing 2) at ``image + 0x41db60`` — the ``readv()``
  speculation site (its ``call``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from ..isa import Assembler, Cond, Image, Reg
from .kaslr import MODULES_BASE
from .modules import KernelModules, build_modules

#: Total bytes of the mapped kernel text region (candidate fetch targets
#: anywhere inside the image must be executable).
IMAGE_SIZE = 8 * 1024 * 1024
#: Kernel data (array_length, array, secrets) directly after the text.
DATA_SIZE = 2 * 1024 * 1024

# Paper-reported offsets.
TASK_PID_NR_NS_OFFSET = 0xF6520       # Listing 1
DISCLOSURE_GADGET_OFFSET = 0x41DA52   # Listing 3
FDGET_POS_OFFSET = 0x41DB60           # Listing 2

# Internal layout.
ENTRY_OFFSET = 0x1000
GETPID_HANDLER_OFFSET = 0xF6400
READV_HANDLER_OFFSET = 0x41D900
FDGET_INNER_OFFSET = 0x41DD00

# Syscall numbers (Linux x86-64 where applicable).
SYS_READV = 19
SYS_GETPID = 39
SYS_COVERT = 0x200        # covert-channel module (paper §6.4)
SYS_MDS = 0x201           # MDS-gadget module (paper §7.4)
SYS_REV = 0x202           # nops+ret module (paper §6.2)
SYS_NOISE = 0x203         # branchy filler (workloads)
SYS_BTC = 0x204           # indirect-branch module (Spectre-v2 victim)
SYS_BTC_SAFE = 0x205      # same dispatcher, retpolined

ENOSYS = -38 & ((1 << 64) - 1)


@dataclass(frozen=True)
class KernelLayout:
    """Assembled kernel text plus its symbol table (absolute VAs).

    Read-only: :func:`kernel_images` shares one layout between every
    machine booted at the same image base.
    """

    image: Image
    symbols: Mapping[str, int]
    base: int

    def sym(self, name: str) -> int:
        return self.symbols[name]

    def offset_of(self, name: str) -> int:
        return self.symbols[name] - self.base


def reference_offsets() -> dict[str, int]:
    """Image-relative offsets of every kernel symbol.

    The kernel binary is public: attackers know symbol offsets and only
    the randomized base is secret.  Computed from a reference build.
    """
    base = 0xFFFF_FFFF_8000_0000
    _, layout = kernel_images(base)
    return {name: va - base for name, va in layout.symbols.items()}


@functools.lru_cache(maxsize=64)
def kernel_images(image_base: int) -> tuple[KernelModules, KernelLayout]:
    """The modules and kernel text of a boot at *image_base*.

    Both depend only on *image_base* (kernel data sits right after the
    text), so each distinct base is assembled once per process (the
    last 64 bases are kept, ~9 KB each).  The results are read-only and
    shared: a machine copies their bytes into its own physical memory.
    """
    data_base = image_base + IMAGE_SIZE
    modules = build_modules(MODULES_BASE, data_base)
    layout = build_kernel_text(image_base, modules.symbols, data_base)
    return modules, layout


def build_kernel_text(image_base: int, module_symbols: Mapping[str, int],
                      data_base: int) -> KernelLayout:
    """Assemble the kernel text for a given randomized *image_base*.

    ``module_symbols`` provides the entry points of the loaded kernel
    modules (covert/MDS/rev); ``data_base`` is the kernel data region
    holding ``array_length`` and ``array``.
    """
    image = Image()
    symbols: dict[str, int] = {}

    # --- syscall entry / dispatcher -------------------------------------
    asm = Assembler(image_base + ENTRY_OFFSET)
    asm.label("syscall_entry")
    for nr, label in ((SYS_GETPID, "h_getpid"), (SYS_READV, "h_readv"),
                      (SYS_COVERT, "h_covert"), (SYS_MDS, "h_mds"),
                      (SYS_REV, "h_rev"), (SYS_NOISE, "h_noise"),
                      (SYS_BTC, "h_btc"), (SYS_BTC_SAFE, "h_btc_safe")):
        asm.cmp_ri(Reg.RAX, nr)
        asm.jcc(Cond.E, label)
    asm.mov_ri(Reg.RAX, ENOSYS)
    asm.sysret()

    asm.label("h_getpid")
    asm.call(image_base + TASK_PID_NR_NS_OFFSET)
    asm.sysret()

    asm.label("h_readv")
    # The tooling from previous work found RSI (the 2nd argument)
    # reaches R12 by the time __fdget_pos is called (paper §7.2).
    asm.mov_rr(Reg.R12, Reg.RSI)
    asm.call(image_base + FDGET_POS_OFFSET)
    asm.mov_ri(Reg.RAX, 0)
    asm.sysret()

    asm.label("h_covert")
    asm.call(module_symbols["covert_fn"])
    asm.sysret()

    asm.label("h_mds")
    asm.call(module_symbols["mds_read_data"])
    asm.mov_ri(Reg.RAX, 0)
    asm.sysret()

    asm.label("h_rev")
    asm.call(module_symbols["rev_fn"])
    asm.sysret()

    asm.label("h_noise")
    asm.call(module_symbols["noise_fn"])
    asm.sysret()

    asm.label("h_btc")
    asm.call(module_symbols["btc_fn"])
    asm.sysret()

    asm.label("h_btc_safe")
    asm.call(module_symbols["btc_safe_fn"])
    asm.sysret()

    # Target of RSB stuffing: a fenced pad transient returns die in.
    asm.label("rsb_stuff_pad")
    asm.lfence()
    asm.ret()

    segment, entry_symbols = asm.finish()
    image.add(segment, entry_symbols)
    symbols.update(entry_symbols)

    # --- getpid tail: __task_pid_nr_ns (Listing 1) -----------------------
    asm = Assembler(image_base + TASK_PID_NR_NS_OFFSET)
    asm.label("__task_pid_nr_ns")
    asm.nopl(8)               # Listing 1, line 1: the speculation site
    asm.push(Reg.RBP)         # line 2
    asm.mov_rr(Reg.RBP, Reg.RSP)  # line 3
    asm.mov_ri(Reg.RAX, 1234)
    asm.pop(Reg.RBP)
    asm.ret()
    segment, pid_symbols = asm.finish()
    image.add(segment, pid_symbols)
    symbols.update(pid_symbols)

    # --- disclosure gadget (Listing 3) + __fdget_pos (Listing 2) --------
    asm = Assembler(image_base + DISCLOSURE_GADGET_OFFSET)
    asm.label("physmap_gadget")
    asm.load(Reg.R12, Reg.R12, 0xBE0)   # mov r12, QWORD PTR [r12+0xbe0]
    asm.ret()
    asm.pad_to(image_base + FDGET_POS_OFFSET)
    asm.label("__fdget_pos")
    asm.nopl(8)                          # Listing 2, line 1
    asm.push(Reg.RBP)                    # line 2
    asm.mov_ri(Reg.RSI, 0x4000)          # line 3
    asm.mov_rr(Reg.RBP, Reg.RSP)         # line 4
    asm.sub_ri(Reg.RSP, 8)               # line 5
    asm.label("fdget_call_site")
    asm.call(image_base + FDGET_INNER_OFFSET)   # line 6: speculation site
    asm.add_ri(Reg.RSP, 8)
    asm.pop(Reg.RBP)
    asm.ret()
    asm.pad_to(image_base + FDGET_INNER_OFFSET)
    asm.label("fdget_inner")
    asm.nop()
    asm.ret()
    segment, fdget_symbols = asm.finish()
    image.add(segment, fdget_symbols)
    symbols.update(fdget_symbols)

    return KernelLayout(image=image.frozen(),
                        symbols=MappingProxyType(symbols), base=image_base)
