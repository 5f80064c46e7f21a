"""Simulator throughput benchmarks: simulated instructions per second.

Unlike everything else in :mod:`repro`, this module measures *host*
performance — how fast the simulator itself retires simulated
instructions — for the two execution engines (the naive interpreter and
the fast path, see :mod:`repro.fastpath`).  Three workloads cover the
simulator's main cost regimes:

* ``straight_line`` — unrolled arithmetic with one predictable loop
  branch: the decode/execute steady state, no speculation machinery.
* ``branch_heavy``  — a xorshift-fed data-dependent branch per
  iteration: constant BTB training, mispredicts and backend Spectre
  windows, the regime the experiments actually live in.
* ``syscall``       — user/kernel round trips on a booted
  :class:`~repro.kernel.Machine`: privilege transitions, IBPB/fence
  mitigation work and kernel-text execution.

Results are written as a ``phantom.bench/1`` document.  Regression
comparison is done on the fast/slow *speedup ratio*, not absolute IPS:
the ratio divides out host speed, so a baseline committed from one
machine remains meaningful on any other (CI runners included).  Quick
and full runs amortize compilation over different iteration counts, so
their ratios are only compared with a baseline of the same mode.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass

from .errors import HaltRequested
from .fastpath import ENV_VAR
from .isa import Assembler, Cond, Reg
from .memory import MemorySystem
from .params import PAGE_SIZE
from .pipeline import CPU, ZEN2

BENCH_SCHEMA = "phantom.bench/1"

#: Workload names in report order.
WORKLOADS = ("straight_line", "branch_heavy", "syscall")

#: Iteration counts: (full, quick).  Sized so a full run finishes in a
#: couple of minutes on a laptop and ``--quick`` fits a CI smoke job.
_SIZES = {
    "straight_line": (10_000, 1_500),
    "branch_heavy": (20_000, 3_000),
    # Round trips are cheap but individually tiny; anything under a few
    # hundred milliseconds of wall time measures the OS scheduler, not
    # the simulator.
    "syscall": (2_000, 300),
}

_CODE = 0x0000_0010_0000
_STACK = 0x0000_7FF0_0000


@dataclass
class WorkloadResult:
    """One workload measured under both engines."""

    name: str
    iterations: int
    instructions: int          # simulated instructions per engine run
    slow_seconds: float
    fast_seconds: float

    @property
    def slow_ips(self) -> float:
        return self.instructions / self.slow_seconds

    @property
    def fast_ips(self) -> float:
        return self.instructions / self.fast_seconds

    @property
    def speedup(self) -> float:
        return self.slow_seconds / self.fast_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "iterations": self.iterations,
            "instructions": self.instructions,
            "slow_seconds": round(self.slow_seconds, 4),
            "fast_seconds": round(self.fast_seconds, 4),
            "slow_ips": round(self.slow_ips, 1),
            "fast_ips": round(self.fast_ips, 1),
            "speedup": round(self.speedup, 3),
        }


# -- workload programs --------------------------------------------------------

def _straight_line(iters: int) -> Assembler:
    """Unrolled integer arithmetic; one predictable backward branch."""
    asm = Assembler(_CODE)
    asm.mov_ri(Reg.RAX, 1)
    asm.mov_ri(Reg.RBX, 3)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    for _ in range(16):
        asm.add_rr(Reg.RAX, Reg.RBX)
        asm.xor_rr(Reg.RBX, Reg.RAX)
        asm.add_ri(Reg.RAX, 7)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


def _branch_heavy(iters: int) -> Assembler:
    """A data-dependent branch per iteration, fed by xorshift64.

    The branch resolves on pseudo-random state, so the conditional
    predictor mispredicts at a steady rate and every mispredict opens a
    backend Spectre window — the simulator's most expensive steady
    state, and the regime the paper's experiments exercise.
    """
    asm = Assembler(_CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RBX, 0)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 13)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shr_ri(Reg.RDX, 7)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 17)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.and_ri(Reg.RDX, 1)
    asm.cmp_ri(Reg.RDX, 0)
    asm.jcc(Cond.E, "skip")
    asm.add_ri(Reg.RBX, 1)
    asm.label("skip")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


def _run_program(builder, iters: int,
                 fastpath: bool) -> tuple[int, float]:
    """Run one user-mode program to HLT; (instrs, wall)."""
    mem = MemorySystem(256 << 20, fastpath=fastpath)
    cpu = CPU(ZEN2, mem, fastpath=fastpath)
    mem.map_anonymous(_STACK - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                      user=True, nx=True)
    cpu.state.write(Reg.RSP, _STACK)
    mem.load_image(builder(iters).image(), user=True)
    start = time.perf_counter()
    try:
        cpu.run(_CODE, max_instructions=1_000_000_000)
    except HaltRequested:
        pass
    wall = time.perf_counter() - start
    return cpu.pmc.read("instructions"), wall


def _run_syscalls(iters: int,
                  fastpath: bool) -> tuple[int, float]:
    """getpid round trips on a booted machine; (instrs, wall).

    The engine is selected through the environment toggle the escape
    hatch documents (a :class:`Machine` boots its own memory system),
    restored afterwards.
    """
    from .kernel import Machine
    from .pipeline import by_name

    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "1" if fastpath else "0"
    try:
        machine = Machine(by_name("zen 2"), kaslr_seed=0)
    finally:
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved
    machine.syscall(39)          # warm caches and predictors
    base = machine.cpu.pmc.read("instructions")
    start = time.perf_counter()
    for _ in range(iters):
        machine.syscall(39)
    wall = time.perf_counter() - start
    return machine.cpu.pmc.read("instructions") - base, wall


#: Repetitions per engine measurement; the best (minimum) wall wins.
#: Simulated work is deterministic, so the fastest repeat is the one
#: least disturbed by the host — the ratio of two minima is far more
#: stable than the ratio of two single samples on a shared machine.
_REPEATS = 3


def _best_of(run, *args) -> tuple[int, float]:
    best = None
    for _ in range(_REPEATS):
        sample = run(*args)
        if best is None or sample[1] < best[1]:
            best = sample
    return best


def measure(name: str, *, quick: bool = False) -> WorkloadResult:
    """Measure one workload under both engines (best of ``_REPEATS``)."""
    full, small = _SIZES[name]
    iters = small if quick else full
    if name == "syscall":
        slow_instrs, slow_wall = _best_of(_run_syscalls, iters, False)
        fast_instrs, fast_wall = _best_of(_run_syscalls, iters, True)
    else:
        builder = _straight_line if name == "straight_line" \
            else _branch_heavy
        slow_instrs, slow_wall = _best_of(_run_program, builder, iters,
                                          False)
        fast_instrs, fast_wall = _best_of(_run_program, builder, iters,
                                          True)
    if slow_instrs != fast_instrs:
        raise AssertionError(
            f"{name}: engines retired different instruction counts "
            f"({slow_instrs} slow vs {fast_instrs} fast) — the fast "
            f"path diverged architecturally")
    return WorkloadResult(name=name, iterations=iters,
                          instructions=slow_instrs,
                          slow_seconds=slow_wall, fast_seconds=fast_wall)


def run_bench(*, quick: bool = False,
              workloads=WORKLOADS) -> list[WorkloadResult]:
    return [measure(name, quick=quick) for name in workloads]


# -- document / comparison ----------------------------------------------------

def document(results: list[WorkloadResult], *, quick: bool = False) -> dict:
    """Build the ``phantom.bench/1`` document for *results*."""
    return {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workloads": [r.to_dict() for r in results],
    }


def compare(doc: dict, baseline: dict, *,
            tolerance: float = 0.3) -> list[str]:
    """Regressions of *doc* against *baseline*; empty when clean.

    Compares the fast/slow speedup per workload — absolute IPS depends
    on the host, the ratio does not — and flags any workload whose
    ratio fell more than *tolerance* below the baseline's.  A baseline
    of the other mode (quick vs full) is rejected like a foreign schema:
    quick runs amortize compilation over fewer iterations, so their
    ratios are systematically lower.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"baseline is not a {BENCH_SCHEMA} document "
            f"(schema={baseline.get('schema')!r})")
    if doc.get("quick") != baseline.get("quick"):
        raise ValueError(
            f"baseline quick={baseline.get('quick')!r} does not match "
            f"this run's quick={doc.get('quick')!r}")
    base = {w["name"]: w for w in baseline.get("workloads", [])}
    problems = []
    for entry in doc["workloads"]:
        ref = base.get(entry["name"])
        if ref is None:
            continue
        floor = ref["speedup"] * (1.0 - tolerance)
        if entry["speedup"] < floor:
            problems.append(
                f"{entry['name']}: speedup {entry['speedup']:.2f}x fell "
                f"below {floor:.2f}x (baseline {ref['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)")
    return problems


def format_table(results: list[WorkloadResult]) -> str:
    lines = [f"{'workload':16s} {'instrs':>10s} {'slow ips':>10s} "
             f"{'fast ips':>10s} {'speedup':>8s}"]
    for r in results:
        lines.append(f"{r.name:16s} {r.instructions:10,d} "
                     f"{r.slow_ips:10,.0f} {r.fast_ips:10,.0f} "
                     f"{r.speedup:7.2f}x")
    return "\n".join(lines)


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_bench_document(doc: dict) -> bool:
    return isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA


def summarize_bench(doc: dict) -> str:
    """Human-readable summary of one ``phantom.bench/1`` document."""
    host = doc.get("host", {})
    lines = [
        f"bench document ({'quick' if doc.get('quick') else 'full'}) "
        f"created {doc.get('created', '?')}",
        f"host: {host.get('implementation', '?')} "
        f"{host.get('python', '?')} on {host.get('machine', '?')}",
        "",
    ]
    for entry in doc.get("workloads", []):
        lines.append(
            f"{entry['name']:16s} {entry['instructions']:10,d} instrs  "
            f"{entry['slow_ips']:10,.0f} slow ips  "
            f"{entry['fast_ips']:10,.0f} fast ips  "
            f"{entry['speedup']:6.2f}x")
    return "\n".join(lines)


def diff_bench(a: dict, b: dict) -> str:
    """Workload-by-workload comparison of two bench documents."""
    left = {w["name"]: w for w in a.get("workloads", [])}
    right = {w["name"]: w for w in b.get("workloads", [])}
    lines = [f"{'workload':16s} {'speedup A':>10s} {'speedup B':>10s} "
             f"{'delta':>8s}"]
    for name in dict.fromkeys([*left, *right]):
        wa, wb = left.get(name), right.get(name)
        if wa is None or wb is None:
            lines.append(f"{name:16s} only in "
                         f"{'B' if wa is None else 'A'}")
            continue
        delta = wb["speedup"] - wa["speedup"]
        lines.append(f"{name:16s} {wa['speedup']:9.2f}x {wb['speedup']:9.2f}x "
                     f"{delta:+7.2f}x")
    return "\n".join(lines)
