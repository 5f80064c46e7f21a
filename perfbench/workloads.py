"""The benchmark's four paper workloads.

Each workload is a function of the workload seed that does its input
generation eagerly (that is set-up) and returns the measured part: a
callable that runs the campaign serially (``jobs=1``) under the default
engine, checks every answer against ground truth and returns an
:class:`Outcome`.  See ``README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Callable

from repro import runner
from repro.core import KaslrImageExperiment, PhysmapExperiment, TrainKind, \
    VictimKind
from repro.core.experiment import chunked
from repro.core.matrix import MatrixExperiment
from repro.fuzz import (ContractExperiment, contract_by_name, relational,
                        witness)
from repro.fuzz.program import SECRET_OFFSET, SECRET_SIZE
from repro.kernel import Kaslr, MachineSpec
from repro.pipeline import (ALL_MICROARCHES, INTEL_MICROARCHES, Reach, ZEN1,
                            ZEN2)

#: The shrinker module (``repro.fuzz.shrink`` the attribute is a function).
shrinking = importlib.import_module("repro.fuzz.shrink")

#: µarch of the §7.1 image-KASLR scan (the ``repro kaslr`` default).
KASLR_UARCH = "zen2"
#: µarch of the §7.2 physmap scan (P2 needs a window that executes).
PHYSMAP_UARCH = "zen2"
#: Candidates scanned per physmap run; the window ends at the true slot.
PHYSMAP_WINDOW = 4096
#: Contract, µarches and size of the relational fuzz campaign.
FUZZ_CONTRACT = "no-if-leak"
FUZZ_UARCHES = ("zen2", "zen3")
FUZZ_PAIRS = 8
#: Campaign seed of the fuzzed programs (its first pairs are small, so
#: a run fits several repeats); the workload seed draws the secrets, as
#: the physmap seed draws the slot, not the work.
FUZZ_PROGRAM_SEED = 11


@dataclass
class Outcome:
    """What one measured workload run produced."""

    campaigns: list = field(default_factory=list)
    answers: int = 0
    wrong: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool) -> None:
        """Count one answer; a wrong one is recorded, never dropped."""
        self.answers += 1
        if not ok:
            self.wrong.append(what)

    def campaign(self, experiment):
        """Run *experiment* serially and keep its result."""
        result = runner.run_campaign(experiment, jobs=1)
        self.campaigns.append(result)
        return result


# -- kaslr -------------------------------------------------------------------


def kaslr(seed: int) -> Callable[[], Outcome]:
    """§7.1: scan all 488 image slots of one boot for its base."""
    experiment = KaslrImageExperiment(
        machine=MachineSpec(uarch=KASLR_UARCH, kaslr_seed=seed))
    truth = Kaslr.randomize(seed).image_base

    def run() -> Outcome:
        out = Outcome()
        guessed = out.campaign(experiment).value.guessed_base
        out.check(f"image base {guessed:#x} != {truth:#x}", guessed == truth)
        return out

    return run


# -- physmap -----------------------------------------------------------------


@dataclass(frozen=True)
class PhysmapWindowExperiment(PhysmapExperiment):
    """The §7.2 campaign restricted to candidate slots
    ``[window_start, window_stop)``, chunked like the full scan."""

    window_start: int = 0
    window_stop: int = 0

    def campaign_config(self) -> dict:
        return {**super().campaign_config(),
                "window": [self.window_start, self.window_stop]}

    def job_specs(self) -> list:
        size = self.window_stop - self.window_start
        return [runner.JobSpec.make(
                    self.name, (index,),
                    runner.derive_seed(self.machine.kaslr_seed, (index,)),
                    machine=self.machine, start=self.window_start + lo,
                    stop=self.window_start + hi)
                for index, lo, hi in chunked(size, self.chunk_candidates)]


def physmap_boot_seed(seed: int) -> int:
    """The KASLR seed of the physmap run: *seed* itself when its slot
    leaves room for a full window below it, else the first derived seed
    that does, so every run scans exactly :data:`PHYSMAP_WINDOW`
    candidates."""
    candidate, attempt = seed, 0
    while Kaslr.randomize(candidate).physmap_slot < PHYSMAP_WINDOW - 1:
        attempt += 1
        candidate = runner.derive_seed(seed, ("physmap-window", attempt))
    return candidate


def physmap(seed: int) -> Callable[[], Outcome]:
    """§7.2 P2 scan on Zen 2 with the image base given (kaslr's answer)."""
    boot_seed = physmap_boot_seed(seed)
    truth = Kaslr.randomize(boot_seed)
    stop = truth.physmap_slot + 1
    experiment = PhysmapWindowExperiment(
        machine=MachineSpec(uarch=PHYSMAP_UARCH, kaslr_seed=boot_seed),
        image_base=truth.image_base, window_start=stop - PHYSMAP_WINDOW,
        window_stop=stop)

    def run() -> Outcome:
        out = Outcome()
        guessed = out.campaign(experiment).value.guessed_base
        out.check(f"physmap base {guessed} != {truth.physmap_base:#x}",
                  guessed == truth.physmap_base)
        return out

    return run


# -- matrix ------------------------------------------------------------------


def table1_violations(cell) -> list[str]:
    """Table 1's shape rules for one cell (as the Table 1 benchmark
    asserts them); empty when the cell's reach is right."""
    intel = {u.name for u in INTEL_MICROARCHES}
    reach = cell.reach
    label = (f"{cell.uarch} {cell.train.value}x{cell.victim.value}: "
             f"{reach.name}")
    broken = []
    indirect = cell.victim is VictimKind.INDIRECT
    if not (cell.uarch in intel and indirect) and reach < Reach.DECODE:
        broken.append(f"{label} below ID (O1/O2)")
    jcc_sls = (cell.train is TrainKind.NON_BRANCH
               and cell.victim is VictimKind.CONDITIONAL)
    if cell.uarch in (ZEN1.name, ZEN2.name):
        if reach is not Reach.EXECUTE:
            broken.append(f"{label} not EX on Zen 1/2 (O3)")
    elif not jcc_sls and reach >= Reach.EXECUTE:
        broken.append(f"{label} EX outside Zen 1/2 (O3)")
    if cell.uarch in intel and indirect:
        uarch = next(u for u in INTEL_MICROARCHES if u.name == cell.uarch)
        if reach >= Reach.DECODE or (not uarch.bpu_prefetch
                                     and reach is not Reach.NONE):
            broken.append(f"{label} Intel jmp* victim signal")
    return broken


def matrix(seed: int) -> Callable[[], Outcome]:
    """Table 1 on all eight µarchs: 22 combos x 3 fresh machines each."""
    experiment = MatrixExperiment(
        uarches=tuple(u.name for u in ALL_MICROARCHES), seed=seed)
    expected = len(experiment.job_specs())

    def run() -> Outcome:
        out = Outcome()
        cells = out.campaign(experiment).value
        for cell in cells:
            broken = table1_violations(cell)
            out.check("; ".join(broken), not broken)
        out.wrong.extend(["missing cell"] * (expected - len(cells)))
        out.answers += expected - len(cells)
        return out

    return run


# -- contract-fuzz -----------------------------------------------------------


def secret_pair(program_seed: int, secret_seed: int, index: int):
    """Pair *index*: the program of ``generate_pair`` for the program
    campaign, with public-equivalent secrets drawn from *secret_seed*
    as ``generate_pair`` draws its own, except that every flip of a
    consumed byte includes its top bit.  That bit decides the branch
    gadget's ``cmp 128`` and the index gadget's cache line, so every
    gadget leaks on every seed and all seeds violate on the same pairs;
    with any nonzero flip, some seeds left a leak unobserved and skipped
    its shrink, which took a third off the run time."""
    base = relational.generate_pair(
        relational.pair_seed(program_seed, index))
    rng = random.Random(runner.derive_seed(secret_seed, ("secret", index)))
    secret_a = bytes(rng.randrange(256) for _ in range(SECRET_SIZE))
    flipped = bytearray(secret_a)
    for byte in base.consumed:
        flipped[byte] ^= 0x80 | rng.randrange(128)
    program = base.program.with_(
        data=base.program.data[:SECRET_OFFSET] + secret_a)
    return relational.RelationalPair(program=program, secret_a=secret_a,
                                     secret_b=bytes(flipped))


class _TrackedWorld:
    """A fuzz world seen by :class:`~repro.runner.JobContext` as a
    machine, so the campaign manifest counts its cycles and PMCs."""

    def __init__(self, world) -> None:
        self.cpu = world.cpu

    @property
    def cycles(self) -> int:
        return self.cpu.cycles

    def seconds(self) -> float:
        return self.cpu.cycles / (self.cpu.uarch.clock_ghz * 1e9)


@dataclass(frozen=True)
class SecretSeededContractExperiment(ContractExperiment):
    """:class:`ContractExperiment` over :func:`secret_pair` pairs; every
    fuzz world is booked on the job context like a booted machine."""

    secret_seed: int = 0

    def campaign_config(self) -> dict:
        return {**super().campaign_config(), "secret_seed": self.secret_seed}

    def pair(self, index: int):
        return secret_pair(self.seed, self.secret_seed, index)

    def run_one(self, spec, ctx) -> list[dict]:
        contract, override = self.resolve()
        build_world = relational.build_world

        def tracked_build(*args, **kwargs):
            world = build_world(*args, **kwargs)
            ctx.track(_TrackedWorld(world))
            return world

        relational.build_world = tracked_build
        try:
            rows = []
            for index in range(spec.param("start"), spec.param("stop")):
                verdict = relational.check_pair(self.pair(index), contract,
                                                self.uarches,
                                                mitigation=override)
                rows.append({"index": index, **verdict.to_dict()})
            return rows
        finally:
            relational.build_world = build_world


def contract_fuzz(seed: int) -> Callable[[], Outcome]:
    """``repro fuzz --contract no-if-leak`` on zen2+zen3: check a fixed
    pair count, shrink every violation, then the known-answer gate."""
    experiment = SecretSeededContractExperiment(
        seed=FUZZ_PROGRAM_SEED, count=FUZZ_PAIRS, contract=FUZZ_CONTRACT,
        uarches=FUZZ_UARCHES, secret_seed=seed)
    contract = contract_by_name(FUZZ_CONTRACT)

    def run() -> Outcome:
        out = Outcome()
        violated = out.campaign(experiment).value["violated_indices"]
        for index in violated:
            pair = experiment.pair(index)
            verdict = relational.check_pair(pair, contract, FUZZ_UARCHES)
            out.check(f"pair {index} violation did not replay",
                      not verdict.ok)
            if verdict.ok:
                continue
            shrunk = shrinking.shrink_pair(pair, verdict, uarches=FUZZ_UARCHES)
            again = relational.check_pair(shrunk.pair, contract,
                                          FUZZ_UARCHES)
            out.check(f"pair {index} shrunk to a satisfying pair",
                      not again.ok)
        # Known answers: the paper's listings must still violate the
        # contract, so the fuzzer cannot pass by reporting nothing.
        for listing in witness.LISTINGS:
            known = witness.check_listing(listing, contract, FUZZ_UARCHES)
            out.check(f"{listing} satisfies {FUZZ_CONTRACT}", not known.ok)
        return out

    return run


WORKLOADS: dict[str, Callable[[int], Callable[[], Outcome]]] = {
    "kaslr": kaslr,
    "physmap": physmap,
    "matrix": matrix,
    "contract-fuzz": contract_fuzz,
}

#: Experiment classes whose ``run_one`` is the core layer's entry point.
EXPERIMENTS = (KaslrImageExperiment, PhysmapExperiment, MatrixExperiment,
               ContractExperiment, SecretSeededContractExperiment)
