"""Boot identity: a booted machine's state is pinned bit for bit.

``tests/data/boot_digests.json`` holds, per spec, a sha256 over the
secret, the kernel text and module bytes read back from physical
memory, both symbol tables and ``machine.rng.getstate()`` after boot.
Any change to how a machine is built (secret draw, image assembly,
memory layout) must leave these digests unchanged.

Regenerate (only when boot is *meant* to change)::

    PYTHONPATH=src python tests/kernel/test_boot_identity.py
"""

from __future__ import annotations

import hashlib
import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from repro.isa import Segment
from repro.kernel import MachineSpec
from repro.kernel.machine import draw_secret

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "boot_digests.json"

#: (uarch, kaslr_seed, rng_seed) — one AMD and one Intel part, two seed
#: pairs each.
SPECS = (
    ("zen2", 0, 0),
    ("zen2", 11, 7919),
    ("Intel 9th gen", 0, 0),
    ("Intel 9th gen", 11, 7919),
)


def _spec_id(spec: tuple) -> str:
    uarch, kaslr_seed, rng_seed = spec
    return f"{uarch}/kaslr={kaslr_seed}/rng={rng_seed}"


def _symbol_table(symbols) -> bytes:
    """Symbols as sorted ``(name, va)`` pairs.  Retpoline labels carry a
    process-wide counter (``__retpoline_load_7``), so their names depend
    on what the process assembled before; their addresses do not."""
    return json.dumps(sorted(
        (re.sub(r"^(__retpoline_[a-z]+)_\d+$", r"\1", name), va)
        for name, va in symbols.items())).encode()


def boot_digest(uarch: str, kaslr_seed: int, rng_seed: int) -> str:
    machine = MachineSpec(uarch=uarch, kaslr_seed=kaslr_seed,
                          rng_seed=rng_seed).boot()
    h = hashlib.sha256()
    h.update(machine.secret_bytes())
    h.update(machine.mem.phys.read(
        machine.mem.aspace.translate_noperm(machine.secret_va),
        len(machine.secret_bytes())))
    for layout in (machine.kernel, machine.modules):
        for segment in layout.image.segments:
            pa = machine.mem.aspace.translate_noperm(segment.base)
            h.update(segment.base.to_bytes(8, "little"))
            h.update(machine.mem.phys.read(pa, len(segment.data)))
        h.update(_symbol_table(layout.symbols))
    h.update(repr(machine.rng.getstate()).encode())
    return h.hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_boot_matches_golden_digest(spec):
    assert boot_digest(*spec) == _golden()[_spec_id(spec)]


def test_golden_covers_every_spec():
    assert set(_golden()) == {_spec_id(spec) for spec in SPECS}


class TestSharedKernelImages:
    """Machines at one image base share one read-only layout; writes go
    to each machine's own physical memory."""

    def test_same_base_shares_one_layout(self):
        a = MachineSpec(uarch="zen2", kaslr_seed=5).boot()
        b = MachineSpec(uarch="zen3", kaslr_seed=5, rng_seed=1).boot()
        assert a.kernel is b.kernel and a.modules is b.modules

    @pytest.mark.parametrize("which", ("kernel", "modules"))
    def test_shared_layout_rejects_mutation(self, which):
        layout = getattr(MachineSpec(uarch="zen2").boot(), which)
        with pytest.raises(TypeError):
            layout.symbols["injected"] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.base = 0
        with pytest.raises(AttributeError):
            layout.image.add(Segment(base=0x1000, data=b"\x90"))
        with pytest.raises(TypeError):
            layout.image.symbols["injected"] = 0

    def test_kernel_text_write_stays_in_one_machine(self):
        spec = MachineSpec(uarch="zen2", kaslr_seed=3)
        victim = spec.boot()
        entry = victim.kernel.sym("syscall_entry")
        original = victim.mem.phys.read(
            victim.mem.aspace.translate_noperm(entry), 16)
        victim.mem.phys.write(victim.mem.aspace.translate_noperm(entry),
                              b"\xcc" * 16)
        victim.cpu.invalidate_code(entry, entry + 16)

        other = spec.boot()
        assert other.mem.phys.read(
            other.mem.aspace.translate_noperm(entry), 16) == original
        assert other.kernel.image.read(entry, 16) == original


class TestSecretDraw:
    """``draw_secret(rng, n)`` is ``bytes(rng.randrange(256) ...)``:
    same bytes and the same generator state afterwards."""

    @staticmethod
    def _reference(rng: random.Random, n: int) -> bytes:
        return bytes(rng.randrange(256) for _ in range(n))

    def _check(self, state, n: int) -> None:
        fast, slow = random.Random(), random.Random()
        fast.setstate(state)
        slow.setstate(state)
        assert draw_secret(fast, n) == self._reference(slow, n)
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("n", (0, 1, 4096))
    def test_matches_randrange_over_seeds(self, n):
        for seed in range(200):
            self._check(random.Random(seed).getstate(), n)

    @pytest.mark.parametrize("n", (0, 1, 7, 4096))
    def test_matches_randrange_from_advanced_states(self, n):
        for seed in range(20):
            rng = random.Random(seed)
            # Leave the generator mid-block and with odd-width draws
            # behind it, as the boot does after cache/CPU construction.
            for _ in range(seed * 37):
                rng.getrandbits(1 + seed % 40)
            rng.random()
            self._check(rng.getstate(), n)

    def test_matches_after_gauss_state(self):
        rng = random.Random(3)
        rng.gauss(0.0, 1.0)          # leaves gauss_next in the state
        self._check(rng.getstate(), 4096)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_spec_id(spec): boot_digest(*spec) for spec in SPECS},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
