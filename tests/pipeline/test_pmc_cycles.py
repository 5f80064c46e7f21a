"""The ``cycles`` PMC counts core cycles, on both engines.

The paper's attacks read the core the way ``perf`` does: read a
counter, run, read again, subtract.  Sampling ``cycles`` that way over
a §7.1 KASLR probe must give exactly the delta of the core clock that
job manifests total, under the naive and the fast engine alike, and a
campaign manifest's ``pmc.cycles`` must equal its ``totals.cycles``.
"""

import pytest

from repro.core.kaslr_image import break_kernel_image_kaslr
from repro.core.matrix import MatrixExperiment
from repro.fastpath import ENV_VAR
from repro.kernel import Kaslr, MachineSpec
from repro.runner import JobContext, run_campaign


def kaslr_probe_deltas(monkeypatch, fast: bool) -> tuple[int, int]:
    """(``pmc.cycles`` delta, ``totals.cycles`` delta) over one slot."""
    monkeypatch.setenv(ENV_VAR, "1" if fast else "0")
    ctx = JobContext()
    machine = ctx.boot(MachineSpec(uarch="zen 2"))
    assert machine.cpu._fastpath is fast
    slot = machine.kaslr.image_base
    assert slot in Kaslr.image_candidates()
    pmc_before, totals_before = machine.cpu.pmc.read("cycles"), ctx.cycles
    break_kernel_image_kaslr(machine, candidates=[slot])
    return (machine.cpu.pmc.read("cycles") - pmc_before,
            ctx.cycles - totals_before)


def test_kaslr_probe_pmc_cycles_delta_equals_totals_delta(monkeypatch):
    naive = kaslr_probe_deltas(monkeypatch, fast=False)
    fast = kaslr_probe_deltas(monkeypatch, fast=True)
    for pmc_delta, totals_delta in (naive, fast):
        assert pmc_delta == totals_delta > 0
    assert fast == naive


@pytest.mark.parametrize("fast", [False, True], ids=["naive", "fast"])
def test_campaign_manifest_pmc_cycles_equals_totals(monkeypatch, fast):
    monkeypatch.setenv(ENV_VAR, "1" if fast else "0")
    campaign = run_campaign(MatrixExperiment(uarches=("zen 2",)), jobs=1)
    campaign.raise_on_failure()
    manifest = campaign.manifest
    assert manifest["pmc"]["cycles"] == manifest["totals"]["cycles"] > 0
