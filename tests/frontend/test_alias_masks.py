"""BTBIndexing alias-mask solvers (kernel->user and user->user)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import BTBIndexing
from repro.params import VA_MASK
from repro.pipeline import (ALL_MICROARCHES, AMD_MICROARCHES,
                            INTEL_MICROARCHES, ZEN1, ZEN3)

KERNEL = 0xFFFF_FFFF_9234_5AC0 & VA_MASK
USER = 0x0000_5678_9ABC_D040


class TestKernelAliasMask:
    @pytest.mark.parametrize("uarch", AMD_MICROARCHES,
                             ids=lambda u: u.name)
    def test_solved_mask_collides(self, uarch):
        mask = uarch.btb.kernel_alias_mask()
        assert mask >> 47 & 1              # crosses the privilege bit
        assert mask & 0xFFF == 0           # preserves the set index
        alias = (KERNEL ^ mask) & VA_MASK
        assert alias >> 47 == 0            # lands in user space
        assert uarch.btb.collides(KERNEL, alias)

    @pytest.mark.parametrize("uarch", INTEL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_intel_raises(self, uarch):
        with pytest.raises(ValueError):
            uarch.btb.kernel_alias_mask()

    def test_zen1_mask_is_cheap(self):
        """Retbleed-era folding: Zen 1/2 aliases need only 2 bit flips."""
        mask = ZEN1.btb.kernel_alias_mask()
        assert bin(mask).count("1") == 2

    def test_zen3_mask_is_expensive(self):
        """Figure 7: bit 47 is in every function, so the alias must
        repair all of them — many more flips."""
        mask = ZEN3.btb.kernel_alias_mask()
        assert bin(mask).count("1") >= 12


class TestUserAliasMask:
    @pytest.mark.parametrize("uarch", ALL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_user_alias_collides_same_privilege(self, uarch):
        mask = uarch.btb.user_alias_mask()
        assert mask != 0
        assert mask >> 47 == 0
        assert mask & 0xFFF == 0
        alias = (USER ^ mask) & VA_MASK
        assert uarch.btb.collides(USER, alias)

    def test_user_alias_differs_from_kernel_alias(self):
        assert ZEN3.btb.user_alias_mask() != ZEN3.btb.kernel_alias_mask()


@given(st.integers(min_value=0, max_value=(1 << 47) - 1))
@settings(max_examples=100)
def test_user_alias_property(addr):
    """The user alias mask works for *every* user address."""
    idx = ZEN3.btb
    mask = idx.user_alias_mask()
    assert idx.collides(addr, addr ^ mask)


class TestMemoizedMasks:
    """The masks are memoized per ``BTBIndexing``; a cached answer must
    equal a fresh solve (``__wrapped__`` bypasses the cache)."""

    @pytest.mark.parametrize("uarch", ALL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_user_mask_cache_matches_fresh_solve(self, uarch):
        fresh = BTBIndexing.user_alias_mask.__wrapped__(uarch.btb)
        assert uarch.btb.user_alias_mask() == fresh
        assert uarch.btb.user_alias_mask() == fresh

    @pytest.mark.parametrize("uarch", ALL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_kernel_mask_cache_matches_fresh_solve(self, uarch):
        if uarch.btb.privilege_in_tag:
            with pytest.raises(ValueError):
                uarch.btb.kernel_alias_mask()
            return
        fresh = BTBIndexing.kernel_alias_mask.__wrapped__(uarch.btb)
        assert uarch.btb.kernel_alias_mask() == fresh
        assert uarch.btb.kernel_alias_mask() == fresh
