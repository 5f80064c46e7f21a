"""GF(2) linear algebra: row reduction, complements, minimal bases."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.revtools import gf2


class TestParity:
    def test_parity(self):
        assert gf2.parity(0) == 0
        assert gf2.parity(1) == 1
        assert gf2.parity(0b1011) == 1
        assert gf2.parity(0b1111) == 0

    @given(st.integers(-(2**70), 2**70))
    @settings(max_examples=300, deadline=None)
    def test_bit_count_forms_agree(self, x):
        """``int.bit_count`` counts the bits of ``abs(x)``, exactly as
        the ``bin(x).count("1")`` form it replaced, negatives included."""
        assert gf2.popcount(x) == bin(x).count("1")
        assert gf2.parity(x) == bin(x).count("1") & 1

    def test_apply_mask(self):
        # f = b47 ^ b35 ^ b23 (Figure 7's f0)
        mask = (1 << 47) | (1 << 35) | (1 << 23)
        assert gf2.apply_mask(mask, 1 << 47) == 1
        assert gf2.apply_mask(mask, (1 << 47) | (1 << 35)) == 0


class TestRowReduce:
    def test_removes_dependent_rows(self):
        rows = [0b110, 0b011, 0b101]  # third = first ^ second
        assert len(gf2.row_reduce(rows)) == 2

    def test_rank(self):
        assert gf2.rank([0b1, 0b10, 0b100]) == 3
        assert gf2.rank([0b11, 0b11]) == 1
        assert gf2.rank([0]) == 0

    def test_in_span(self):
        basis = gf2.row_reduce([0b110, 0b011])
        assert gf2.in_span(0b101, basis)
        assert gf2.in_span(0, basis)
        assert not gf2.in_span(0b1000, basis)


class TestComplement:
    def test_simple(self):
        # Vectors spanning {b0, b1} in width 3 -> complement is {b2}.
        comp = gf2.orthogonal_complement([0b001, 0b010], 3)
        assert comp == [0b100]

    def test_mixed(self):
        # span{b0^b1} in width 2 -> complement {b0^b1} itself.
        comp = gf2.orthogonal_complement([0b11], 2)
        assert gf2.row_reduce(comp) == [0b11]

    def test_dimension_theorem(self):
        rng = random.Random(1)
        width = 20
        vectors = [rng.getrandbits(width) for _ in range(8)]
        r = gf2.rank(vectors)
        comp = gf2.orthogonal_complement(vectors, width)
        assert len(comp) == width - r

    def test_every_complement_vector_annihilates(self):
        rng = random.Random(2)
        width = 32
        vectors = [rng.getrandbits(width) for _ in range(10)]
        comp = gf2.orthogonal_complement(vectors, width)
        for mask in comp:
            for v in vectors:
                assert gf2.parity(mask & v) == 0


class TestMinimalWeightBasis:
    def test_prefers_sparse_combination(self):
        # basis {b0^b1^b2, b1^b2} spans the same space as {b0, b1^b2};
        # the minimal-weight basis must find the single-bit function.
        basis = [0b111, 0b110]
        minimal = gf2.minimal_weight_basis(basis)
        assert 0b001 in minimal
        assert gf2.row_reduce(minimal) == gf2.row_reduce(basis)

    def test_max_weight_bound(self):
        basis = [0b11110000, 0b00001111]
        minimal = gf2.minimal_weight_basis(basis, max_weight=3)
        assert minimal == []  # nothing of weight <= 3 exists in the span

    def test_preserves_rank_when_unbounded(self):
        rng = random.Random(3)
        basis = gf2.row_reduce(rng.getrandbits(16) for _ in range(6))
        minimal = gf2.minimal_weight_basis(basis)
        assert gf2.rank(minimal) == len(basis)


class TestFormatting:
    def test_format_function(self):
        mask = (1 << 47) | (1 << 35) | (1 << 23)
        assert gf2.format_function(mask) == "b47 ^ b35 ^ b23"

    def test_mask_to_bits(self):
        assert gf2.mask_to_bits(0b1010) == [1, 3]


@given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                min_size=1, max_size=30))
@settings(max_examples=100)
def test_complement_dimension_property(vectors):
    width = 24
    comp = gf2.orthogonal_complement(vectors, width)
    assert len(comp) == width - gf2.rank(vectors)
    for mask in comp:
        for v in vectors:
            assert gf2.parity(mask & v) == 0


@given(st.lists(st.integers(min_value=1, max_value=(1 << 16) - 1),
                min_size=1, max_size=8))
@settings(max_examples=100)
def test_minimal_basis_spans_same_space(vectors):
    basis = gf2.row_reduce(vectors)
    minimal = gf2.minimal_weight_basis(basis)
    assert gf2.row_reduce(minimal) == basis
