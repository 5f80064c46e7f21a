"""Sparse cache sets vs a dense reference model.

:class:`repro.memory.Cache` keeps its sets in a dict filled on first
use, each set a dict from line address to last-use tick.
``DenseCache`` below is the earlier dense list-of-ways model, kept
here only as a reference: random operation sequences must give the
same return values, statistics and per-set residue on both, for 64-
and 32-byte lines, and :meth:`Cache.occupied_sets` must equal a walk
over every dense set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, Replacement
from repro.memory.cache import CacheStats

LINE = 64
SIZE = 1024          # 4 sets x 4 ways
WAYS = 4


@dataclass
class _Way:
    line: int
    last_used: int


class DenseCache:
    """Reference model: one list per set, allocated up front."""

    def __init__(self, size: int, ways: int, replacement: Replacement,
                 rng: random.Random, line: int = LINE) -> None:
        self.ways = ways
        self.line = line
        self.num_sets = size // (ways * line)
        self.replacement = replacement
        self._rng = rng
        self._sets: list[list[_Way]] = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CacheStats()

    def _set(self, addr: int) -> list[_Way]:
        return self._sets[(addr // self.line) % self.num_sets]

    def lookup(self, addr: int) -> bool:
        line = addr & ~(self.line - 1)
        return any(w.line == line for w in self._set(addr))

    def access(self, addr: int) -> tuple[bool, int | None]:
        self._tick += 1
        line = addr & ~(self.line - 1)
        ways = self._set(addr)
        for way in ways:
            if way.line == line:
                way.last_used = self._tick
                self.stats.hits += 1
                return True, None
        self.stats.misses += 1
        evicted = None
        if len(ways) >= self.ways:
            if self.replacement is Replacement.LRU:
                victim = min(range(len(ways)),
                             key=lambda i: ways[i].last_used)
            else:
                victim = self._rng.randrange(len(ways))
            evicted = ways.pop(victim).line
            self.stats.evictions += 1
        ways.append(_Way(line=line, last_used=self._tick))
        return False, evicted

    def fill(self, addr: int) -> int | None:
        hit, evicted = self.access(addr)
        if hit:
            self.stats.hits -= 1
        else:
            self.stats.misses -= 1
            if evicted is not None:
                self.stats.evictions -= 1
        return evicted

    def invalidate(self, addr: int) -> bool:
        line = addr & ~(self.line - 1)
        ways = self._set(addr)
        for i, way in enumerate(ways):
            if way.line == line:
                ways.pop(i)
                self.stats.flushes += 1
                return True
        return False

    def flush_all(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.stats.flushes += 1

    def resident_lines(self, set_index: int) -> list[int]:
        ways = self._sets[set_index]
        return [w.line for w in sorted(ways, key=lambda w: w.last_used)]

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets[set_index])


#: 24 distinct 64-byte lines over 4 sets: every set sees more lines
#: than ways.  With 32-byte lines the same addresses span 48 lines.
_addr = st.builds(lambda line, offset: line * LINE + offset,
                  st.integers(0, 23), st.integers(0, LINE - 1))
#: Weighted so that sets fill, evict and get emptied by ``invalidate``
#: between the rare ``flush_all``.
_KINDS = ("access",) * 3 + ("fill", "invalidate") * 2 + ("lookup",
                                                        "flush_all")
_op = st.tuples(st.sampled_from(_KINDS), _addr)


def _assert_same_state(sparse: Cache, dense: DenseCache) -> None:
    assert sparse.stats == dense.stats
    for index in range(dense.num_sets):
        assert sparse.resident_lines(index) == dense.resident_lines(index)
        assert sparse.set_occupancy(index) == dense.set_occupancy(index)
    assert list(sparse.occupied_sets()) == [
        index for index in range(dense.num_sets) if dense.set_occupancy(index)]


def _check_matches_dense(replacement, line, ops, seed):
    sparse = Cache("sparse", SIZE, WAYS, line_size=line,
                   replacement=replacement, rng=random.Random(seed))
    dense = DenseCache(SIZE, WAYS, replacement, random.Random(seed), line)
    for kind, addr in ops:
        args = () if kind == "flush_all" else (addr,)
        assert getattr(sparse, kind)(*args) == getattr(dense, kind)(*args)
        _assert_same_state(sparse, dense)


@pytest.mark.parametrize("replacement", list(Replacement),
                         ids=lambda r: r.value)
@given(ops=st.lists(_op, max_size=120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sparse_cache_matches_dense_model(replacement, ops, seed):
    _check_matches_dense(replacement, LINE, ops, seed)


@pytest.mark.parametrize("replacement", list(Replacement),
                         ids=lambda r: r.value)
@given(ops=st.lists(_op, max_size=120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sparse_cache_matches_dense_model_32_byte_lines(replacement, ops,
                                                        seed):
    _check_matches_dense(replacement, 32, ops, seed)


def test_invalidated_sets_are_not_reported():
    cache = Cache("sparse", SIZE, WAYS)
    a, b = 1 * LINE, 3 * LINE + 4 * LINE * 2     # sets 1 and 3
    cache.access(a)
    cache.access(b)
    assert list(cache.occupied_sets()) == [1, 3]
    cache.invalidate(b)
    assert list(cache.occupied_sets()) == [1]
    assert cache.resident_lines(3) == []
    cache.flush_all()
    assert list(cache.occupied_sets()) == []


def test_occupied_sets_ascend_regardless_of_fill_order():
    cache = Cache("sparse", SIZE, WAYS)
    for index in (3, 0, 2):
        cache.access(index * LINE)
    assert list(cache.occupied_sets()) == [0, 2, 3]


def test_untouched_sets_read_as_empty():
    cache = Cache("sparse", 512 * 1024, 8)
    assert cache.resident_lines(1023) == []
    assert cache.set_occupancy(1023) == 0
    assert not cache.lookup(1023 * LINE)
    assert not cache.invalidate(1023 * LINE)
    assert list(cache.occupied_sets()) == []


def test_random_victim_follows_fill_order_after_middle_invalidation():
    """The RANDOM victim indexes the set in fill order; invalidating
    middle ways must close the gap exactly as the list model did."""
    set0 = [i * 4 * LINE for i in range(8)]        # all map to set 0
    for seed in range(40):
        cache = Cache("c", SIZE, WAYS, replacement=Replacement.RANDOM,
                      rng=random.Random(seed))
        dense = DenseCache(SIZE, WAYS, Replacement.RANDOM,
                           random.Random(seed))
        ops = ([("access", a) for a in set0[:4]]
               + [("invalidate", set0[1]), ("invalidate", set0[2]),
                  ("access", set0[0])]
               + [("access", a) for a in set0[4:]])
        for kind, addr in ops:
            assert getattr(cache, kind)(addr) == getattr(dense, kind)(addr)
            _assert_same_state(cache, dense)


def test_resident_lines_order_by_last_use_after_hits():
    cache = Cache("c", SIZE, WAYS)
    a, b, c = 0, 4 * LINE, 8 * LINE                  # set 0
    for addr in (a, b, c):
        cache.access(addr)
    assert cache.resident_lines(0) == [a, b, c]
    cache.access(a + 5)
    assert cache.resident_lines(0) == [b, c, a]
    cache.fill(b)
    assert cache.resident_lines(0) == [c, a, b]


def test_lookup_leaves_lru_state_alone():
    cache = Cache("c", SIZE, WAYS)
    lines = [i * 4 * LINE for i in range(WAYS)]      # fill set 0
    for addr in lines:
        cache.access(addr)
    tick = cache._tick
    assert cache.lookup(lines[0])
    assert cache._tick == tick
    assert cache.resident_lines(0) == lines
    # lines[0] is still the LRU victim despite the lookup.
    assert cache.access(WAYS * 4 * LINE) == (False, lines[0])


def test_tick_advances_on_every_access_and_fill():
    cache = Cache("c", SIZE, WAYS)
    expected = 0
    for op, addr in [("access", 0), ("access", 0), ("fill", 0),
                     ("fill", LINE), ("access", 99 * LINE)]:
        getattr(cache, op)(addr)
        expected += 1
        assert cache._tick == expected
    cache.invalidate(0)
    cache.lookup(LINE)
    assert cache._tick == expected


def test_set_index_uses_the_line_size():
    cache = Cache("x", 256, 2, line_size=32)         # 4 sets
    assert [cache.set_index(a) for a in (0, 32, 64, 96, 128)] == \
        [0, 1, 2, 3, 0]
    cache.access(0)
    cache.access(32)
    assert cache.resident_lines(0) == [0]
    assert cache.resident_lines(1) == [32]


@pytest.mark.parametrize("line_size", [0, 48, -64])
def test_line_size_must_be_a_power_of_two(line_size):
    with pytest.raises(ValueError, match="power of two"):
        Cache("x", 1536, 2, line_size=line_size)
