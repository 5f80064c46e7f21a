"""Sparse cache sets vs a dense reference model.

:class:`repro.memory.Cache` keeps its sets in a dict filled on first
use.  ``DenseCache`` below is the earlier dense list-of-lists model,
kept here only as a reference: random operation sequences must give
the same return values, statistics and per-set residue on both, and
:meth:`Cache.occupied_sets` must equal a walk over every dense set.
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
                 rng: random.Random) -> None:
        self.ways = ways
        self.num_sets = size // (ways * LINE)
        self.replacement = replacement
        self._rng = rng
        self._sets: list[list[_Way]] = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CacheStats()

    def _set(self, addr: int) -> list[_Way]:
        return self._sets[(addr // LINE) % self.num_sets]

    def lookup(self, addr: int) -> bool:
        line = addr & ~(LINE - 1)
        return any(w.line == line for w in self._set(addr))

    def access(self, addr: int) -> tuple[bool, int | None]:
        self._tick += 1
        line = addr & ~(LINE - 1)
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
        line = addr & ~(LINE - 1)
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


#: 24 distinct lines over 4 sets: every set sees more lines than ways.
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


@pytest.mark.parametrize("replacement", list(Replacement),
                         ids=lambda r: r.value)
@given(ops=st.lists(_op, max_size=120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sparse_cache_matches_dense_model(replacement, ops, seed):
    sparse = Cache("sparse", SIZE, WAYS, replacement=replacement,
                   rng=random.Random(seed))
    dense = DenseCache(SIZE, WAYS, replacement, random.Random(seed))
    for kind, addr in ops:
        args = () if kind == "flush_all" else (addr,)
        assert getattr(sparse, kind)(*args) == getattr(dense, kind)(*args)
        _assert_same_state(sparse, dense)


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
