"""Set-associative cache model with LRU/random replacement.

The cache stores full line addresses (not just tags) so an inclusive
outer level can back-invalidate inner levels on eviction, and so tests
and Prime+Probe code can reason about exactly which lines are resident.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator

from ..params import CACHE_LINE
from ..telemetry import metrics as _metrics

_REG = _metrics.REGISTRY


class Replacement(enum.Enum):
    LRU = "lru"
    RANDOM = "random"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.flushes = 0


class Cache:
    """One level of set-associative cache.

    Addresses handed to the cache may be virtual or physical; the cache
    is agnostic and the owner decides (L1/L2 here are physically
    indexed; the µop cache is virtually indexed per the paper).

    Sets are sparse: ``_sets`` maps a set index to its ways and gains
    an entry on the set's first fill, so building a cache costs nothing
    per set and :meth:`occupied_sets` walks only sets that were used.
    A set is a dict from resident line address to the tick of its last
    use, so a hit, :meth:`lookup` and :meth:`invalidate` are one dict
    probe.  Ticks are unique, so the LRU victim (smallest tick) is
    unambiguous; a hit updates its line's tick in place, so the dict's
    insertion order is fill order, which the RANDOM victim draw indexes.
    """

    def __init__(self, name: str, size: int, ways: int,
                 line_size: int = CACHE_LINE,
                 replacement: Replacement = Replacement.LRU,
                 rng: random.Random | None = None) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"{name}: line size {line_size} not a power "
                             f"of two")
        if size % (ways * line_size):
            raise ValueError(f"{name}: size {size} not divisible by "
                             f"ways*line ({ways}*{line_size})")
        self.name = name
        self.size = size
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count {self.num_sets} not a "
                             f"power of two")
        self.replacement = replacement
        self._rng = rng or random.Random(0)
        self._line_shift = line_size.bit_length() - 1
        self._line_mask = ~(line_size - 1)
        self._set_mask = self.num_sets - 1
        self._sets: dict[int, dict[int, int]] = {}
        self._tick = 0
        self.stats = CacheStats()
        # Telemetry instruments (no-op unless the registry is enabled).
        self._m_hits = _metrics.counter("cache_hits", level=name)
        self._m_misses = _metrics.counter("cache_misses", level=name)
        self._m_evictions = _metrics.counter("cache_evictions", level=name)

    # -- geometry ----------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & self._line_mask

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    # -- operations --------------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no fill, no LRU update)."""
        return (addr & self._line_mask) in self._sets.get(
            (addr >> self._line_shift) & self._set_mask, ())

    def access(self, addr: int) -> tuple[bool, int | None]:
        """Access *addr*: returns ``(hit, evicted_line_or_None)``.

        On a miss the line is filled, possibly evicting the LRU (or a
        random) victim from the set.
        """
        tick = self._tick = self._tick + 1
        line = addr & self._line_mask
        index = (addr >> self._line_shift) & self._set_mask
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = {}
        elif line in ways:
            ways[line] = tick
            self.stats.hits += 1
            if _REG.enabled:
                self._m_hits.value += 1
            return True, None
        self.stats.misses += 1
        if _REG.enabled:
            self._m_misses.value += 1
        evicted = None
        if len(ways) >= self.ways:
            if self.replacement is Replacement.LRU:
                evicted = min(ways, key=ways.__getitem__)
            else:
                evicted = list(ways)[self._rng.randrange(len(ways))]
            del ways[evicted]
            self.stats.evictions += 1
            if _REG.enabled:
                self._m_evictions.value += 1
        ways[line] = tick
        return False, evicted

    def fill(self, addr: int) -> int | None:
        """Fill *addr*'s line without counting a hit/miss (prefetch path)."""
        hit, evicted = self.access(addr)
        if hit:
            self.stats.hits -= 1
            if _REG.enabled:
                self._m_hits.value -= 1
        else:
            self.stats.misses -= 1
            if _REG.enabled:
                self._m_misses.value -= 1
            if evicted is not None:
                self.stats.evictions -= 1
                if _REG.enabled:
                    self._m_evictions.value -= 1
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop *addr*'s line if present.  Returns True if it was resident."""
        ways = self._sets.get((addr >> self._line_shift) & self._set_mask)
        if ways is None or ways.pop(addr & self._line_mask, None) is None:
            return False
        self.stats.flushes += 1
        return True

    def flush_all(self) -> None:
        self._sets.clear()
        self.stats.flushes += 1

    # -- introspection (tests / attack tooling) -----------------------------

    def resident_lines(self, set_index: int) -> list[int]:
        """Line addresses currently resident in *set_index* (MRU last)."""
        ways = self._sets.get(set_index, {})
        return sorted(ways, key=ways.__getitem__)

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets.get(set_index, ()))

    def occupied_sets(self) -> Iterator[int]:
        """Indices of the non-empty sets, in ascending order."""
        return (index for index in sorted(self._sets) if self._sets[index])
