"""Set-associative caches with LRU replacement.

GPU L1/L2 caches follow Section III-D: **write-through, write no-allocate**
for global memory so the relaxed consistency model holds across GPUs without
coherence, and atomics always evict the target line before executing at the
HMC.  The write policy itself is enforced by the GPU memory pipeline
(:mod:`repro.gpu.gpu`); this module provides the lookup/fill/evict mechanics
and hit statistics.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import CacheConfig


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """LRU set-associative cache over line addresses."""

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        self.num_sets = cfg.num_sets
        # One ordered dict per set: tag -> True, LRU at the front.
        self._sets: Dict[int, "collections.OrderedDict[int, bool]"] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _index(self, paddr: int) -> tuple:
        """``(tag, set index)`` of the line holding ``paddr``."""
        return divmod(paddr // self.cfg.line_bytes, self.num_sets)

    def lookup(self, paddr: int, update_lru: bool = True, count: bool = True) -> bool:
        """Probe the cache; returns True on hit."""
        tag, set_idx = self._index(paddr)
        entries = self._sets.get(set_idx)
        hit = entries is not None and tag in entries
        if hit and update_lru:
            entries.move_to_end(tag)
        if count:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return hit

    def fill(self, paddr: int) -> Optional[int]:
        """Insert a line; returns the evicted line's base address, if any."""
        tag, set_idx = self._index(paddr)
        entries = self._sets.get(set_idx)
        if entries is None:
            entries = self._sets[set_idx] = collections.OrderedDict()
        elif tag in entries:
            entries.move_to_end(tag)
            return None
        evicted = None
        if len(entries) >= self.cfg.ways:
            victim_tag, _ = entries.popitem(last=False)
            evicted = (victim_tag * self.num_sets + set_idx) * self.cfg.line_bytes
        entries[tag] = True
        return evicted

    def evict(self, paddr: int) -> bool:
        """Remove a line if present (atomics, Section III-D)."""
        tag, set_idx = self._index(paddr)
        entries = self._sets.get(set_idx)
        if entries is not None and tag in entries:
            del entries[tag]
            return True
        return False

    def contains(self, paddr: int) -> bool:
        return self.lookup(paddr, update_lru=False, count=False)

    def flush(self) -> None:
        self._sets.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cache({self.name}, {self.cfg.size_bytes}B/{self.cfg.ways}way)"
