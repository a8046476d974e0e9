"""A classic set-associative cache model with true-LRU replacement.

Only hit/miss behaviour is modelled (no data storage — the backing
:class:`~repro.mem.Memory` holds the data); this is the standard approach
for trace-driven cache simulation and is all the evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: log2 of the L1 line, and the line in bytes: CVA6's L1 data cache and
#: the IFP unit's metadata line buffer both use 64-byte lines
LINE_SHIFT = 6
LINE_BYTES = 1 << LINE_SHIFT


@dataclass
class CacheStats:
    """Hit/miss counters, split by access kind."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.read_hits = self.read_misses = 0
        self.write_hits = self.write_misses = 0


class Cache:
    """Set-associative, write-allocate, true-LRU cache.

    Geometry mirrors CVA6's L1 data cache by default: 32 KiB, 8-way,
    :data:`LINE_BYTES`-byte lines.
    """

    def __init__(self, size_bytes: int = 32 * 1024, ways: int = 8,
                 name: str = "L1D"):
        if size_bytes % (ways * LINE_BYTES):
            raise ValueError("size must be a multiple of ways * line size")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_BYTES)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("derived set count must be a power of two")
        self._set_mask = self.num_sets - 1
        # Per-set list of line tags, most-recently-used last.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- access -----------------------------------------------------------

    def access(self, address: int, size: int = 1, write: bool = False) -> int:
        """Touch ``[address, address + size)``; return the number of misses.

        Multi-line accesses (rare: misaligned or wide) touch each line.
        """
        first_line = address >> LINE_SHIFT
        last_line = (address + max(size, 1) - 1) >> LINE_SHIFT
        if first_line == last_line:
            # Fast path: the overwhelmingly common single-line access.
            cache_set = self._sets[first_line & self._set_mask]
            if cache_set and cache_set[-1] == first_line:
                # Already MRU — a hit with no recency reordering needed.
                hit = True
            else:
                hit = self._touch_line(first_line)
            stats = self.stats
            if hit:
                if write:
                    stats.write_hits += 1
                else:
                    stats.read_hits += 1
                return 0
            if write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            return 1
        misses = 0
        for line in range(first_line, last_line + 1):
            if not self._touch_line(line):
                misses += 1
        if write:
            self.stats.write_misses += misses
            self.stats.write_hits += (last_line - first_line + 1) - misses
        else:
            self.stats.read_misses += misses
            self.stats.read_hits += (last_line - first_line + 1) - misses
        return misses

    def _touch_line(self, line: int) -> bool:
        """Touch one line; return True on hit."""
        cache_set = self._sets[line & self._set_mask]
        try:
            cache_set.remove(line)
        except ValueError:
            # Miss: allocate, evicting LRU if the set is full.
            if len(cache_set) >= self.ways:
                cache_set.pop(0)
            cache_set.append(line)
            return False
        cache_set.append(line)
        return True

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        for cache_set in self._sets:
            cache_set.clear()

    def reset(self) -> None:
        """Invalidate all lines and clear stats."""
        self.flush()
        self.stats.reset()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
