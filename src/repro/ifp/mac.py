"""48-bit metadata MAC (paper Section 3.3).

Object metadata for the local-offset and subheap schemes lives in ordinary
application memory, where legacy code or temporal bugs could overwrite it.
The hardware therefore stores a keyed MAC with the metadata and recomputes
it during ``promote``; a mismatch terminates bounds retrieval and poisons
the output IFPR.

The prototype's exact MAC construction is not specified in the paper, so we
use a small keyed mixing function in the spirit of SipHash (two
xor-multiply-rotate rounds over the metadata words, truncated to 48 bits).
What matters for the reproduction is (a) the 48-bit width, (b) keying, and
(c) sensitivity to every metadata bit — all of which hold here.
"""

from __future__ import annotations

from typing import Iterable

#: MAC width in bits (fits the 6 spare bytes of a 16-byte metadata record).
MAC_BITS = 48
MAC_MASK = (1 << MAC_BITS) - 1
MAC_BYTES = MAC_BITS // 8

_U64 = (1 << 64) - 1
_MULT1 = 0x9E3779B97F4A7C15  # golden-ratio odd constant
_MULT2 = 0xC2B2AE3D27D4EB4F  # from xxhash's prime set


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (64 - amount))) & _U64


def _mix(state: int, word: int) -> int:
    state ^= (word * _MULT1) & _U64
    state = _rotl(state, 31)
    return (state * _MULT2) & _U64


def compute_mac(key: int, words: Iterable[int]) -> int:
    """Compute the 48-bit MAC of a sequence of 64-bit metadata words."""
    state = (key ^ _MULT2) & _U64
    count = 0
    for word in words:
        state = _mix(state, word & _U64)
        count += 1
    # Finalisation: fold in the length, then avalanche.
    state = _mix(state, count)
    state ^= state >> 29
    state = (state * _MULT1) & _U64
    state ^= state >> 32
    return state & MAC_MASK


def metadata_mac(key: int, base: int, size: int, layout_ptr: int) -> int:
    """MAC over the canonical metadata triple used by all schemes."""
    return compute_mac(key, (base, size, layout_ptr))


class MacCache:
    """Memoizing front-end to :func:`compute_mac` for a fixed key.

    The MAC is a pure function of ``(key, words)``, so memoized results
    never need invalidation — the simulated outcome of every verification
    is unaffected, only the host-side recomputation cost disappears.  The
    ``stats`` object (an :class:`repro.ifp.unit.IFPUnitStats`) receives
    ``mac_cache_hits``/``mac_cache_misses`` so the obs metrics can report
    cache effectiveness.  A size cap with clear-on-full bounds host memory
    under adversarial (fuzz) workloads that mint unbounded distinct words.
    """

    __slots__ = ("key", "stats", "capacity", "_cache")

    def __init__(self, key: int, stats, capacity: int = 1 << 16):
        self.key = key
        self.stats = stats
        self.capacity = capacity
        self._cache = {}

    def compute(self, words: tuple) -> int:
        """Memoized :func:`compute_mac`; ``words`` must be a tuple."""
        value = self._cache.get(words)
        if value is not None:
            self.stats.mac_cache_hits += 1
            return value
        self.stats.mac_cache_misses += 1
        return self.seed(words)

    def seed(self, words: tuple) -> int:
        """:meth:`compute` for a metadata writer: the same memo, not
        counted as a lookup.  The MAC an allocator writes is then a hit
        for the object's first promote, not a second computation."""
        value = self._cache.get(words)
        if value is None:
            if len(self._cache) >= self.capacity:
                self._cache.clear()
            value = self._cache[words] = compute_mac(self.key, words)
        return value
