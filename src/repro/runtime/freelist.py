"""A glibc-model first-fit free-list allocator.

This is the baseline `malloc`: 16-byte chunk headers, first-fit search of
an address-ordered free list with coalescing, sbrk-style growth.  The
in-memory header (size + in-use flag) is really written to simulated
memory so allocator metadata occupies heap like glibc's does — the
per-object overhead the paper's subheap allocator avoids.

Cost model: a fixed path cost plus a per-step search cost; header
reads/writes go through the cache hierarchy.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidFree

#: Chunk header size (stored immediately before the payload).
HEADER_BYTES = 16
_ALIGN = 16

#: modelled instruction costs
_MALLOC_BASE = 22
_MALLOC_STEP = 2
_FREE_BASE = 16
_GROW_COST = 30


class FreeListAllocator:
    """First-fit allocator over ``[base, limit)`` of simulated memory."""

    def __init__(self, memory, hierarchy, base: int, limit: int):
        self.memory = memory
        self.hierarchy = hierarchy
        self.base = base
        self.limit = limit
        self.brk = base
        #: address-ordered free chunks: (address, size) of whole chunks
        self.free_chunks: List[Tuple[int, int]] = []
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self.allocations = 0
        #: temporal quarantine (repro.temporal): freed chunks are marked
        #: free in their headers but never reinserted for reuse, so no
        #: later allocation can alias a dangling pointer's address
        self.quarantine = False
        self.quarantined_bytes = 0
        #: fault injector (repro.resil.faults) armed with ``alloc_oom``;
        #: None keeps malloc on its plain path
        self.faults = None

    # -- public API ----------------------------------------------------------

    def malloc(self, size: int) -> Tuple[int, int, int]:
        """Allocate ``size`` bytes; returns (payload address, cycles, instrs).

        Returns address 0 on out-of-memory (like malloc's NULL).
        """
        faults = self.faults
        if faults is not None and faults.on_alloc("freelist.malloc",
                                                  "size", size):
            return 0, 4, 4
        if size <= 0:
            size = 1
        chunk_size = _align(size + HEADER_BYTES, _ALIGN)
        instrs = _MALLOC_BASE
        cycles = 0
        chunk = 0
        for index, (address, available) in enumerate(self.free_chunks):
            instrs += _MALLOC_STEP
            if available >= chunk_size:
                remainder = available - chunk_size
                if remainder >= _ALIGN + HEADER_BYTES:
                    self.free_chunks[index] = (address + chunk_size,
                                               remainder)
                else:
                    chunk_size = available
                    del self.free_chunks[index]
                chunk = address
                break
        if chunk == 0:
            chunk = self._grow(chunk_size)
            instrs += _GROW_COST
            if chunk == 0:
                return 0, cycles + instrs, instrs
        cycles += self._write_header(chunk, chunk_size, in_use=True)
        self.live_bytes += chunk_size
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        self.allocations += 1
        return chunk + HEADER_BYTES, cycles + instrs, instrs

    def free(self, payload: int) -> Tuple[int, int]:
        """Free a payload address; returns (cycles, instrs)."""
        if payload == 0:
            return 2, 2
        chunk = payload - HEADER_BYTES
        instrs = _FREE_BASE
        # Range-check before touching the header: a wild pointer must not
        # fault inside the simulator's own memory model.
        if chunk < self.base or chunk >= self.brk:
            raise InvalidFree(
                f"invalid free of 0x{payload:x}: outside freelist heap "
                f"[0x{self.base + HEADER_BYTES:x}, 0x{self.brk:x})",
                address=payload, allocator="freelist",
                kind="unknown_pointer")
        cycles = self.hierarchy.access_cycles(chunk, 8, False)
        header = self.memory.load_u64(chunk)
        chunk_size = header & ~1
        if chunk_size == 0:
            raise InvalidFree(
                f"invalid free of 0x{payload:x}: no chunk header at "
                f"0x{chunk:x} (not an allocation start)",
                address=payload, allocator="freelist",
                kind="unknown_pointer")
        if not header & 1:
            raise InvalidFree(
                f"double free of 0x{payload:x}: freelist chunk 0x{chunk:x} "
                f"({chunk_size} bytes) is already free",
                address=payload, allocator="freelist", kind="double_free")
        cycles += self._write_header(chunk, chunk_size, in_use=False)
        self.live_bytes -= chunk_size
        if self.quarantine:
            self.quarantined_bytes += chunk_size
        else:
            self._insert_free(chunk, chunk_size)
        return cycles + instrs, instrs

    def usable_size(self, payload: int) -> int:
        chunk = payload - HEADER_BYTES
        return (self.memory.load_u64(chunk) & ~1) - HEADER_BYTES

    # -- internals ---------------------------------------------------------------

    def _grow(self, chunk_size: int) -> int:
        new_brk = self.brk + chunk_size
        if new_brk > self.limit:
            return 0
        chunk = self.brk
        self.memory.map_range(self.brk, chunk_size)
        self.brk = new_brk
        return chunk

    def _write_header(self, chunk: int, chunk_size: int,
                      in_use: bool) -> int:
        self.memory.store_u64(chunk, chunk_size | (1 if in_use else 0))
        self.memory.store_u64(chunk + 8, 0)
        return self.hierarchy.access_cycles(chunk, HEADER_BYTES, True)

    def _insert_free(self, chunk: int, chunk_size: int) -> None:
        """Insert address-ordered and coalesce with neighbours."""
        chunks = self.free_chunks
        lo, hi = 0, len(chunks)
        while lo < hi:
            mid = (lo + hi) // 2
            if chunks[mid][0] < chunk:
                lo = mid + 1
            else:
                hi = mid
        chunks.insert(lo, (chunk, chunk_size))
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(chunks):
            address, size = chunks[lo]
            next_address, next_size = chunks[lo + 1]
            if address + size == next_address:
                chunks[lo] = (address, size + next_size)
                del chunks[lo + 1]
        if lo > 0:
            prev_address, prev_size = chunks[lo - 1]
            address, size = chunks[lo]
            if prev_address + prev_size == address:
                chunks[lo - 1] = (prev_address, prev_size + size)
                del chunks[lo]


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
