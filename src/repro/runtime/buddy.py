"""A binary buddy allocator for power-of-two, naturally-aligned blocks.

The subheap allocator sits on top of this (the paper: "a pool allocator
on top of a buddy allocator").  Blocks of order *k* are ``2**k`` bytes and
aligned to their size — exactly the property the subheap scheme's
``addr & ~(block_size - 1)`` lookup requires.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: the smallest and largest block orders: 4 KiB to 4 MiB blocks
MIN_ORDER = 12
MAX_ORDER = 22


class BuddyAllocator:
    """Buddy allocator over ``[base, limit)``; base must be aligned to
    :data:`MAX_ORDER`."""

    def __init__(self, memory, base: int, limit: int):
        if base & ((1 << MAX_ORDER) - 1):
            raise ValueError("base must be aligned to the maximum order")
        self.memory = memory
        self.base = base
        self.limit = limit
        self.cursor = base
        self.free_blocks: Dict[int, List[int]] = \
            {order: [] for order in range(MIN_ORDER, MAX_ORDER + 1)}
        self.allocated_bytes = 0
        #: temporal quarantine (repro.temporal): freed blocks are neither
        #: coalesced nor reinserted, so block addresses are never reused
        self.quarantine = False
        self.quarantined_bytes = 0
        #: fault injector (repro.resil.faults) armed with ``alloc_oom``;
        #: None keeps alloc on its plain path
        self.faults = None

    def alloc(self, order: int) -> Tuple[int, int]:
        """Allocate a block of ``2**order`` bytes; returns (address, instrs).

        Address 0 means out of memory.
        """
        faults = self.faults
        if faults is not None and faults.on_alloc("buddy.alloc", "order",
                                                  order):
            return 0, 4
        order = max(order, MIN_ORDER)
        if order > MAX_ORDER:
            return 0, 4
        instrs = 8
        # Find the smallest available order >= requested.
        for candidate in range(order, MAX_ORDER + 1):
            if self.free_blocks[candidate]:
                block = self.free_blocks[candidate].pop()
                instrs += 2 * (candidate - order)
                # Split down, pushing the upper halves.
                for split in range(candidate - 1, order - 1, -1):
                    self.free_blocks[split].append(block + (1 << split))
                self.allocated_bytes += 1 << order
                return block, instrs
        # Carve a naturally-aligned fresh block from the region cursor.
        # Alignment holes are never mapped, so they cost address space
        # only — resident memory grows by exactly the block size.
        size = 1 << order
        block = (self.cursor + size - 1) & ~(size - 1)
        if block + size > self.limit:
            return 0, instrs
        self.cursor = block + size
        self.memory.map_range(block, size)
        instrs += 12
        self.allocated_bytes += size
        return block, instrs

    def free(self, address: int, order: int) -> int:
        """Free a block; returns modelled instruction count."""
        order = max(order, MIN_ORDER)
        instrs = 6
        block = address
        self.allocated_bytes -= 1 << order
        if self.quarantine:
            self.quarantined_bytes += 1 << order
            return instrs
        while order < MAX_ORDER:
            buddy = block ^ (1 << order)
            try:
                self.free_blocks[order].remove(buddy)
            except ValueError:
                break
            block = min(block, buddy)
            order += 1
            instrs += 3
        self.free_blocks[order].append(block)
        return instrs
