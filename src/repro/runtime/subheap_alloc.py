"""The subheap allocator: a pool allocator over the buddy allocator
(paper Section 4.2.1).

Objects are grouped into *pools* keyed by (slot size, layout table): only
identically-sized, identically-typed objects share a block, so one 32-byte
metadata record per block describes every object in it.  Blocks come from
the buddy allocator (power-of-two size and alignment) and register one
subheap control-register *region* per block-size class.

Size classes:

=============  ===========
object size    block order
=============  ===========
≤ 240 B        12 (4 KiB)
≤ 1 KiB        14 (16 KiB)
≤ 4 KiB        16 (64 KiB)
≤ 16 KiB       18 (256 KiB)
larger         global-table fallback
=============  ===========

The shared metadata is what gives this allocator the paper's two headline
behaviours: (a) no per-object allocator header → *negative* memory
overhead for small-object workloads, (b) metadata cache hits amortised
across all objects in a block → far fewer promote-induced misses than the
wrapped allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidFree, ResourceExhausted
from repro.ifp.bounds import Bounds
from repro.ifp.schemes.subheap import (
    METADATA_BYTES, SubheapRegion, SubheapScheme,
)
from repro.ifp.tag import Scheme, address_of, unpack_tag
from repro.resil.policy import STRICT

#: (max slot size, block order) classes, ascending.  Objects above the
#: last class go to the free-list + global-table fallback: pooling unique
#: large arrays would waste most of a block.
_SIZE_CLASSES: Tuple[Tuple[int, int], ...] = (
    (240, 12), (1008, 14), (4064, 16),
)

_ALLOC_HOT_COST = 8      #: pop-a-free-slot fast path
_NEW_BLOCK_COST = 40     #: metadata init + pool bookkeeping
_FREE_COST = 7


@dataclass
class _Pool:
    slot_size: int
    object_size: int
    layout_ptr: int
    region: SubheapRegion
    register_index: int
    free_slots: List[int] = field(default_factory=list)
    bump_block: int = 0    #: block currently being carved
    bump_next: int = 0     #: next fresh slot in bump_block
    bump_end: int = 0
    blocks: List[int] = field(default_factory=list)


class SubheapAllocator:
    """Pool allocation for a machine with config ``config`` (a
    :class:`~repro.vm.machine.MachineConfig`): blocks come from
    ``buddy``, oversize objects from ``freelist`` plus ``global_table``.
    Block metadata goes through ``memory`` and ``hierarchy``, its MAC
    through the IFP unit ``ifp``'s memo; pools claim ``ifp``'s subheap
    control registers and report to its observer, and counts go to the
    run's ``stats``."""

    def __init__(self, config, memory, hierarchy, ifp, stats, freelist,
                 buddy, global_table):
        self.memory = memory
        self.hierarchy = hierarchy
        self.ifp = ifp
        self.stats = stats
        self.freelist = freelist
        self.buddy = buddy
        self.global_table = global_table
        self.policy = config.policy
        self.config = config.ifp
        self.scheme = SubheapScheme(self.config)
        self.pools: Dict[Tuple[int, int], _Pool] = {}
        #: block base -> pool (for free())
        self.block_owner: Dict[int, _Pool] = {}
        #: temporal quarantine (repro.temporal): freed slots are never
        #: returned to ``free_slots``, so pool reuse cannot alias a
        #: dangling pointer's address (the temporal registry catches the
        #: double free before the structural check would)
        self.quarantine = False
        self.quarantined_bytes = 0

    # -- allocation --------------------------------------------------------------

    def malloc(self, size: int, layout_ptr: int,
               elem_size: int) -> Tuple[int, Optional[Bounds], int, int]:
        stats = self.stats
        if size <= 0:
            size = 1
        if elem_size and size != elem_size:
            layout_ptr = 0  # arrays cannot reuse the element's table
        order = self._class_for(size)
        if order is None:
            return self._fallback_malloc(size, layout_ptr)
        # Pools are keyed by the exact (object size, layout table) pair:
        # only identically-sized, identically-typed objects share a block,
        # which is the subheap scheme's correctness requirement.
        cycles = 0
        instrs = _ALLOC_HOT_COST
        pool = self.pools.get((size, layout_ptr))
        if pool is None:
            try:
                pool = self._new_pool(size, layout_ptr, order)
            except ResourceExhausted:
                # Out of subheap control registers.  Strict policy lets
                # the trap propagate; degrade policy demotes this object
                # to the global-table scheme (and from there, possibly
                # to an untagged legacy pointer).
                if self.policy.subheap_register_exhaustion == STRICT:
                    raise
                stats.degraded_allocs += 1
                if self.ifp.obs is not None:
                    self.ifp.obs.degrade("subheap_registers",
                                         "global_table_fallback", size, 0)
                return self._fallback_malloc(size, layout_ptr)
            self.pools[(size, layout_ptr)] = pool
        if pool.free_slots:
            address = pool.free_slots.pop()
            action = "pool_reuse"
        elif pool.bump_next < pool.bump_end:
            address = pool.bump_next
            pool.bump_next += pool.slot_size
            action = "pool_bump"
        else:
            block_cycles, block_instrs = self._add_block(pool, order)
            cycles += block_cycles
            instrs += block_instrs
            if pool.bump_next >= pool.bump_end:
                return 0, None, cycles, instrs  # out of memory
            address = pool.bump_next
            pool.bump_next += pool.slot_size
            action = "pool_grow"
        tagged = self.scheme.make_pointer(address, pool.register_index)
        bounds = Bounds(address, address + pool.object_size)
        stats.heap_objects += 1
        if layout_ptr:
            stats.heap_objects_lt += 1
        obs = self.ifp.obs
        if obs is not None:
            obs.alloc_decision("subheap", action, size, address)
            obs.scheme_assigned("heap", tagged, size, bool(layout_ptr))
        return tagged, bounds, cycles + instrs, instrs

    def free(self, pointer: int) -> Tuple[int, int]:
        stats = self.stats
        freelist = self.freelist
        address = address_of(pointer)
        if address == 0:
            return 2, 2
        tag = unpack_tag(pointer)
        if tag.scheme is Scheme.GLOBAL_TABLE:
            base, _size, _lt = self.global_table.row_info(pointer)
            cycles, instrs = self.global_table.deregister(pointer)
            freelist.free(base or address)
            stats.heap_frees += 1
            return cycles + _FREE_COST, instrs + _FREE_COST
        pool = self._pool_of(address)
        if pool is None:
            if (tag.scheme is Scheme.LEGACY
                    and freelist.base <= address < freelist.brk):
                # A degraded (untagged) allocation: its memory came from
                # the free-list fallback, so route the free there.
                cycles, instrs = freelist.free(address)
                stats.heap_frees += 1
                if self.ifp.obs is not None:
                    self.ifp.obs.alloc_decision("subheap", "legacy_free",
                                                0, address)
                return cycles + _FREE_COST, instrs + _FREE_COST
            # Frees of foreign pointers are guest bugs surfaced as traps.
            raise InvalidFree(
                f"subheap free of unknown pointer 0x{address:x}: "
                f"no pool owns this block",
                address=address, allocator="subheap",
                kind="unknown_pointer")
        block = address & ~((1 << pool.region.block_log2) - 1)
        slot_start = _align(METADATA_BYTES, max(self.config.granule, 16))
        if (address - block - slot_start) % pool.slot_size:
            raise InvalidFree(
                f"subheap free of interior pointer 0x{address:x}: "
                f"not a slot base in pool(size={pool.object_size}, "
                f"slot={pool.slot_size}) of block 0x{block:x}",
                address=address, allocator="subheap",
                kind="interior_pointer")
        if block == pool.bump_block and address >= pool.bump_next:
            raise InvalidFree(
                f"subheap free of unallocated slot 0x{address:x}: "
                f"beyond bump pointer 0x{pool.bump_next:x} in "
                f"block 0x{block:x}",
                address=address, allocator="subheap",
                kind="unknown_pointer")
        if address in pool.free_slots:
            raise InvalidFree(
                f"double free of 0x{address:x}: slot already on the "
                f"free list of pool(size={pool.object_size}) "
                f"in block 0x{block:x}",
                address=address, allocator="subheap", kind="double_free")
        if self.quarantine:
            self.quarantined_bytes += pool.slot_size
        else:
            pool.free_slots.append(address)
        stats.heap_frees += 1
        if self.ifp.obs is not None:
            self.ifp.obs.alloc_decision("subheap", "free", 0, address)
        return _FREE_COST, _FREE_COST

    def usable_size(self, pointer: int) -> int:
        tag = unpack_tag(pointer)
        if tag.scheme is Scheme.GLOBAL_TABLE:
            return self.global_table.row_info(pointer)[1]
        address = address_of(pointer)
        pool = self._pool_of(address)
        if pool is not None:
            return pool.object_size
        freelist = self.freelist
        if freelist.base <= address < freelist.brk:
            # Degraded legacy allocation backed by the free list.
            return freelist.usable_size(address)
        return 0

    def layout_ptr_of(self, pointer: int) -> int:
        tag = unpack_tag(pointer)
        if tag.scheme is Scheme.GLOBAL_TABLE:
            return self.global_table.row_info(pointer)[2]
        pool = self._pool_of(address_of(pointer))
        return pool.layout_ptr if pool else 0

    # -- internals ------------------------------------------------------------------

    def _class_for(self, size: int) -> Optional[int]:
        slot = _align(size, self.config.granule)
        for limit, order in _SIZE_CLASSES:
            if slot <= limit:
                return order
        return None

    def _fallback_malloc(self, size: int, layout_ptr: int):
        """Oversize allocations: raw free-list memory + global table row."""
        stats = self.stats
        address, cycles, instrs = self.freelist.malloc(size)
        if address == 0:
            return 0, None, cycles, instrs
        registered = self.global_table.try_register(
            address, size, layout_ptr)
        if registered is None:
            # Global table also full: last rung of the degradation
            # ladder — an untagged legacy pointer with no metadata.
            stats.heap_objects += 1
            stats.degraded_allocs += 1
            obs = self.ifp.obs
            if obs is not None:
                obs.degrade("global_table", "legacy_pointer", size,
                            address)
                obs.alloc_decision("subheap", "legacy_degrade", size,
                                   address)
            return address, None, cycles + 2, instrs + 2
        tagged, reg_cycles, reg_instrs = registered
        stats.heap_objects += 1
        if layout_ptr:
            stats.heap_objects_lt += 1
        obs = self.ifp.obs
        if obs is not None:
            obs.alloc_decision("subheap", "oversize_fallback", size,
                               address)
            obs.scheme_assigned("heap", tagged, size, bool(layout_ptr))
        return (tagged, Bounds(address, address + size),
                cycles + reg_cycles, instrs + reg_instrs)

    def _new_pool(self, object_size: int, layout_ptr: int,
                  order: int) -> _Pool:
        region = SubheapRegion(order, 0)
        register_index = self.ifp.control.allocate_subheap_register(region)
        slot_size = _align(object_size, self.config.granule)
        return _Pool(slot_size=slot_size, object_size=object_size,
                     layout_ptr=layout_ptr, region=region,
                     register_index=register_index)

    def _add_block(self, pool: _Pool, order: int) -> Tuple[int, int]:
        block, instrs = self.buddy.alloc(order)
        if block == 0:
            return instrs, instrs
        slot_start = _align(METADATA_BYTES, max(self.config.granule, 16))
        block_size = 1 << order
        slot_count = (block_size - slot_start) // pool.slot_size
        slot_end = slot_start + slot_count * pool.slot_size
        self.scheme.write_block_metadata(
            self.memory, block, pool.region, slot_start, slot_end,
            pool.slot_size, pool.object_size, pool.layout_ptr, self.ifp.mac)
        cycles = self.hierarchy.access_cycles(
            block, METADATA_BYTES, True)
        pool.bump_block = block
        pool.bump_next = block + slot_start
        pool.bump_end = block + slot_end
        pool.blocks.append(block)
        self.block_owner[block] = pool
        return cycles + _NEW_BLOCK_COST, instrs + _NEW_BLOCK_COST

    def _pool_of(self, address: int) -> Optional[_Pool]:
        for _limit, order in _SIZE_CLASSES:
            block = address & ~((1 << order) - 1)
            pool = self.block_owner.get(block)
            if pool is not None and pool.region.block_log2 == order:
                return pool
        return None


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
