"""The wrapped allocator (paper Section 4.2.1).

A thin wrapper over the glibc-model free-list allocator: it transparently
over-allocates so the local-offset metadata record can be appended to each
object, and falls back to the global table for objects beyond the
local-offset size limit.  This is the paper's model of "the impact on
existing allocators that cannot support the subheap scheme": per-object
metadata is scattered across the heap, which is what inflates cache
misses on metadata-hungry workloads (health, ft).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ifp.bounds import Bounds
from repro.ifp.schemes.local_offset import (
    LocalOffsetScheme, METADATA_BYTES, align_up,
)
from repro.ifp.tag import Scheme, address_of, unpack_tag

#: modelled extra instructions for metadata setup / teardown
_REGISTER_COST = 12
_DEREGISTER_COST = 6


class WrappedAllocator:
    """Wrapped allocation for a machine with config ``config`` (a
    :class:`~repro.vm.machine.MachineConfig`).  Metadata goes through
    ``memory`` and ``hierarchy``, its MAC through the IFP unit ``ifp``'s
    memo, whose observer the allocator reports to; counts go to the
    run's ``stats``."""

    def __init__(self, config, memory, hierarchy, ifp, stats, freelist,
                 global_table):
        self.memory = memory
        self.hierarchy = hierarchy
        self.ifp = ifp
        self.stats = stats
        self.freelist = freelist
        self.global_table = global_table
        self.config = config.ifp
        self.scheme = LocalOffsetScheme(self.config)

    def malloc(self, size: int, layout_ptr: int,
               elem_size: int) -> Tuple[int, Optional[Bounds], int, int]:
        """Allocate + register; returns (tagged ptr, bounds, cycles, instrs)."""
        stats = self.stats
        if size <= 0:
            size = 1
        # Layout tables only apply when the allocation is exactly one
        # object of the deduced type (arrays would mis-narrow).
        if elem_size and size != elem_size:
            layout_ptr = 0
        use_local = ("local_offset" in self.config.schemes_enabled
                     and self.scheme.supports_size(size))
        if use_local:
            footprint = self.scheme.footprint(size)
            address, cycles, instrs = self.freelist.malloc(footprint)
            if address == 0:
                return 0, None, cycles, instrs
            md_addr = self.scheme.write_metadata(
                self.memory, address, size, layout_ptr, self.ifp.mac)
            cycles += self.hierarchy.access_cycles(
                md_addr, METADATA_BYTES, True)
            cycles += _REGISTER_COST + self.config.mac_cycles
            instrs += _REGISTER_COST
            tagged = self.scheme.make_pointer(address, address, size)
            bounds = Bounds(address, address + size)
        else:
            address, cycles, instrs = self.freelist.malloc(size)
            if address == 0:
                return 0, None, cycles, instrs
            registered = self.global_table.try_register(
                address, size, layout_ptr)
            if registered is None:
                # Table full under the degrade policy: the object keeps
                # its memory but loses its metadata — hand out an
                # untagged legacy pointer (paper Section 6 fallback).
                stats.heap_objects += 1
                stats.degraded_allocs += 1
                obs = self.ifp.obs
                if obs is not None:
                    obs.degrade("global_table", "legacy_pointer", size,
                                address)
                    obs.alloc_decision("wrapped", "legacy_degrade", size,
                                       address)
                return address, None, cycles + 2, instrs + 2
            tagged, reg_cycles, reg_instrs = registered
            cycles += reg_cycles
            instrs += reg_instrs
            bounds = Bounds(address, address + size)
        stats.heap_objects += 1
        if layout_ptr:
            stats.heap_objects_lt += 1
        obs = self.ifp.obs
        if obs is not None:
            obs.alloc_decision("wrapped",
                               "local_offset" if use_local
                               else "global_table_fallback",
                               size, address)
            obs.scheme_assigned("heap", tagged, size, bool(layout_ptr))
        return tagged, bounds, cycles, instrs

    def free(self, pointer: int) -> Tuple[int, int]:
        address = address_of(pointer)
        if address == 0:
            return 2, 2
        tag = unpack_tag(pointer)
        cycles = 0
        instrs = _DEREGISTER_COST
        if tag.scheme is Scheme.GLOBAL_TABLE:
            base, _size, _lt = self.global_table.row_info(pointer)
            dereg_cycles, dereg_instrs = self.global_table.deregister(pointer)
            cycles += dereg_cycles
            instrs += dereg_instrs
            address = base or address
        elif tag.scheme is Scheme.LOCAL_OFFSET:
            # Clear the appended metadata (deregistration).
            size = self._local_size(pointer)
            if size:
                self.scheme.clear_metadata(self.memory, address, size)
                md = self.scheme.metadata_address(address, size)
                cycles += self.hierarchy.access_cycles(
                    md, METADATA_BYTES, True)
        free_cycles, free_instrs = self.freelist.free(address)
        self.stats.heap_frees += 1
        obs = self.ifp.obs
        if obs is not None:
            obs.alloc_decision("wrapped", "free", 0, address)
        return cycles + free_cycles, instrs + free_instrs

    def usable_size(self, pointer: int) -> int:
        tag = unpack_tag(pointer)
        if tag.scheme is Scheme.GLOBAL_TABLE:
            _base, size, _lt = self.global_table.row_info(pointer)
            return size
        if tag.scheme is Scheme.LOCAL_OFFSET:
            return self._local_size(pointer) or 0
        return self.freelist.usable_size(address_of(pointer))

    def layout_ptr_of(self, pointer: int) -> int:
        tag = unpack_tag(pointer)
        address = address_of(pointer)
        if tag.scheme is Scheme.LOCAL_OFFSET:
            size = self._local_size(pointer)
            if size:
                md = self.scheme.metadata_address(address, size)
                return self.memory.load_int(md, 8)
        if tag.scheme is Scheme.GLOBAL_TABLE:
            return self.global_table.row_info(pointer)[2]
        return 0

    def _local_size(self, pointer: int) -> int:
        """Recover the object size of a local-offset heap allocation from
        the freelist chunk size (the metadata record sits at the end)."""
        address = address_of(pointer)
        usable = self.freelist.usable_size(address)
        # The wrapped malloc over-allocated exactly
        # align_up(size, granule) + METADATA_BYTES, and the free-list
        # rounding adds nothing beyond that, so the record sits at the end.
        md_offset = usable - METADATA_BYTES
        if md_offset < 0:
            return 0
        size = self.memory.load_int(address + md_offset + 8, 2)
        if size and align_up(size, self.config.granule) == md_offset:
            return size
        return 0
