"""Builtin registry: wires the runtime library onto a machine.

``install(machine)`` creates the allocators and the global-table manager,
initialises runtime state (the paper's "initialize the In-Fat Pointer
environment at application startup"), and returns the builtin dispatch
table the interpreter consults for non-guest calls.
"""

from __future__ import annotations

from typing import Dict

from repro.ifp.bounds import Bounds
from repro.ifp.schemes.local_offset import (
    LocalOffsetScheme, METADATA_BYTES,
)
from repro.ifp.tag import (
    Scheme, address_of, temporal_key_of, unpack_tag, with_temporal_key,
)
from repro.temporal import check_free
from repro.runtime.buddy import BuddyAllocator
from repro.runtime.freelist import FreeListAllocator
from repro.runtime.global_table import GlobalTableManager
from repro.runtime.libc import LIBC_BUILTINS
from repro.runtime.subheap_alloc import SubheapAllocator
from repro.runtime.wrapped_alloc import WrappedAllocator

#: split of the heap region between the free-list and buddy allocators
_FREELIST_SHARE = 0x1000_0000


def install(machine) -> Dict[str, callable]:
    layout, config = machine.layout, machine.config
    memory, hierarchy = machine.memory, machine.hierarchy
    ifp, stats = machine.ifp, machine.stats
    freelist = FreeListAllocator(
        memory, hierarchy,
        layout.heap_base, layout.heap_base + _FREELIST_SHARE)
    buddy = BuddyAllocator(
        memory, layout.heap_base + _FREELIST_SHARE,
        layout.heap_limit)
    global_table = GlobalTableManager(config, memory, hierarchy)
    ifp.control.global_table_base = global_table.table_base

    machine.freelist = freelist
    machine.buddy = buddy
    machine.global_table = global_table

    # The runtime's objects take the machine's parts, never the machine:
    # the machine holds them, and a link back would make every machine
    # a reference cycle.
    wrapped = WrappedAllocator(config, memory, hierarchy, ifp, stats,
                               freelist, global_table)
    subheap = SubheapAllocator(config, memory, hierarchy, ifp, stats,
                               freelist, buddy, global_table)
    machine.wrapped_allocator = wrapped
    machine.subheap_allocator = subheap
    if machine.program.allocator == "subheap":
        allocator = subheap
        allocator_name = "subheap"
    else:
        allocator = wrapped
        allocator_name = "wrapped"
    machine.ifp_allocator = allocator

    # -- temporal lock-and-key plumbing (repro.temporal) ---------------------
    # The registry lives on the machine; the mint/release seams live here
    # so every allocator (freelist-backed wrapped, pool-backed subheap,
    # and their global-table fallbacks) goes through one code path.
    registry = getattr(machine, "temporal", None)
    temporal_cfg = machine.ifp.config
    if registry is not None and machine.config.temporal == "quarantine":
        # Quarantine policy: freed storage is never reinserted into any
        # free pool, so a stale key can never collide with a fresh one.
        freelist.quarantine = True
        buddy.quarantine = True
        subheap.quarantine = True

    def temporal_mint(tagged, bnd):
        """Mint a generation key for a freshly allocated tagged pointer."""
        if registry is None or bnd is None or not (tagged >> 60) & 3:
            return tagged, bnd  # temporal off, or legacy-degraded alloc
        base = bnd.lower
        key = registry.mint(base, bnd.upper - bnd.lower)
        return (with_temporal_key(tagged, key, temporal_cfg),
                bnd.with_temporal(base, key))

    def temporal_check_free(pointer):
        """Lock==key probe before a structural free; raises on violation."""
        base = address_of(pointer)
        key = temporal_key_of(pointer, temporal_cfg)
        return check_free(registry, pointer, base, key, allocator_name)

    machine.temporal_mint = temporal_mint

    # glibc __ctype_b_loc support: a traits table plus the pointer slot.
    table_addr, _c, _i = freelist.malloc(256 * 2)
    slot_addr, _c, _i = freelist.malloc(8)
    machine.memory.store_u64(slot_addr, table_addr)
    machine.ctype_table_slot = slot_addr

    local_offset = LocalOffsetScheme(machine.config.ifp)
    getptr_cache: Dict[str, int] = {}
    machine.getptr_cache = getptr_cache

    builtins: Dict[str, callable] = dict(LIBC_BUILTINS)

    # -- baseline allocator entry points -----------------------------------

    def bi_malloc(mach, args, bounds):
        address, cycles, instrs = freelist.malloc(args[0])
        return address, None, cycles, instrs

    def bi_calloc(mach, args, bounds):
        total = args[0] * args[1]
        address, cycles, instrs = freelist.malloc(total)
        if address:
            mach.memory.fill(address, 0, total)
            cycles += mach.hierarchy.access_cycles(address, total, True)
            instrs += total // 8
        return address, None, cycles, instrs

    def bi_free(mach, args, bounds):
        cycles, instrs = freelist.free(address_of(args[0]))
        return 0, None, cycles, instrs

    def bi_realloc(mach, args, bounds):
        old = address_of(args[0])
        new, cycles, instrs = freelist.malloc(args[1])
        if old and new:
            old_size = freelist.usable_size(old)
            count = min(old_size, args[1])
            mach.memory.copy(new, old, count)
            cycles += count // 8
            free_cycles, free_instrs = freelist.free(old)
            cycles += free_cycles
            instrs += free_instrs
        return new, None, cycles, instrs

    builtins["malloc"] = bi_malloc
    builtins["calloc"] = bi_calloc
    builtins["free"] = bi_free
    builtins["realloc"] = bi_realloc

    # -- IFP runtime allocator entry points ------------------------------------

    def ifp_malloc(mach, args, bounds):
        tagged, bnd, cycles, instrs = allocator.malloc(args[0], args[1],
                                                       args[2])
        tagged, bnd = temporal_mint(tagged, bnd)
        return tagged, bnd, cycles, instrs

    def ifp_calloc(mach, args, bounds):
        total = args[0] * args[1]
        tagged, bnd, cycles, instrs = allocator.malloc(total, args[2],
                                                       args[3])
        if tagged:
            address = address_of(tagged)
            mach.memory.fill(address, 0, total)
            cycles += mach.hierarchy.access_cycles(address, total, True)
            instrs += total // 8
        tagged, bnd = temporal_mint(tagged, bnd)
        return tagged, bnd, cycles, instrs

    def ifp_realloc(mach, args, bounds):
        old_tagged, new_size = args[0], args[1]
        lt, elem = args[2], args[3]
        old_address = address_of(old_tagged)
        if registry is not None and old_address:
            # A stale/dangling old pointer must trap before any copying;
            # on success the old lock dies below, so every pre-realloc
            # pointer (shrink or grow) detects as stale afterwards.
            temporal_check_free(old_tagged)
        new_tagged, bnd, cycles, instrs = allocator.malloc(new_size, lt, elem)
        if old_address and new_tagged:
            old_size = allocator.usable_size(old_tagged)
            count = min(old_size, new_size)
            if count:
                mach.memory.copy(address_of(new_tagged), old_address, count)
                cycles += count // 8
            free_cycles, free_instrs = allocator.free(old_tagged)
            cycles += free_cycles
            instrs += free_instrs
            if registry is not None:
                registry.release(old_address)
        new_tagged, bnd = temporal_mint(new_tagged, bnd)
        return new_tagged, bnd, cycles, instrs

    def ifp_free(mach, args, bounds):
        if registry is not None:
            temporal_check_free(args[0])
        cycles, instrs = allocator.free(args[0])
        if registry is not None:
            registry.release(address_of(args[0]))
        return 0, None, cycles, instrs

    builtins["__ifp_malloc"] = ifp_malloc
    builtins["__ifp_calloc"] = ifp_calloc
    builtins["__ifp_realloc"] = ifp_realloc
    builtins["__ifp_free"] = ifp_free

    # -- oversize-local registration (global-table fallback) ----------------------

    def ifp_register_gt(mach, args, bounds):
        address, size, lt = args[0] & ((1 << 48) - 1), args[1], args[2]
        registered = global_table.try_register(address, size, lt)
        mach.stats.local_objects += 1
        if lt:
            mach.stats.local_objects_lt += 1
        if registered is None:
            # Table full under degrade policy: the oversize local keeps
            # its storage but escapes as an unprotected legacy pointer.
            mach.stats.degraded_allocs += 1
            if mach.obs is not None:
                mach.obs.degrade("global_table", "legacy_pointer", size,
                                 address)
                mach.obs.alloc_decision("global_table", "legacy_degrade",
                                        size, address)
            return address, None, 4, 4
        tagged, cycles, instrs = registered
        if mach.obs is not None:
            mach.obs.alloc_decision("global_table", "oversize_local",
                                    size, address)
            mach.obs.scheme_assigned("local", tagged, size, bool(lt))
        return tagged, Bounds(address, address + size), cycles, instrs

    def ifp_deregister_gt(mach, args, bounds):
        # Degraded locals come back as legacy pointers with no row to
        # release; clearing row 0 by mistake would corrupt a live entry.
        if unpack_tag(args[0]).scheme is not Scheme.GLOBAL_TABLE:
            return 0, None, 2, 2
        cycles, instrs = global_table.deregister(args[0])
        return 0, None, cycles, instrs

    builtins["__ifp_register_gt"] = ifp_register_gt
    builtins["__ifp_deregister_gt"] = ifp_deregister_gt

    # -- per-global getptr functions ------------------------------------------------

    def make_getptr(name: str):
        def getptr(mach, args, bounds):
            tagged = getptr_cache.get(name)
            if tagged is None:
                address, size, lt_addr, _reg = mach.image.global_info[name]
                if local_offset.supports_size(size):
                    md = local_offset.write_metadata(
                        mach.memory, address, size, lt_addr, mach.ifp.mac)
                    cycles = mach.hierarchy.access_cycles(
                        md, METADATA_BYTES, True) + 20
                    tagged = local_offset.make_pointer(address, address,
                                                       size)
                    instrs = 20
                else:
                    registered = global_table.try_register(
                        address, size, lt_addr)
                    if registered is None:
                        mach.stats.degraded_allocs += 1
                        if mach.obs is not None:
                            mach.obs.degrade("global_table",
                                             "legacy_pointer", size,
                                             address)
                        registered = (address, 4, 4)
                    tagged, cycles, instrs = registered
                mach.stats.global_objects += 1
                if lt_addr:
                    mach.stats.global_objects_lt += 1
                if mach.obs is not None:
                    mach.obs.scheme_assigned("global", tagged, size,
                                             bool(lt_addr))
                getptr_cache[name] = tagged
                if unpack_tag(tagged).scheme is Scheme.LEGACY:
                    bound = None  # degraded: no metadata, no checking
                else:
                    bound = Bounds(address_of(tagged),
                                   address_of(tagged) + size)
                machine_bounds_cache[name] = bound
                return tagged, bound, cycles, instrs
            return tagged, machine_bounds_cache[name], 4, 4
        return getptr

    machine_bounds_cache: Dict[str, Bounds] = {}
    for gname, info in machine.image.global_info.items():
        if info[3]:  # needs registration
            builtins[f"__ifp_getptr_{gname}"] = make_getptr(gname)

    # Comparison-baseline runtimes.
    if machine.program.defense == "asan":
        from repro.baselines.asan import install_asan_runtime
        builtins.update(install_asan_runtime(machine))

    return builtins
