"""The IFP execution unit: control registers, metadata port, promote engine.

This is the module that corresponds to the new execution unit the paper
adds to CVA6's execute stage.  It owns:

* the *control registers* — 16 subheap region descriptors plus the global
  metadata-table base (architectural state written by the runtime);
* the *metadata port* — the path through which promote fetches metadata
  from memory (sharing the L1 data cache with ordinary loads, which is
  what couples metadata locality to application cache behaviour);
* the *promote engine* implementing Figure 5;
* per-unit statistics that feed Table 4 and Figures 10–11.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from operator import attrgetter, sub
from typing import List, Optional

from repro.cache import LINE_SHIFT
from repro.errors import ResourceExhausted
from repro.ifp.config import IFPConfig, DEFAULT_CONFIG
from repro.ifp.mac import MacCache
from repro.ifp.narrow import fetch_chain, resolve_chain
from repro.ifp.poison import Poison
from repro.ifp.promote import PromoteOutcome, PromoteResult
from repro.ifp.schemes.global_table import GlobalTableScheme
from repro.ifp.schemes.local_offset import LocalOffsetScheme
from repro.ifp.schemes.subheap import SubheapRegion, SubheapScheme
from repro.ifp.tag import Scheme, address_of, unpack_tag, with_poison
from repro.temporal.registry import temporal_violation


class ControlRegisters:
    """Architectural control state for the metadata schemes."""

    def __init__(self, config: IFPConfig = DEFAULT_CONFIG):
        self.config = config
        self._subheap: List[Optional[SubheapRegion]] = \
            [None] * config.subheap_register_count
        self._global_table_base: int = 0
        #: bumped on every architectural write — keys the promote-result
        #: cache, so a control-register update invalidates cached promotes
        #: without scanning them
        self.version = 0

    @property
    def global_table_base(self) -> int:
        return self._global_table_base

    @global_table_base.setter
    def global_table_base(self, value: int) -> None:
        self._global_table_base = value
        self.version += 1

    # -- subheap registers ---------------------------------------------------

    def subheap_region(self, index: int) -> Optional[SubheapRegion]:
        if not (0 <= index < len(self._subheap)):
            return None
        return self._subheap[index]

    def allocate_subheap_register(self, region: SubheapRegion) -> int:
        """Find a free register (or one already holding ``region``)."""
        for index, existing in enumerate(self._subheap):
            if existing == region:
                return index
        for index, existing in enumerate(self._subheap):
            if existing is None:
                self._subheap[index] = region
                self.version += 1
                return index
        raise ResourceExhausted("all subheap control registers in use")


class MetadataPort:
    """Memory access path for the IFP unit's metadata fetches.

    Loads go through the shared L1 data cache (when a hierarchy is
    attached) and accumulate cycles in :attr:`cycles`; the promote engine
    reads the delta to cost each operation.
    """

    def __init__(self, memory, hierarchy=None):
        self.memory = memory
        self.hierarchy = hierarchy
        # The L1's hit test, inlined into every fetch: a fetch that stays
        # inside one line already resident in its set is counted here
        # (moving the line to MRU), as ``Cache.access`` counts it; any
        # other goes to ``_access``, which charges one cycle per fetch
        # when no hierarchy is attached.
        self._l1 = None
        self._access = _one_cycle
        if hierarchy is not None:
            l1d = hierarchy.l1d
            self._l1 = (l1d._sets, l1d._set_mask, l1d.stats,
                        hierarchy._hit_cycles)
            self._access = hierarchy.access_cycles
        self.cycles = 0
        self.loads = 0
        # The IFP unit holds the last-fetched L1 line in a line buffer,
        # so decoding multiple fields of one metadata record costs a
        # single cache access.
        self._buffered_line = -1
        #: fault injector (repro.resil.faults); None on the hot path
        self.faults = None
        #: what the current fetch serves ("metadata" | "layout" | None),
        #: set by the promote engine so injected corruption can target
        #: metadata words vs. layout-table entries
        self.phase = None
        # Recording of the promote-cache miss in flight: every load as
        # (address, size), and in ``_extra`` the deterministic
        # add_cycles total; None when nothing records.  ``_lone`` is
        # the segment the trace began with, if any.
        self._trace = None
        self._extra = 0
        self._lone = None

    def load(self, address: int, size: int) -> int:
        self.loads += 1
        line = address >> LINE_SHIFT
        last_line = (address + size - 1) >> LINE_SHIFT
        if line != self._buffered_line or last_line != line:
            l1 = self._l1
            if l1 is None:
                self.cycles += 1
            elif last_line != line:
                self.cycles += self._access(address, size, False)
            else:
                sets, mask, l1_stats, hit = l1
                lines = sets[line & mask]
                if lines and lines[-1] == line:
                    l1_stats.read_hits += 1
                    self.cycles += hit
                elif line in lines:
                    lines.remove(line)
                    lines.append(line)
                    l1_stats.read_hits += 1
                    self.cycles += hit
                else:
                    self.cycles += self._access(address, size, False)
            self._buffered_line = last_line
        trace = self._trace
        if trace is not None:
            trace.append((address, size))
        value = self.memory.load_int(address, size)
        if self.faults is not None:
            value = self.faults.on_metadata_load(address, size, value,
                                                 self.phase)
        return value

    def add_cycles(self, cycles: int) -> None:
        self.cycles += cycles
        if self._trace is not None:
            self._extra += cycles

    # -- cache support: record, compact and replay fetch sequences -------------

    def begin_trace(self) -> None:
        """Start recording every load and the add_cycles total."""
        self._trace = []
        self._extra = 0
        self._lone = None

    def end_trace(self):
        """Stop recording; returns ``(loads, extra, compacted)``: every
        load since :meth:`begin_trace` as ``(address, size)``, in order,
        the add_cycles total and :meth:`compact` of the loads.  A trace
        that is one segment (a subheap block's record, recorded or
        replayed, and nothing else) shares that segment's compaction."""
        loads = self._trace
        self._trace = None
        lone = self._lone
        if lone is not None and len(lone[0]) == len(loads):
            return loads, self._extra, lone[2:]
        return loads, self._extra, self.compact(loads)

    def mark(self):
        """A point in the trace that :meth:`segment` records from."""
        return len(self._trace), self._extra

    def segment(self, mark):
        """The loads and cycles traced since ``mark``, as a replayable
        segment ``(loads, extra, ranges, first_line, every, later,
        final_line)`` (see :meth:`compact`)."""
        count, extra = mark
        loads = self._trace[count:]
        segment = (loads, self._extra - extra) + self.compact(loads)
        if not count:
            self._lone = segment
        return segment

    def replay(self, segment) -> None:
        """Apply a :meth:`segment` as if its loads ran again: the line
        buffer, the L1 and every counter end as a live run leaves them,
        and the trace in progress records the loads.  A promote-cache
        hit runs the same loop inline (:meth:`IFPUnit.promote`)."""
        loads, extra, _ranges, first_line, every, later, final_line = segment
        self.loads += len(loads)
        spent = extra
        hits = 0
        for line, lines, address, size in (
                later if self._buffered_line == first_line else every):
            if lines and lines[-1] == line:
                hits += 1
            elif line in lines:
                lines.remove(line)
                lines.append(line)
                hits += 1
            else:
                spent += self._access(address, size, False)
        if hits:
            _sets, _mask, l1_stats, hit = self._l1
            l1_stats.read_hits += hits
            spent += hits * hit
        self._buffered_line = final_line
        self.cycles += spent
        trace = self._trace
        if not trace:
            self._lone = segment
        trace.extend(loads)
        self._extra += extra

    def compact(self, loads):
        """What a replay of the traced ``loads`` needs, and the bytes
        they read: ``(ranges, first_line, every, later, final_line)``.

        ``ranges`` are the bytes as sorted ``(lo, hi)`` half-open spans,
        overlapping and adjacent ones merged.  After any load the line
        buffer holds that load's last line, so a later load reaches the
        L1 exactly when it leaves the line the load before it left
        buffered; that was fixed when it was traced.  Only the first
        load can hit the line buffer depending on the state a replay
        starts from.  ``every`` lists the loads that can reach the L1,
        the first always included, and ``later`` lists them without the
        first; a replay takes ``later`` when the buffered line is
        ``first_line`` (-2, never buffered, when the first load spans
        two lines) and leaves ``final_line`` buffered.  Each listed
        fetch is ``(line, set_lines, address, size)``: its line and that
        line's L1 set list, or ``(-1, ())`` when the fetch spans two
        lines or no hierarchy is attached, so that only ``_access`` can
        serve it.
        """
        if not loads:
            # a bypassed promote fetches nothing; its replay is skipped
            return (), -2, (), (), -1
        sets, mask = self._l1[:2] if self._l1 else ((), 0)
        every = []
        buffered = None
        for address, size in loads:
            line = address >> LINE_SHIFT
            last_line = (address + size - 1) >> LINE_SHIFT
            if line != buffered or last_line != line:
                if sets and last_line == line:
                    every.append((line, sets[line & mask], address, size))
                else:
                    every.append((-1, (), address, size))
                buffered = last_line
        address, size = loads[0]
        first_line = address >> LINE_SHIFT
        if (address + size - 1) >> LINE_SHIFT != first_line:
            first_line = -2
        ranges = _merged([(address, address + size)
                          for address, size in loads])
        return ranges, first_line, tuple(every), tuple(every[1:]), buffered


def _one_cycle(address: int, size: int, write: bool) -> int:
    """The cost of a metadata fetch when no hierarchy is attached."""
    return 1


@dataclass
class IFPUnitStats:
    """Counters matching the paper's evaluation breakdowns."""

    promotes_total: int = 0
    promotes_valid: int = 0            #: performed a metadata lookup
    promotes_null: int = 0
    promotes_legacy: int = 0
    promotes_poisoned: int = 0
    promotes_metadata_invalid: int = 0
    lookups_local_offset: int = 0
    lookups_subheap: int = 0
    lookups_global_table: int = 0
    narrow_attempts: int = 0           #: promote with non-zero subobject index
    narrow_success: int = 0
    narrow_no_layout_table: int = 0    #: narrowing wanted but layout_ptr == 0
    narrow_walk_failures: int = 0
    mac_failures: int = 0
    temporal_probes: int = 0           #: promote-time lock==key comparisons
    temporal_faults: int = 0           #: promote-time temporal violations
    promote_cycles: int = 0
    # Host-side cache effectiveness (no simulated-cost meaning; the caches
    # change nothing about simulated cycles/loads, only host work).
    mac_cache_hits: int = 0
    mac_cache_misses: int = 0
    #: always 0; kept only because the frozen perfbench ledger reads it
    layout_cache_hits: int = 0
    #: always 0; kept only because the frozen perfbench ledger reads it
    layout_cache_misses: int = 0
    promote_cache_hits: int = 0
    promote_cache_misses: int = 0
    #: misses served a subheap block's metadata record by its entry
    promote_block_hits: int = 0
    #: always 0; kept only because the frozen perfbench ledger reads it
    promote_elisions: int = 0
    #: entries dropped by a clear-on-full (capacity pressure)
    promote_cache_evictions: int = 0
    #: entries dropped because a guest store hit bytes they read
    promote_cache_invalidations: int = 0

    @property
    def promotes_bypassed(self) -> int:
        return (self.promotes_null + self.promotes_legacy
                + self.promotes_poisoned)


#: counters that track cache queries themselves — excluded from the
#: promote-cache's replayed stat deltas (a replayed promote performs no
#: MAC-memo queries) and from perfbench's golden digests
_CACHE_COUNTER_FIELDS = frozenset((
    "mac_cache_hits", "mac_cache_misses",
    "layout_cache_hits", "layout_cache_misses",
    "promote_cache_hits", "promote_cache_misses", "promote_block_hits",
    "promote_elisions", "promote_cache_evictions",
    "promote_cache_invalidations",
))

#: stat fields *excluded* from the promote-result cache's replayed
#: deltas: ``promote_cycles`` because a replay recomputes it from the
#: live metadata-port cycle delta (line-buffer state differs per
#: replay), and the cache counters because a replayed promote performs
#: no MAC-memo queries
_PROMOTE_DELTA_EXCLUDED = _CACHE_COUNTER_FIELDS | {"promote_cycles"}

#: the stat fields a promote-cache entry replays, and their values
_DELTA_FIELDS = tuple(f.name for f in fields(IFPUnitStats)
                      if f.name not in _PROMOTE_DELTA_EXCLUDED)
_delta_vector = attrgetter(*_DELTA_FIELDS)

#: capacity bounding host memory under adversarial inputs; a full cache
#: is cleared (as the MAC memo is)
_PROMOTE_CACHE_CAPACITY = 1 << 16


class IFPUnit:
    """The promote engine (paper Figure 5 + Figure 2)."""

    def __init__(self, memory, hierarchy=None,
                 config: IFPConfig = DEFAULT_CONFIG, mac_key: int = 0x1F9A7):
        config.validate()
        self.config = config
        self.mac_key = mac_key
        self.port = MetadataPort(memory, hierarchy)
        self.control = ControlRegisters(config)
        self.local_offset = LocalOffsetScheme(config)
        self.subheap = SubheapScheme(config)
        self.global_table = GlobalTableScheme(config)
        self.stats = IFPUnitStats()
        #: memoized MAC engine shared by the schemes' lookup paths
        self.mac = MacCache(mac_key, self.stats)
        #: observer shared with the machine (repro.obs.attach_observer);
        #: None keeps every emission on its zero-cost disabled path
        self.obs = None
        #: fault injector (repro.resil.faults.FaultInjector.arm); None
        #: keeps promote on its zero-cost path
        self.faults = None
        #: temporal lock registry (repro.temporal.TemporalRegistry),
        #: attached by the Machine when ``MachineConfig.temporal`` is not
        #: "off"; None keeps promote free of any lock probing
        self.temporal = None
        # The one host-side promote cache.  It is active under *both*
        # execution engines (reference and fastpath), which is what keeps
        # RunStats / IFPUnitStats trivially identical across engines.  A
        # fault injector or an observer bypasses it, so those runs see
        # every promote (and every layout walk) computed live.  It holds
        # two kinds of entry: a promote's result keyed by its version
        # vector (see :meth:`promote`), and a subheap block's fetched
        # metadata keyed by (register, block base, subobject index,
        # control version) (see :meth:`_subheap_block`).
        self._promote_cache = {}
        # Which entries read which bytes: L1 line -> {byte ranges ->
        # keys}.  An entry's ranges are the merged ``[lo, hi)`` spans of
        # every metadata load it made, and its key set is one object
        # shared by every line those ranges touch, so a store that
        # overlaps them drops the whole set from each of its lines.
        # Every key listed is live and no bucket is empty.
        self._promote_deps = {}
        # One shared row of the stat fields a cache hit increments, each
        # named once per unit of its delta and ``promote_cache_hits``
        # included, per distinct vector of stat deltas: the entries of
        # a run carry a handful of rows.
        self._delta_rows = {}
        # The unit must see every guest store (line-buffer staleness +
        # cache invalidation), so it claims the memory's snoop hooks.
        memory.watcher = self.snoop_store
        memory.unmap_watcher = self.on_unmap

    # -- cache plumbing --------------------------------------------------------

    def snoop_store(self, address: int, size: int) -> None:
        """Guest-store snoop (installed as ``Memory.watcher``).

        Keeps the metadata line buffer honest (a store to the buffered
        line must force the next promote to re-fetch it — cycle-model
        fidelity) and drops the promote-cache entries that read any of
        the stored bytes.
        """
        first = address >> LINE_SHIFT
        last = (address + size - 1) >> LINE_SHIFT
        port = self.port
        buffered = port._buffered_line
        if buffered >= 0 and first <= buffered <= last:
            port._buffered_line = -1
        deps = self._promote_deps
        if not deps or size <= 0:
            return
        end = address + size
        stale = None
        for line in range(first, last + 1):
            bucket = deps.get(line)
            if bucket is not None:
                for ranges in bucket:
                    for lo, hi in ranges:
                        if lo < end and address < hi:
                            if stale is None:
                                stale = [ranges]
                            elif ranges not in stale:
                                stale.append(ranges)
                            break
        if stale is not None:
            cache = self._promote_cache
            dropped = 0
            for ranges in stale:
                for key in self._undepend(ranges):
                    del cache[key]
                    dropped += 1
            self.stats.promote_cache_invalidations += dropped

    def on_unmap(self, base: int, size: int) -> None:
        """Unmap snoop (installed as ``Memory.unmap_watcher``): flush the
        promote cache — unmapped metadata must fault again on promote."""
        self._promote_cache.clear()
        self._promote_deps.clear()

    def _depend(self, key, ranges) -> None:
        """Record that entry ``key`` read the bytes of ``ranges``
        (:meth:`MetadataPort.compact`)."""
        deps = self._promote_deps
        bucket = deps.get(ranges[0][0] >> LINE_SHIFT)
        keys = bucket.get(ranges) if bucket is not None else None
        if keys is not None:
            keys.add(key)
            return
        keys = {key}
        for line in _lines(ranges):
            bucket = deps.get(line)
            if bucket is None:
                deps[line] = {ranges: keys}
            else:
                bucket[ranges] = keys

    def _undepend_key(self, key, ranges) -> None:
        """Remove ``key`` alone from the key set of ``ranges``."""
        keys = self._promote_deps[ranges[0][0] >> LINE_SHIFT][ranges]
        keys.discard(key)
        if not keys:
            self._undepend(ranges)

    def _undepend(self, ranges):
        """Remove the key set of ``ranges`` from every line it touches,
        pruning emptied buckets; returns the set."""
        deps = self._promote_deps
        keys = None
        for line in _lines(ranges):
            bucket = deps[line]
            keys = bucket.pop(ranges)
            if not bucket:
                del deps[line]
        return keys

    def _insert_promote(self, key, recording) -> None:
        """Cache an entry: ``recording`` is ``(entry, ranges)``, where
        ``ranges`` are the bytes of every metadata load the entry's
        result depends on (:meth:`MetadataPort.compact`)."""
        entry, ranges = recording
        cache = self._promote_cache
        if len(cache) >= _PROMOTE_CACHE_CAPACITY:
            self.stats.promote_cache_evictions += len(cache)
            cache.clear()
            self._promote_deps.clear()
        cache[key] = entry
        if ranges:
            self._depend(key, ranges)

    # -- the promote instruction ----------------------------------------------

    def promote(self, pointer: int) -> PromoteResult:
        """Execute one promote; returns the resulting IFPR.

        Unless a fault injector or an observer is armed, results are
        served from / recorded into the promote cache keyed by the
        version vector ``(pointer, control.version[, registry.version])``;
        a hit re-applies the recorded stat deltas and replays the
        compacted fetch trace (:meth:`MetadataPort.compact`) through the
        live line buffer and L1, so every simulated observable (cycles,
        loads, L1 state, counters) matches a recomputed promote exactly.
        A miss executes the promote with subheap block entries
        (:meth:`_subheap_block`) serving its metadata fetches.  Armed
        runs take :meth:`_promote_execute` uncached, the oracle.
        """
        if self.faults is None and self.port.faults is None \
                and self.obs is None:
            stats = self.stats
            registry = self.temporal
            # the registry version joins the key so a free/realloc (or an
            # injected lock corruption) can never replay a cached bounds
            # register whose temporal fact is stale
            key = ((pointer, self.control.version) if registry is None
                   else (pointer, self.control.version, registry.version))
            cache = self._promote_cache
            cached = cache.get(key)
            if cached is not None:
                # ``spent`` starts at the recorded add_cycles total and
                # gathers the replayed fetches' cycles
                (result_pointer, bounds, outcome, narrowed, narrow_attempted,
                 deltas, spent, loads, first_line, every, later,
                 final_line) = cached
                counters = stats.__dict__
                for name in deltas:
                    counters[name] += 1
                port = self.port
                if loads:
                    # MetadataPort.replay's loop, inlined on the hot path
                    port.loads += loads
                    hits = 0
                    for line, lines, address, size in (
                            later if port._buffered_line == first_line
                            else every):
                        if lines and lines[-1] == line:
                            hits += 1
                        elif line in lines:
                            lines.remove(line)
                            lines.append(line)
                            hits += 1
                        else:
                            spent += port._access(address, size, False)
                    if hits:
                        _sets, _mask, l1_stats, hit = port._l1
                        l1_stats.read_hits += hits
                        spent += hits * hit
                    port._buffered_line = final_line
                port.cycles += spent
                cycles = self.config.promote_base_cycles + spent
                counters["promote_cycles"] += cycles
                return PromoteResult(result_pointer, bounds, outcome,
                                     narrowed, narrow_attempted, cycles)
            stats.promote_cache_misses += 1
            before = _delta_vector(stats)
            port = self.port
            port.begin_trace()
            try:
                result = self._promote_execute(pointer, True)
            finally:
                loads, extra, compacted = port.end_trace()
            vector = tuple(map(sub, _delta_vector(stats), before))
            deltas = self._delta_rows.get(vector)
            if deltas is None:
                deltas = self._delta_rows[vector] = tuple(
                    name for name, delta in zip(_DELTA_FIELDS, vector)
                    for _ in range(delta)) + ("promote_cache_hits",)
            ranges, first_line, every, later, final_line = compacted
            self._insert_promote(key, (
                (result.pointer, result.bounds, result.outcome,
                 result.narrowed, result.narrow_attempted, deltas, extra,
                 len(loads), first_line, every, later, final_line), ranges))
            return result
        return self._promote_execute(pointer)

    def dry_run(self, pointer: int) -> PromoteResult:
        """Execute one promote that nothing in the machine can observe:
        the uncached promote runs on a shallow copy of this unit (a new
        one would claim the memory's snoop hooks) with fresh stats and
        MAC memo, a metadata port outside the cache hierarchy, and no
        observer or fault injector.  Memory, control registers and the
        temporal registry are only read; a ``MemoryFault`` or
        ``TemporalViolation`` propagates."""
        probe = copy.copy(self)
        probe.stats = IFPUnitStats()
        probe.mac = MacCache(self.mac_key, probe.stats)
        probe.port = MetadataPort(self.port.memory)
        probe.obs = None
        probe.faults = None
        return probe._promote_execute(pointer)

    # -- subheap block entries -------------------------------------------------

    def _subheap_block(self, key, region: SubheapRegion, block_base: int):
        """The promote-cache entry of a subheap block: ``[key, record,
        mac_checked, record_segment, chain, walk_segment]``.

        ``key`` is ``(register, block base, subobject index, control
        version)``.  The first miss into the block runs the fetch half
        (:meth:`SubheapScheme.fetch`) and records its loads as a
        segment (:meth:`MetadataPort.segment`); a later one replays
        that segment instead.  The layout walk's fetch half is recorded
        apart, by :meth:`_block_chain`, the first time a pointer in the
        slot array needs it.
        """
        port = self.port
        block = self._promote_cache.get(key)
        if block is not None:
            self.stats.promote_block_hits += 1
            port.replay(block[3])
            return block
        mark = port.mark()
        record, mac_checked = self.subheap.fetch(region, block_base, port,
                                                 self.mac)
        segment = port.segment(mark)
        block = [key, record, mac_checked, segment, None, None]
        self._insert_promote(key, (block, segment[2]))
        return block

    def _block_chain(self, block, layout_ptr: int, subobject_index: int):
        """The layout chain of a block entry (:func:`fetch_chain`):
        recorded on first use, and from then on replayed."""
        port = self.port
        segment = block[5]
        if segment is not None:
            port.replay(segment)
            return block[4]
        mark = port.mark()
        block[4] = fetch_chain(port, self.config, layout_ptr,
                               subobject_index)
        block[5] = segment = port.segment(mark)
        # the entry now depends on the table's bytes as well
        key = block[0]
        record_ranges = block[3][2]
        self._undepend_key(key, record_ranges)
        self._depend(key, _merged(record_ranges + segment[2]))
        return block[4]

    def _promote_execute(self, pointer: int,
                         blocks: bool = False) -> PromoteResult:
        """The uncached promote path (paper Figure 5): the oracle every
        promote-cache replay must reproduce.  With ``blocks`` (a
        promote-cache miss, its trace running), a subheap promote takes
        the fetch halves of its lookup and layout walk from its block's
        entry; the resolve halves always run live."""
        stats = self.stats
        config = self.config
        port = self.port
        stats.promotes_total += 1
        start_cycles = port.cycles
        if self.faults is not None:
            pointer = self.faults.on_promote(pointer)
        tag = unpack_tag(pointer)
        address = address_of(pointer)

        # 1. Poison gate.
        if tag.poison.irrecoverable:
            stats.promotes_poisoned += 1
            cycles = config.promote_base_cycles
            stats.promote_cycles += cycles
            return PromoteResult(pointer, None,
                                 PromoteOutcome.BYPASS_POISONED,
                                 cycles=cycles)

        # 2. Legacy gate (includes NULL).
        if tag.scheme is Scheme.LEGACY:
            if address == 0:
                stats.promotes_null += 1
                outcome = PromoteOutcome.BYPASS_NULL
            else:
                stats.promotes_legacy += 1
                outcome = PromoteOutcome.BYPASS_LEGACY
            cycles = config.promote_base_cycles
            stats.promote_cycles += cycles
            return PromoteResult(pointer, None, outcome, cycles=cycles)

        # 3. Scheme dispatch and metadata lookup.
        narrow_attempted = False
        start_loads = port.loads
        port.phase = "metadata"
        block = None
        subobject_index = tag.subobject_index(config)
        if tag.scheme is Scheme.LOCAL_OFFSET:
            stats.lookups_local_offset += 1
            metadata, mac_checked = self.local_offset.lookup(
                address, tag, port, self.mac)
        elif tag.scheme is Scheme.SUBHEAP:
            stats.lookups_subheap += 1
            register = tag.subheap_register_index(config)
            region = self.control.subheap_region(register)
            if region is None:
                metadata, mac_checked = None, False
            else:
                block_base = region.block_base(address)
                if blocks:
                    block = self._subheap_block(
                        (register, block_base, subobject_index,
                         self.control.version), region, block_base)
                    record, mac_checked = block[1], block[2]
                else:
                    record, mac_checked = self.subheap.fetch(
                        region, block_base, port, self.mac)
                metadata = self.subheap.resolve(record, block_base,
                                                address, port)
        else:
            stats.lookups_global_table += 1
            metadata, mac_checked = self.global_table.lookup(
                address, tag, port, self.control)
        port.phase = None

        obs = self.obs
        if obs is not None:
            obs.metadata_fetch(tag.scheme.name,
                               port.loads - start_loads,
                               port.cycles - start_cycles,
                               metadata is not None)
            if mac_checked:
                obs.mac_verify(tag.scheme.name, metadata is not None)

        if metadata is None:
            stats.promotes_metadata_invalid += 1
            if mac_checked:
                stats.mac_failures += 1
            cycles = (config.promote_base_cycles
                      + (port.cycles - start_cycles))
            stats.promote_cycles += cycles
            return PromoteResult(with_poison(pointer, Poison.INVALID), None,
                                 PromoteOutcome.METADATA_INVALID,
                                 cycles=cycles)

        stats.promotes_valid += 1
        bounds = metadata.bounds
        narrowed = False

        # 3b. Temporal lock-and-key check (repro.temporal): probe the
        # allocation registry at the pre-narrowing base.  A mismatching
        # or dead lock is a use-after-free — trap before narrowing ever
        # runs.  Untracked bases (stack/global objects, or allocations
        # minted while the policy was off) skip the comparison.
        registry = self.temporal
        tkey = 0
        tbase = 0
        if registry is not None:
            tkey = tag.temporal_key(config)
            if tkey:
                tbase = bounds.lower
                t_entry = registry.probe(tbase)
                if t_entry is None:
                    tkey = 0
                else:
                    stats.temporal_probes += 1
                    if not t_entry[1] or t_entry[0] != tkey:
                        stats.temporal_faults += 1
                        raise temporal_violation(
                            "promote", pointer, tbase, tkey, t_entry)

        # 4. Subobject narrowing.
        if subobject_index != 0:
            narrow_attempted = True
            stats.narrow_attempts += 1
            if not config.narrowing_enabled or metadata.layout_ptr == 0:
                stats.narrow_no_layout_table += 1
                if obs is not None:
                    obs.narrow("disabled" if not config.narrowing_enabled
                               else "no_layout_table")
            else:
                port.phase = "layout"
                if block is None:
                    chain = fetch_chain(port, config, metadata.layout_ptr,
                                        subobject_index)
                else:
                    chain = self._block_chain(block, metadata.layout_ptr,
                                              subobject_index)
                bounds, exact = resolve_chain(port, config, chain, bounds,
                                              address)
                port.phase = None
                if exact:
                    stats.narrow_success += 1
                    narrowed = True
                else:
                    stats.narrow_walk_failures += 1
                if obs is not None:
                    obs.narrow("ok" if exact else "walk_failure")

        # 5. Re-attach the temporal fact to whatever bounds narrowing
        # produced, so implicit deref checks keep comparing lock == key.
        if tkey:
            bounds = bounds.with_temporal(tbase, tkey)

        # 6. Fused size check -> output poison bits.
        if bounds.contains(address):
            poison = Poison.VALID
        else:
            poison = Poison.RECOVERABLE
        cycles = config.promote_base_cycles + (port.cycles - start_cycles)
        stats.promote_cycles += cycles
        return PromoteResult(with_poison(pointer, poison), bounds,
                             PromoteOutcome.VALID,
                             narrowed=narrowed,
                             narrow_attempted=narrow_attempted,
                             cycles=cycles)


def _merged(spans) -> tuple:
    """``(lo, hi)`` half-open byte spans, sorted, with overlapping and
    adjacent ones merged."""
    spans = sorted(spans)
    merged = []
    lo, hi = spans[0]
    for start, end in spans:
        if start > hi:
            merged.append((lo, hi))
            lo = start
            hi = end
        elif end > hi:
            hi = end
    merged.append((lo, hi))
    return tuple(merged)


def _lines(ranges):
    """Every L1 line the byte ``ranges`` touch, in order."""
    lines = []
    for lo, hi in ranges:
        first = lo >> LINE_SHIFT
        if lines and lines[-1] == first:
            first += 1
        lines.extend(range(first, ((hi - 1) >> LINE_SHIFT) + 1))
    return lines
