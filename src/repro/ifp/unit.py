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
from dataclasses import dataclass
from typing import List, Optional

from repro.cache import LINE_SHIFT
from repro.errors import ResourceExhausted
from repro.ifp.config import IFPConfig, DEFAULT_CONFIG
from repro.ifp.mac import MacCache
from repro.ifp.narrow import narrow_bounds
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
        # Recording of the promote-cache miss in flight: ``[fetches,
        # extra, loads]`` where ``fetches`` lists, as (address, size),
        # the first fetch and each later one that leaves the buffered
        # line, ``extra`` is the deterministic add_cycles total and
        # ``loads`` the load count when recording began; None when
        # nothing records.
        self._trace = None

    def load(self, address: int, size: int) -> int:
        self.loads += 1
        line = address >> LINE_SHIFT
        last_line = (address + size - 1) >> LINE_SHIFT
        trace = self._trace
        if line != self._buffered_line or last_line != line:
            if trace is not None:
                trace[0].append((address, size))
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
        elif trace is not None and not trace[0]:
            # the first fetch, served by the line buffer here, reaches
            # the L1 when a replay finds another line buffered
            trace[0].append((address, size))
        value = self.memory.load_int(address, size)
        if self.faults is not None:
            value = self.faults.on_metadata_load(address, size, value,
                                                 self.phase)
        return value

    def add_cycles(self, cycles: int) -> None:
        self.cycles += cycles
        if self._trace is not None:
            self._trace[1] += cycles

    # -- cache support: record and compact fetch sequences --------------------

    def begin_trace(self) -> None:
        """Start recording the fetches that can reach the L1."""
        self._trace = [[], 0, self.loads]

    def end_trace(self):
        """Stop recording; returns ``(fetches, extra, loads)``."""
        fetches, extra, loads = self._trace
        self._trace = None
        return fetches, extra, self.loads - loads

    def compact(self, fetches):
        """What a replay of the recorded ``fetches`` needs:
        ``(first_line, every, later, final_line)``.

        Only the first fetch can hit the line buffer depending on the
        state a replay starts from: each later one follows a fetch that
        leaves its last line buffered, so whether it reaches the L1 was
        fixed when it was recorded.  ``every`` lists the fetches,
        and ``later`` lists them without the first; a replay takes
        ``later`` when the buffered line is ``first_line`` (-2, never
        buffered, when the first fetch spans two lines) and leaves
        ``final_line`` buffered.  Each listed fetch is ``(line,
        set_lines, address, size)``: its line and that line's L1 set
        list, or ``(-1, ())`` when the fetch spans two lines or no
        hierarchy is attached, so that only ``_access`` can serve it.
        """
        if not fetches:
            # a bypassed promote fetches nothing; its replay is skipped
            return -2, (), (), -1
        sets, mask = self._l1[:2] if self._l1 else ((), 0)
        every = []
        for address, size in fetches:
            line = address >> LINE_SHIFT
            if sets and (address + size - 1) >> LINE_SHIFT == line:
                every.append((line, sets[line & mask], address, size))
            else:
                every.append((-1, (), address, size))
        address, size = fetches[0]
        first_line = address >> LINE_SHIFT
        if (address + size - 1) >> LINE_SHIFT != first_line:
            first_line = -2
        address, size = fetches[-1]
        return (first_line, tuple(every), tuple(every[1:]),
                (address + size - 1) >> LINE_SHIFT)


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
    #: always 0; kept only because the frozen perfbench ledger reads it
    promote_elisions: int = 0
    #: entries dropped by a clear-on-full (capacity pressure)
    promote_cache_evictions: int = 0
    #: entries dropped because a guest store hit their metadata lines
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
    "promote_cache_hits", "promote_cache_misses",
    "promote_elisions", "promote_cache_evictions",
    "promote_cache_invalidations",
))

#: stat fields *excluded* from the promote-result cache's replayed
#: deltas: ``promote_cycles`` because a replay recomputes it from the
#: live metadata-port cycle delta (line-buffer state differs per
#: replay), and the cache counters because a replayed promote performs
#: no MAC-memo queries
_PROMOTE_DELTA_EXCLUDED = _CACHE_COUNTER_FIELDS | {"promote_cycles"}

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
        # every promote (and every layout walk) computed live.
        self._promote_cache = {}      # version-vector key -> entry
        self._promote_deps = {}       # L1 line -> {keys}
        # The unit must see every guest store (line-buffer staleness +
        # cache invalidation), so it claims the memory's snoop hooks.
        memory.watcher = self.snoop_store
        memory.unmap_watcher = self.on_unmap

    # -- cache plumbing --------------------------------------------------------

    def snoop_store(self, address: int, size: int) -> None:
        """Guest-store snoop (installed as ``Memory.watcher``).

        Keeps the metadata line buffer honest (a store to the buffered
        line must force the next promote to re-fetch it — cycle-model
        fidelity) and drops promote-cache entries whose recorded fetches
        overlap the stored lines.
        """
        first = address >> LINE_SHIFT
        last = (address + size - 1) >> LINE_SHIFT
        port = self.port
        buffered = port._buffered_line
        if buffered >= 0 and first <= buffered <= last:
            port._buffered_line = -1
        deps = self._promote_deps
        if not deps:
            return
        dropped = 0
        cache = self._promote_cache
        for line in range(first, last + 1):
            keys = deps.pop(line, None)
            if keys:
                for key in keys:
                    if cache.pop(key, None) is not None:
                        dropped += 1
        if dropped:
            self.stats.promote_cache_invalidations += dropped

    def on_unmap(self, base: int, size: int) -> None:
        """Unmap snoop (installed as ``Memory.unmap_watcher``): flush the
        promote cache — unmapped metadata must fault again on promote."""
        self._promote_cache.clear()
        self._promote_deps.clear()

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
        Armed runs take :meth:`_promote_execute`, the oracle.
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
            cached = self._promote_cache.get(key)
            if cached is not None:
                # ``spent`` starts at the recorded add_cycles total and
                # gathers the replayed fetches' cycles
                (result_pointer, bounds, outcome, narrowed, narrow_attempted,
                 deltas, spent, loads, first_line, every, later,
                 final_line) = cached
                counters = stats.__dict__
                counters["promote_cache_hits"] += 1
                for name, delta in deltas:
                    counters[name] += delta
                port = self.port
                if loads:
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
            before = stats.__dict__.copy()
            port = self.port
            port.begin_trace()
            try:
                result = self._promote_execute(pointer)
            finally:
                fetches, extra, loads = port.end_trace()
            after = stats.__dict__
            excluded = _PROMOTE_DELTA_EXCLUDED
            deltas = tuple((name, after[name] - value)
                           for name, value in before.items()
                           if after[name] != value and name not in excluded)
            self._insert_promote(key, (result, deltas, fetches, extra,
                                       loads))
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

    def _insert_promote(self, key, recording) -> None:
        """Cache the promote a miss just executed: ``recording`` is its
        ``(result, stat deltas, recorded fetches, extra cycles, load
        count)``.  The recorded fetches cover every L1 line the promote
        read: a fetch left out stayed inside the line the fetch before
        it left buffered."""
        result, deltas, fetches, extra, loads = recording
        cache = self._promote_cache
        deps = self._promote_deps
        if len(cache) >= _PROMOTE_CACHE_CAPACITY:
            self.stats.promote_cache_evictions += len(cache)
            cache.clear()
            deps.clear()
        cache[key] = (result.pointer, result.bounds, result.outcome,
                      result.narrowed, result.narrow_attempted, deltas,
                      extra, loads) + self.port.compact(fetches)
        lines = set()
        for address, size in fetches:
            first = address >> LINE_SHIFT
            last = (address + size - 1) >> LINE_SHIFT
            lines.add(first)
            if last != first:
                lines.update(range(first + 1, last + 1))
        for line in lines:
            bucket = deps.get(line)
            if bucket is None:
                deps[line] = {key}
            else:
                bucket.add(key)

    def _promote_execute(self, pointer: int) -> PromoteResult:
        """The uncached promote path (paper Figure 5): the oracle every
        promote-cache replay must reproduce."""
        stats = self.stats
        config = self.config
        stats.promotes_total += 1
        start_cycles = self.port.cycles
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
        start_loads = self.port.loads
        self.port.phase = "metadata"
        if tag.scheme is Scheme.LOCAL_OFFSET:
            stats.lookups_local_offset += 1
            metadata, mac_checked = self.local_offset.lookup(
                address, tag, self.port, self.mac)
        elif tag.scheme is Scheme.SUBHEAP:
            stats.lookups_subheap += 1
            metadata, mac_checked = self.subheap.lookup(
                address, tag, self.port, self.control, self.mac)
        else:
            stats.lookups_global_table += 1
            metadata, mac_checked = self.global_table.lookup(
                address, tag, self.port, self.control)
        self.port.phase = None

        obs = self.obs
        if obs is not None:
            obs.metadata_fetch(tag.scheme.name,
                               self.port.loads - start_loads,
                               self.port.cycles - start_cycles,
                               metadata is not None)
            if mac_checked:
                obs.mac_verify(tag.scheme.name, metadata is not None)

        if metadata is None:
            stats.promotes_metadata_invalid += 1
            if mac_checked:
                stats.mac_failures += 1
            cycles = (config.promote_base_cycles
                      + (self.port.cycles - start_cycles))
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
        subobject_index = tag.subobject_index(config)
        if subobject_index != 0:
            narrow_attempted = True
            stats.narrow_attempts += 1
            if not config.narrowing_enabled or metadata.layout_ptr == 0:
                stats.narrow_no_layout_table += 1
                if obs is not None:
                    obs.narrow("disabled" if not config.narrowing_enabled
                               else "no_layout_table")
            else:
                self.port.phase = "layout"
                result = narrow_bounds(self.port, config,
                                       metadata.layout_ptr, bounds,
                                       address, subobject_index)
                self.port.phase = None
                if result.exact:
                    stats.narrow_success += 1
                    narrowed = True
                else:
                    stats.narrow_walk_failures += 1
                bounds = result.bounds
                if obs is not None:
                    obs.narrow("ok" if result.exact else "walk_failure")

        # 5. Re-attach the temporal fact to whatever bounds narrowing
        # produced, so implicit deref checks keep comparing lock == key.
        if tkey:
            bounds = bounds.with_temporal(tbase, tkey)

        # 6. Fused size check -> output poison bits.
        if bounds.contains(address):
            poison = Poison.VALID
        else:
            poison = Poison.RECOVERABLE
        cycles = config.promote_base_cycles + (self.port.cycles - start_cycles)
        stats.promote_cycles += cycles
        return PromoteResult(with_poison(pointer, poison), bounds,
                             PromoteOutcome.VALID,
                             narrowed=narrowed,
                             narrow_attempted=narrow_attempted,
                             cycles=cycles)
