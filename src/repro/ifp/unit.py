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

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ResourceExhausted
from repro.ifp.bounds import Bounds
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

    def set_subheap_region(self, index: int, region: SubheapRegion) -> None:
        if not (0 <= index < len(self._subheap)):
            raise ValueError("subheap control register index out of range")
        self._subheap[index] = region
        self.version += 1

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
        self.cycles = 0
        self.loads = 0
        # The IFP unit holds the last-fetched line in a line buffer, so
        # decoding multiple fields of one metadata record costs a single
        # cache access.
        self._buffered_line = -1
        #: fault injector (repro.resil.faults); None on the hot path
        self.faults = None
        #: what the current fetch serves ("metadata" | "layout" | None),
        #: set by the promote engine so injected corruption can target
        #: metadata words vs. layout-table entries
        self.phase = None
        # Trace-recording stack for the host-side promote/layout caches:
        # each frame is ``[loads, extra]`` where ``loads`` is the ordered
        # (address, size) fetch sequence and ``extra`` the deterministic
        # add_cycles total.  Nested frames (a layout-walk recording inside
        # a promote recording) merge into their parent on end_trace.
        self._trace_stack = []

    def load(self, address: int, size: int) -> int:
        self.loads += 1
        line = address >> 6
        last_line = (address + size - 1) >> 6
        if line != self._buffered_line or last_line != line:
            if self.hierarchy is not None:
                self.cycles += self.hierarchy.access_cycles(
                    address, size, False)
            else:
                self.cycles += 1
            self._buffered_line = last_line
        value = self.memory.load_int(address, size)
        if self._trace_stack:
            self._trace_stack[-1][0].append((address, size))
        if self.faults is not None:
            value = self.faults.on_metadata_load(address, size, value,
                                                 self.phase)
        return value

    def add_cycles(self, cycles: int) -> None:
        self.cycles += cycles
        if self._trace_stack:
            self._trace_stack[-1][1] += cycles

    # -- cache support: record / replay fetch sequences -----------------------

    def begin_trace(self) -> None:
        """Start recording the fetch sequence (nestable)."""
        self._trace_stack.append([[], 0])

    def end_trace(self):
        """Stop recording; returns ``(loads, extra)`` and folds the frame
        into the enclosing recording, if any."""
        loads, extra = self._trace_stack.pop()
        if self._trace_stack:
            outer = self._trace_stack[-1]
            outer[0].extend(loads)
            outer[1] += extra
        return loads, extra

    def trace_mark(self):
        """Snapshot ``(loads so far, extra so far)`` of the current
        recording frame; the promote engine uses it to split a recorded
        trace at the metadata/layout phase boundary."""
        frame = self._trace_stack[-1]
        return len(frame[0]), frame[1]

    def replay(self, trace, extra: int) -> None:
        """Re-apply a recorded fetch sequence without touching memory.

        Reproduces :meth:`load`'s line-buffer and hierarchy effects access
        by access (so simulated cycles, load counts, and L1 state end up
        byte-identical to a recomputed promote), then charges the
        deterministic ``extra`` cycles in one step.
        """
        hierarchy = self.hierarchy
        for address, size in trace:
            self.loads += 1
            line = address >> 6
            last_line = (address + size - 1) >> 6
            if line != self._buffered_line or last_line != line:
                if hierarchy is not None:
                    self.cycles += hierarchy.access_cycles(
                        address, size, False)
                else:
                    self.cycles += 1
                self._buffered_line = last_line
        self.cycles += extra
        if self._trace_stack:
            frame = self._trace_stack[-1]
            frame[0].extend(trace)
            frame[1] += extra


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
    layout_cache_hits: int = 0
    layout_cache_misses: int = 0
    promote_cache_hits: int = 0
    promote_cache_misses: int = 0
    #: promotes served straight from the last-promote memo
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
#: MAC/layout-cache queries)
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
#: no MAC/layout-cache queries
_PROMOTE_DELTA_EXCLUDED = _CACHE_COUNTER_FIELDS | {"promote_cycles"}

#: capacity bounding host memory under adversarial inputs; a full cache
#: is cleared (as the MAC and layout-walk caches are)
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
        # Host-side result caches.  Both are active under *both* execution
        # engines (reference and fastpath), which is what keeps RunStats /
        # IFPUnitStats trivially identical across engines; they are
        # bypassed whenever a fault injector is armed.  An armed observer
        # no longer bypasses them: each entry carries a phase-split trace
        # plus the static facts of its emissions, so a replay re-emits the
        # exact event sequence a recomputed promote would.
        self._promote_cache = {}      # version-vector key -> entry
        self._promote_deps = {}       # 64-byte line -> {keys}
        self._layout_cache = {}       # (layout_ptr, subobject_index) -> walk
        self._layout_env = (0, 0)     # [base, end) of compile-time tables
        # Last-promote memo: valid while no entry has been dropped since
        # it was set.  ``_inval_epoch`` bumps whenever any cached promote
        # is discarded (store snoop, clear-on-full, unmap), which
        # over-approximates "this memo's entry died" safely.
        self._memo = None             # (key, entry) of the last promote
        self._memo_epoch = -1
        self._inval_epoch = 0
        # The unit must see every guest store (line-buffer staleness +
        # cache invalidation), so it claims the memory's snoop hooks.
        memory.watcher = self.snoop_store
        memory.unmap_watcher = self.on_unmap

    # -- cache plumbing --------------------------------------------------------

    def set_layout_envelope(self, base: int, end: int) -> None:
        """Declare the loader's contiguous layout-table region.

        Only walks whose ``layout_ptr`` falls inside the envelope are
        cached, so store-snooping the region with two compares is a sound
        invalidation rule (pointers outside it — e.g. forged by a fuzzed
        guest — always walk live).
        """
        self._layout_env = (base, end)

    def snoop_store(self, address: int, size: int) -> None:
        """Guest-store snoop (installed as ``Memory.watcher``).

        Keeps the metadata line buffer honest (a store to the buffered
        line must force the next promote to re-fetch it — cycle-model
        fidelity) and invalidates host-side cache entries whose recorded
        fetches overlap the stored lines.
        """
        first = address >> 6
        last = (address + size - 1) >> 6
        port = self.port
        buffered = port._buffered_line
        if buffered >= 0 and first <= buffered <= last:
            port._buffered_line = -1
        if self._layout_cache:
            lo, hi = self._layout_env
            if address < hi and address + size > lo:
                self._layout_cache.clear()
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
            self._inval_epoch += 1

    def on_unmap(self, base: int, size: int) -> None:
        """Unmap snoop (installed as ``Memory.unmap_watcher``): flush the
        promote and layout-walk caches — unmapped metadata must fault
        again on promote."""
        self._promote_cache.clear()
        self._promote_deps.clear()
        self._inval_epoch += 1
        self._layout_cache.clear()

    # -- the promote instruction ----------------------------------------------

    def promote(self, pointer: int) -> PromoteResult:
        """Execute one promote; returns the resulting IFPR.

        Unless a fault injector is armed, results are served from /
        recorded into the promote cache keyed by the version vector
        ``(pointer, control.version[, registry.version])``; a
        replay re-applies the recorded stat deltas and fetch trace through
        the live metadata port, so every simulated observable (cycles,
        loads, L1 state, counters) matches a recomputed promote exactly.
        With an observer armed the replay additionally re-emits the
        recorded event script with live-recomputed cycle payloads.
        """
        if self.faults is None and self.port.faults is None:
            stats = self.stats
            registry = self.temporal
            # the registry version joins the key so a free/realloc (or an
            # injected lock corruption) can never replay a cached bounds
            # register whose temporal fact is stale
            key = ((pointer, self.control.version) if registry is None
                   else (pointer, self.control.version, registry.version))
            memo = self._memo
            if memo is not None and self._memo_epoch == self._inval_epoch \
                    and memo[0] == key:
                stats.promote_elisions += 1
                return self._replay_promote(memo[1])
            cached = self._promote_cache.get(key)
            if cached is not None:
                stats.promote_cache_hits += 1
                self._memo = (key, cached)
                self._memo_epoch = self._inval_epoch
                return self._replay_promote(cached)
            stats.promote_cache_misses += 1
            before = stats.__dict__.copy()
            port = self.port
            port.begin_trace()
            rec: list = []
            try:
                result = self._promote_execute(pointer, rec)
            finally:
                trace, extra = port.end_trace()
            after = stats.__dict__
            excluded = _PROMOTE_DELTA_EXCLUDED
            deltas = [(name, after[name] - value)
                      for name, value in before.items()
                      if after[name] != value and name not in excluded]
            self._remember_promote(key, result, trace, extra, deltas, rec)
            return result
        return self._promote_execute(pointer)

    def _replay_promote(self, entry) -> PromoteResult:
        (pointer, bounds, outcome, narrowed, narrow_attempted,
         trace, extra, deltas, script) = entry
        stats = self.stats
        for name, delta in deltas:
            setattr(stats, name, getattr(stats, name) + delta)
        port = self.port
        start = port.cycles
        obs = self.obs
        if obs is None or script is None:
            port.replay(trace, extra)
        else:
            # Re-emit the recorded event script at the reference sites:
            # metadata_fetch after the metadata-phase fetches (cycle
            # payload recomputed from the live line-buffer state, exactly
            # as an uncached promote would observe it), then mac_verify,
            # then the layout-phase fetches, then the narrow verdict.
            (meta_trace, meta_extra, post_trace, post_extra,
             scheme, metadata_ok, mac_checked, narrow) = script
            port.replay(meta_trace, meta_extra)
            obs.metadata_fetch(scheme, len(meta_trace),
                               port.cycles - start, metadata_ok)
            if mac_checked:
                obs.mac_verify(scheme, metadata_ok)
            if post_trace or post_extra:
                port.replay(post_trace, post_extra)
            if narrow is not None:
                obs.narrow(narrow)
        cycles = self.config.promote_base_cycles + (port.cycles - start)
        stats.promote_cycles += cycles
        return PromoteResult(pointer, bounds, outcome, narrowed=narrowed,
                             narrow_attempted=narrow_attempted, cycles=cycles)

    def _remember_promote(self, key, result: PromoteResult, trace,
                          extra: int, deltas, rec) -> None:
        if rec:
            # split the trace at the metadata/layout phase boundary and
            # keep the static emission facts, so the entry can replay
            # under an armed observer as well as a disarmed one
            meta_len, meta_extra, scheme, metadata_ok, mac_checked, \
                narrow = rec
            script = (tuple(trace[:meta_len]), meta_extra,
                      tuple(trace[meta_len:]), extra - meta_extra,
                      scheme, metadata_ok, mac_checked, narrow)
        else:
            script = None  # bypass outcome: no fetches, no emissions
        entry = (result.pointer, result.bounds, result.outcome,
                 result.narrowed, result.narrow_attempted,
                 trace, extra, tuple(deltas), script)
        self._insert_promote(key, entry)
        self._memo = (key, entry)
        self._memo_epoch = self._inval_epoch

    def _insert_promote(self, key, entry) -> None:
        cache = self._promote_cache
        deps = self._promote_deps
        if len(cache) >= _PROMOTE_CACHE_CAPACITY:
            # clear-on-full; the memo may reference a dropped entry, so
            # the invalidation epoch must advance
            self.stats.promote_cache_evictions += len(cache)
            cache.clear()
            deps.clear()
            self._inval_epoch += 1
        cache[key] = entry
        lines = set()
        for address, size in entry[5]:
            first = address >> 6
            last = (address + size - 1) >> 6
            lines.add(first)
            if last != first:
                lines.update(range(first + 1, last + 1))
        for line in lines:
            bucket = deps.get(line)
            if bucket is None:
                deps[line] = {key}
            else:
                bucket.add(key)

    def _promote_execute(self, pointer: int, rec=None) -> PromoteResult:
        """The uncached promote path (paper Figure 5, exactly as before).

        ``rec``, when a list, collects the cache-entry script: the
        metadata-phase trace mark plus the static facts of every observer
        emission, in emission order."""
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

        if rec is not None:
            mark = self.port.trace_mark()
            rec += (mark[0], mark[1], tag.scheme.name,
                    metadata is not None, mac_checked)

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
            if rec is not None:
                rec.append(None)  # no narrow emission on this path
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
        narrow_event = None
        subobject_index = tag.subobject_index(config)
        if subobject_index != 0:
            narrow_attempted = True
            stats.narrow_attempts += 1
            if not config.narrowing_enabled or metadata.layout_ptr == 0:
                stats.narrow_no_layout_table += 1
                narrow_event = ("disabled" if not config.narrowing_enabled
                                else "no_layout_table")
                if obs is not None:
                    obs.narrow(narrow_event)
            else:
                walk_cache = None
                if self.faults is None and self.port.faults is None:
                    env_lo, env_hi = self._layout_env
                    if env_lo <= metadata.layout_ptr < env_hi:
                        walk_cache = self._layout_cache
                self.port.phase = "layout"
                result = narrow_bounds(self.port, config,
                                       metadata.layout_ptr, bounds,
                                       address, subobject_index,
                                       walk_cache, stats)
                self.port.phase = None
                if result.exact:
                    stats.narrow_success += 1
                    narrowed = True
                else:
                    stats.narrow_walk_failures += 1
                bounds = result.bounds
                narrow_event = "ok" if result.exact else "walk_failure"
                if obs is not None:
                    obs.narrow(narrow_event)

        if rec is not None:
            rec.append(narrow_event)

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
