"""Deterministic, seeded fault injection for the IFP pipeline.

A :class:`FaultPlan` is a declarative description of *what* to corrupt
and *how often*; :class:`FaultInjector` applies it to one machine by
installing hooks at three choke points:

* the promote engine (``IFPUnit.promote``) — pointer-tag bit flips as
  the pointer enters the unit, modelling an attacker (or soft error)
  forging the 16-bit tag;
* the metadata port (``MetadataPort.load``) — corruption of metadata
  words, MAC fields, and layout-table entries *as fetched*, modelling
  heap sprays over metadata regions (the paper's Section 3.3.2 threat);
* the allocators — resource-exhaustion faults (global-table drain,
  subheap-register pressure, malloc returning NULL), modelling hostile
  or merely unlucky allocation patterns.

Everything is a pure function of ``FaultPlan.seed``: the injector draws
from its own :class:`random.Random` and never touches global state, so
a campaign cell can be replayed bit-for-bit from its plan.

Fault classes
=============

===========================  ===========================================
class                        effect
===========================  ===========================================
``tag_bit_flip``             flip ``bits`` random bits among pointer
                             bits 48–61 (scheme + payload) at promote
``metadata_corrupt``         flip ``bits`` random bits in any metadata
                             word fetched during a scheme lookup
``mac_corrupt``              flip ``bits`` random bits in 6-byte (MAC)
                             fields fetched during a scheme lookup
``layout_corrupt``           flip ``bits`` random bits in layout-table
                             words fetched during subobject narrowing
``global_table_exhaust``     drain the global table at arm time,
                             leaving ``payload`` rows free
``subheap_register_pressure``fill subheap control registers at arm
                             time, leaving ``payload`` registers free
``alloc_oom``                after ``start`` successful allocations,
                             every ``period``-th malloc returns NULL
``temporal_lock_corrupt``    re-key a live lock in the temporal
                             registry at every ``period``-th mint,
                             modelling corruption of the lock table's
                             generation field (requires the machine's
                             ``temporal`` policy armed; a no-op
                             otherwise)
===========================  ===========================================
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ifp.schemes.subheap import SubheapRegion

FAULT_CLASSES: Tuple[str, ...] = (
    "tag_bit_flip",
    "metadata_corrupt",
    "mac_corrupt",
    "layout_corrupt",
    "global_table_exhaust",
    "subheap_register_pressure",
    "alloc_oom",
    "temporal_lock_corrupt",
)

#: fault classes applied once when the injector is armed (the rest are
#: event-driven and gated by (start, period))
_ARM_TIME = ("global_table_exhaust", "subheap_register_pressure")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``start`` skips the first N opportunities (so the workload gets off
    the ground before faults begin); ``period`` then injects at every
    Nth opportunity.  ``bits`` is the number of bits flipped per
    injection; ``payload`` is class-specific (resources left free for
    the exhaustion classes).
    """

    fault: str
    period: int = 1
    start: int = 0
    bits: int = 1
    payload: int = 0

    def validate(self) -> None:
        if self.fault not in FAULT_CLASSES:
            raise ValueError(f"unknown fault class {self.fault!r}; "
                             f"expected one of {FAULT_CLASSES}")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.start < 0 or self.bits < 1 or self.payload < 0:
            raise ValueError("start/payload must be >= 0, bits >= 1")

    def to_dict(self) -> dict:
        return {"fault": self.fault, "period": self.period,
                "start": self.start, "bits": self.bits,
                "payload": self.payload}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(fault=data["fault"],
                   period=data.get("period", 1),
                   start=data.get("start", 0),
                   bits=data.get("bits", 1),
                   payload=data.get("payload", 0))


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the specs to apply — the unit of campaign replay."""

    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def validate(self) -> None:
        for spec in self.specs:
            spec.validate()

    @classmethod
    def single(cls, fault: str, seed: int, **kwargs) -> "FaultPlan":
        return cls(seed=seed, specs=(FaultSpec(fault=fault, **kwargs),))

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(seed=data["seed"],
                   specs=tuple(FaultSpec.from_dict(spec)
                               for spec in data["specs"]))


@dataclass
class _Injection:
    """Log record of one applied fault (feeds reports and tests)."""

    fault: str
    target: str
    detail: str


class FaultInjector:
    """Applies a :class:`FaultPlan` to one machine.

    Create one injector per run; ``arm(machine)`` installs the hooks
    and applies arm-time faults.  The injector keeps a log of every
    injection in :attr:`injections`.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: weak reference to the armed machine, whose observer hears of
        #: each injection: the machine holds the injector's hooks, so a
        #: strong one would make it a reference cycle
        self._machine = None
        self.injections: List[_Injection] = []
        #: per-spec opportunity counters (index-aligned with plan.specs)
        self._counts = [0] * len(plan.specs)
        self._by_class = {}
        for index, spec in enumerate(plan.specs):
            self._by_class.setdefault(spec.fault, []).append((index, spec))

    # -- wiring ---------------------------------------------------------------

    def arm(self, machine) -> None:
        """Install hooks on ``machine`` and apply arm-time faults."""
        self._machine = weakref.ref(machine)
        if any(f in self._by_class for f in
               ("tag_bit_flip", "metadata_corrupt", "mac_corrupt",
                "layout_corrupt")):
            machine.ifp.faults = self
            machine.ifp.port.faults = self
        for _index, spec in self._by_class.get("global_table_exhaust", ()):
            self._drain_global_table(machine, spec)
        for _index, spec in self._by_class.get(
                "subheap_register_pressure", ()):
            self._fill_subheap_registers(machine, spec)
        if "alloc_oom" in self._by_class:
            machine.freelist.faults = self
            machine.buddy.faults = self
        # With the temporal policy off there is no lock table to corrupt:
        # the machine stays untouched, so the cell classifies as
        # unaffected.
        if ("temporal_lock_corrupt" in self._by_class
                and machine.temporal is not None):
            machine.temporal.faults = self

    # -- event-driven hooks (called from the hooked components) ----------------

    def on_promote(self, pointer: int) -> int:
        """Called as a tagged pointer enters the promote engine."""
        for index, spec in self._by_class.get("tag_bit_flip", ()):
            if pointer == 0:
                continue
            if not self._due(index, spec):
                continue
            flipped = pointer
            for _ in range(spec.bits):
                bit = self.rng.randrange(48, 62)
                flipped ^= 1 << bit
            self._record(spec, "promote",
                         f"pointer 0x{pointer:016x} -> 0x{flipped:016x}")
            pointer = flipped
        return pointer

    def on_metadata_load(self, address: int, size: int, value: int,
                         phase: Optional[str]) -> int:
        """Called for every metadata-port load; may corrupt the value."""
        for fault, is_target in (
                ("metadata_corrupt", phase == "metadata"),
                ("mac_corrupt", phase == "metadata" and size == 6),
                ("layout_corrupt", phase == "layout")):
            for index, spec in self._by_class.get(fault, ()):
                if not is_target or not self._due(index, spec):
                    continue
                corrupted = value
                for _ in range(spec.bits):
                    corrupted ^= 1 << self.rng.randrange(size * 8)
                self._record(
                    spec, f"port.load[{phase}]",
                    f"0x{address:x}/{size}B "
                    f"0x{value:x} -> 0x{corrupted:x}")
                value = corrupted
        return value

    def on_alloc(self, target: str, field: str, value: int) -> bool:
        """Called as the free list or the buddy allocator (``target``)
        serves a request of ``field=value``: True fails it (NULL).  The
        ``alloc_oom`` spec armed last is asked first, and a failure
        leaves the earlier ones unasked."""
        for index, spec in reversed(self._by_class["alloc_oom"]):
            if self._due(index, spec):
                self._record(spec, target, f"{field}={value} -> NULL")
                return True
        return False

    def on_mint(self, registry) -> None:
        """Called after the temporal ``registry`` mints a lock: re-key a
        live lock at every due opportunity.

        The corrupted entry stays live with a different key, so every
        later lock==key comparison of a legitimately-minted pointer
        mismatches.  The resilience gate is that this surfaces as a
        typed :class:`repro.errors.TemporalViolation` (or is harmless
        when the allocation is never touched again) — never as silent
        output divergence, which the registry cannot cause: corruption
        only changes *check* outcomes, not data.
        """
        for index, spec in self._by_class["temporal_lock_corrupt"]:
            if self._due(index, spec):
                target = registry.any_live_base()
                if target is not None and registry.corrupt(target):
                    entry = registry.probe(target)
                    self._record(
                        spec, "temporal.registry",
                        f"lock for base 0x{target:x} re-keyed to "
                        f"{entry[0]}")

    # -- arm-time faults ------------------------------------------------------

    def _drain_global_table(self, machine, spec: FaultSpec) -> None:
        table = machine.global_table
        drained = 0
        while table.free_rows > spec.payload:
            table._free_rows.pop()
            drained += 1
        self._record(spec, "global_table",
                     f"drained {drained} rows, {table.free_rows} left")

    def _fill_subheap_registers(self, machine, spec: FaultSpec) -> None:
        registers = machine.ifp.control._subheap
        filled = 0
        for index in range(len(registers)):
            free = sum(1 for r in registers if r is None)
            if free <= spec.payload:
                break
            if registers[index] is None:
                # Distinct dummy regions (block_log2 26 is outside every
                # real size class, so no allocation ever matches one).
                registers[index] = SubheapRegion(26, index)
                filled += 1
        self._record(spec, "subheap_registers",
                     f"occupied {filled} control registers")

    # -- internals ------------------------------------------------------------

    def _due(self, index: int, spec: FaultSpec) -> bool:
        """Gate one opportunity for spec ``index`` through (start, period)."""
        count = self._counts[index]
        self._counts[index] = count + 1
        if count < spec.start:
            return False
        return (count - spec.start) % spec.period == 0

    def _record(self, spec: FaultSpec, target: str, detail: str) -> None:
        self.injections.append(_Injection(spec.fault, target, detail))
        machine = self._machine() if self._machine is not None else None
        if machine is not None and machine.obs is not None:
            machine.obs.fault_injected(spec.fault, target, detail)
