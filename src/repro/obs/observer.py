"""The observer: one object bundling bus, profiler, and forensics.

A :class:`Machine` carries ``machine.obs`` (default ``None``); every
instrumented site in the interpreter, the IFP unit, and the runtime
allocators guards its emission with a single ``obs is not None`` test,
so the disabled path costs one pointer comparison and allocates nothing.

:func:`attach_observer` wires an observer into a machine before ``run``:
it subscribes the requested sinks, mirrors itself onto the IFP unit (so
metadata/MAC/narrow events flow without a machine back-reference), and —
when forensics is requested — gives it a small instruction tracer so
trap reports include the last executed instructions.  The observer is
the machine's only instrument: the tracer rides on it
(:attr:`Observer.tracer`), and :func:`repro.debug.attach_tracer` arms a
bare observer to carry one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.debug.trace import Tracer
from repro.obs.events import (
    AllocEvent, DegradeEvent, Event, EventBus, FaultEvent, MacVerifyEvent,
    MetadataFetchEvent, NarrowEvent, SchemeAssignEvent, TrapEvent,
)
from repro.obs.forensics import ForensicsReport, capture_forensics
from repro.obs.profile import HotSiteProfiler

_SCHEME_NAMES = ("LEGACY", "LOCAL_OFFSET", "SUBHEAP", "GLOBAL_TABLE")


class Observer:
    """Aggregates observability state for one machine run."""

    def __init__(self, profile: bool = False, forensics: bool = False,
                 event_tail: int = 64) -> None:
        self.bus = EventBus()
        self.profiler: Optional[HotSiteProfiler] = None
        if profile:
            self.profiler = HotSiteProfiler()
            self.bus.subscribe(self.profiler.on_event)
        #: ring of the most recent events (feeds forensics reports)
        self.recent: Optional[Deque[Event]] = None
        if event_tail > 0:
            self.recent = deque(maxlen=event_tail)
            self.bus.subscribe(self.recent.append)
        self.forensics_enabled = forensics
        self.reports: List[ForensicsReport] = []
        #: code site of the instruction currently observed, set by the
        #: interpreter so unit-level events inherit the attribution
        self.site: Optional[Tuple[str, int]] = None
        #: optional instruction tracer (repro.debug.trace.Tracer),
        #: recorded before every executed instruction
        self.tracer: Optional[Tracer] = None
        #: engine that produced the observed run ("fastpath" |
        #: "reference"), stamped by Machine.run; exporters label
        #: profiles/forensics/metrics with it
        self.engine: Optional[str] = None

    # -- generic emission ----------------------------------------------------

    def emit(self, event: Event) -> None:
        self.bus.emit(event)

    # -- helpers for instrumented sites (one-liners at the call site) -------

    def scheme_assigned(self, region: str, pointer: int, size: int,
                        layout_table: bool) -> None:
        scheme = _SCHEME_NAMES[(pointer >> 60) & 3]
        self.bus.emit(SchemeAssignEvent(self.site, region, scheme, size,
                                        layout_table))

    def alloc_decision(self, allocator: str, action: str, size: int,
                       address: int) -> None:
        self.bus.emit(AllocEvent(self.site, allocator, action, size,
                                 address))

    def metadata_fetch(self, scheme: str, loads: int, cycles: int,
                       hit: bool) -> None:
        self.bus.emit(MetadataFetchEvent(self.site, scheme, loads,
                                         cycles, hit))

    def mac_verify(self, scheme: str, ok: bool) -> None:
        self.bus.emit(MacVerifyEvent(self.site, scheme, ok))

    def narrow(self, result: str) -> None:
        self.bus.emit(NarrowEvent(self.site, result))

    def degrade(self, resource: str, action: str, size: int,
                address: int) -> None:
        self.bus.emit(DegradeEvent(self.site, resource, action, size,
                                   address))

    def fault_injected(self, fault: str, target: str, detail: str) -> None:
        self.bus.emit(FaultEvent(self.site, fault, target, detail))

    # -- trap hook (called by Machine.run) -----------------------------------

    def on_trap(self, machine, trap) -> Optional[ForensicsReport]:
        self.bus.emit(TrapEvent(
            trap.pc if isinstance(trap.pc, tuple) else None,
            type(trap).__name__, str(trap),
            getattr(trap, "pointer", None)))
        if not self.forensics_enabled:
            return None
        report = capture_forensics(machine, trap)
        self.reports.append(report)
        return report

    @property
    def last_report(self) -> Optional[ForensicsReport]:
        return self.reports[-1] if self.reports else None


def attach_observer(machine, profile: bool = True, forensics: bool = True,
                    event_tail: int = 64,
                    tracer_capacity: int = 256) -> Observer:
    """Create an observer and wire it into ``machine`` (before ``run``).

    A tracer the machine's previous observer carries (e.g. from
    :func:`repro.debug.attach_tracer`) moves to the new one; otherwise
    ``forensics`` with ``tracer_capacity > 0`` gives it a fresh tracer.
    """
    obs = Observer(profile=profile, forensics=forensics,
                   event_tail=event_tail)
    if machine.obs is not None:
        obs.tracer = machine.obs.tracer
    if forensics and obs.tracer is None and tracer_capacity > 0:
        obs.tracer = Tracer(tracer_capacity)
    machine.obs = obs
    machine.ifp.obs = obs
    return obs
