"""Trap forensics: turn a memory-safety trap into a diagnosis report.

When an observed run ends in a :class:`~repro.errors.SimTrap`, this
module captures everything the machine still knows at delivery time —
the faulting site, the offending pointer's full tag anatomy (scheme,
poison, payload fields, dry-run promote via :mod:`repro.debug.anatomy`),
the bounds that tripped the check, a compact :class:`RunStats` snapshot,
the last K :class:`~repro.debug.trace.Tracer` events, and the most
recent observability events — and renders a self-contained report.

The fuzz driver writes these next to minimized corpus entries so a
failure ships with its own diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import BoundsTrap, PoisonTrap, SimTrap, TemporalViolation

#: traced instructions and recent events a report keeps
TAIL = 16


@dataclass
class ForensicsReport:
    """One diagnosed trap, self-contained and renderable."""

    trap_type: str
    message: str
    pc: Optional[Tuple[str, int]] = None
    pointer: Optional[int] = None
    scheme: Optional[str] = None
    poison: Optional[str] = None
    tag_fields: dict = field(default_factory=dict)
    #: (lower, upper) of the bounds that tripped the check, if any
    bounds: Optional[Tuple[int, int]] = None
    metadata_path: Optional[str] = None
    promote_outcome: Optional[str] = None
    anatomy_text: Optional[str] = None
    stats_snapshot: str = ""
    trace_tail: List[str] = field(default_factory=list)
    recent_events: List[str] = field(default_factory=list)
    #: correlation ids (tenant/job/shard/seed dict) when the trapping
    #: run belonged to a correlated campaign (repro.par / repro.serve)
    context: Optional[dict] = None

    def render(self) -> str:
        lines = ["=== trap forensics ==="]
        lines.append(f"trap      : {self.trap_type}: {self.message}")
        if self.context:
            ids = " ".join(f"{key}={value}"
                           for key, value in self.context.items()
                           if value is not None)
            lines.append(f"context   : {ids}")
        if self.pc is not None:
            lines.append(f"site      : {self.pc[0]}:{self.pc[1]}")
        if self.pointer is not None:
            lines.append(f"pointer   : 0x{self.pointer:016x}")
        if self.scheme is not None:
            lines.append(f"scheme    : {self.scheme}")
        if self.poison is not None:
            lines.append(f"poison    : {self.poison}")
        for name, value in self.tag_fields.items():
            lines.append(f"tag field : {name} = {value}")
        if self.bounds is not None:
            lower, upper = self.bounds
            lines.append(f"bounds    : [0x{lower:x}, 0x{upper:x}) "
                         f"({upper - lower} bytes)")
        if self.metadata_path is not None:
            lines.append(f"metadata  : {self.metadata_path}")
        if self.promote_outcome is not None:
            lines.append(f"promote   : {self.promote_outcome}")
        if self.anatomy_text:
            lines.append("--- pointer anatomy ---")
            lines.append(self.anatomy_text)
        if self.stats_snapshot:
            lines.append(f"stats     : {self.stats_snapshot}")
        if self.recent_events:
            lines.append(f"--- last {len(self.recent_events)} "
                         "observability events ---")
            lines.extend(self.recent_events)
        if self.trace_tail:
            lines.append(f"--- last {len(self.trace_tail)} "
                         "traced instructions ---")
            lines.extend(self.trace_tail)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "trap_type": self.trap_type, "message": self.message,
            "pc": list(self.pc) if self.pc else None,
            "pointer": self.pointer, "scheme": self.scheme,
            "poison": self.poison, "tag_fields": dict(self.tag_fields),
            "bounds": list(self.bounds) if self.bounds else None,
            "metadata_path": self.metadata_path,
            "promote_outcome": self.promote_outcome,
            "stats_snapshot": self.stats_snapshot,
            "trace_tail": list(self.trace_tail),
            "recent_events": list(self.recent_events),
            "context": dict(self.context) if self.context else None,
        }

    def write(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.render() + "\n")
        return path


#: temporal violation kind -> one-line lock-state diagnosis
_TEMPORAL_VERDICTS = {
    "stale_key": ("lock is LIVE with a different key: the allocation "
                  "was freed and its base reused; this pointer belongs "
                  "to the previous incarnation"),
    "freed_lock": ("lock is DEAD: the allocation was freed and never "
                   "reallocated (dangling-pointer dereference)"),
    "double_free": ("free through a pointer whose lock is already "
                    "dead (double free)"),
    "stale_free": ("free through a stale-generation pointer into a "
                   "reused allocation"),
}


def _temporal_anatomy(trap: TemporalViolation) -> str:
    """Render the lock-and-key anatomy of a temporal violation —
    the temporal counterpart of the spatial pointer anatomy."""
    lock_state = (f"{trap.lock} (live, mismatched)"
                  if trap.lock else "dead (no live lock)")
    verdict = _TEMPORAL_VERDICTS.get(trap.kind, trap.kind)
    return "\n".join([
        f"check origin  : {trap.origin or 'unknown'}",
        f"allocation    : base 0x{trap.address:x}",
        f"pointer key   : {trap.key}",
        f"registry lock : {lock_state}",
        f"verdict       : {trap.kind} — {verdict}",
    ])


def _metadata_path(anatomy) -> str:
    """Describe the route promote took to this pointer's metadata."""
    if anatomy.granule_offset is not None:
        path = (f"local-offset record {anatomy.granule_offset} granules "
                f"({anatomy.granule_offset * 16} bytes) below the pointer")
    elif anatomy.register_index is not None:
        path = f"subheap control register {anatomy.register_index}"
    elif anatomy.table_index is not None:
        path = f"global metadata table row {anatomy.table_index}"
    else:
        path = "no metadata (legacy pointer)"
    if anatomy.subobject_index:
        suffix = f"; layout-table walk to subobject #{anatomy.subobject_index}"
        if anatomy.narrowed:
            suffix += " (narrowed)"
        path += suffix
    return path


def capture_forensics(machine, trap: SimTrap) -> ForensicsReport:
    """Build a report from a live machine that just delivered ``trap``,
    with its last :data:`TAIL` traced instructions and events.

    Must run before the machine is discarded: the dry-run promote in the
    pointer anatomy reads the guest's still-mapped metadata.
    """
    report = ForensicsReport(
        trap_type=type(trap).__name__, message=str(trap),
        pc=trap.pc if isinstance(trap.pc, tuple) else None,
        stats_snapshot=machine.stats.compact())
    if machine.obs is not None:
        # inherit the campaign correlation ids riding on the bus
        ambient = getattr(machine.obs.bus, "context", None)
        if ambient is not None:
            report.context = ambient.to_dict()

    pointer = getattr(trap, "pointer", None)
    if pointer is not None and isinstance(trap, (PoisonTrap, BoundsTrap)):
        from repro.debug.anatomy import explain_pointer
        anatomy = explain_pointer(machine, pointer)
        report.pointer = pointer
        report.scheme = anatomy.scheme
        report.poison = anatomy.poison
        report.tag_fields = {"payload": f"0x{anatomy.payload:03x}"}
        if anatomy.granule_offset is not None:
            report.tag_fields["granule_offset"] = anatomy.granule_offset
        if anatomy.register_index is not None:
            report.tag_fields["register_index"] = anatomy.register_index
        if anatomy.table_index is not None:
            report.tag_fields["table_index"] = anatomy.table_index
        if anatomy.subobject_index is not None:
            report.tag_fields["subobject_index"] = anatomy.subobject_index
        report.metadata_path = _metadata_path(anatomy)
        report.promote_outcome = anatomy.promote_outcome
        report.anatomy_text = anatomy.describe()
        if anatomy.bounds is not None:
            # For poison traps the dry-run promote recovers the (possibly
            # subobject-narrowed) bounds the pointer was checked against.
            report.bounds = (anatomy.bounds.lower, anatomy.bounds.upper)
    if isinstance(trap, BoundsTrap):
        report.bounds = (trap.lower, trap.upper)
    if isinstance(trap, TemporalViolation):
        # Temporal traps get the lock-and-key anatomy instead of the
        # spatial dry-run promote: what matters is the registry's view
        # of the allocation base, not the tag's bounds route.
        report.pointer = trap.pointer or report.pointer
        report.tag_fields = {"temporal_key": trap.key,
                             "lock": trap.lock,
                             "kind": trap.kind,
                             "origin": trap.origin}
        report.metadata_path = (f"temporal registry lock for base "
                                f"0x{trap.address:x}")
        report.anatomy_text = _temporal_anatomy(trap)

    obs = machine.obs
    if obs is not None and obs.tracer is not None:
        report.trace_tail = [str(e) for e in obs.tracer.tail(TAIL)]
    if obs is not None and obs.recent is not None:
        report.recent_events = [
            _format_event(e) for e in list(obs.recent)[-TAIL:]]
    return report


def _format_event(event) -> str:
    record = event.to_dict()
    site = record.pop("site", None)
    kind = record.pop("kind")
    where = f"{site[0]}:{site[1]} " if site else ""
    body = " ".join(f"{key}={value}" for key, value in record.items())
    return f"  {where}{kind} {body}"
