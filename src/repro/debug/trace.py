"""Bounded execution tracing for the VM.

The tracer rides on the machine's observer (``machine.obs.tracer``), the
one instrument slot: both engines record each instruction before it
executes, and with no observer attached (the default) nothing is
recorded and nothing is paid.  Traces are ring-buffered so tracing a
long run keeps the tail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.compiler.ir import Instr, MNEMONICS, Op


@dataclass(frozen=True)
class TraceEvent:
    """One executed instruction."""

    function: str
    index: int
    op: int
    mnemonic: str
    dst: int
    operand_a: Optional[int]   #: value of register `a` before execution
    operand_b: Optional[int]

    def __str__(self) -> str:
        parts = [f"{self.function}:{self.index:<5d} {self.mnemonic:11s}"]
        if self.dst >= 0:
            parts.append(f"r{self.dst}")
        if self.operand_a is not None:
            parts.append(f"a=0x{self.operand_a:x}")
        if self.operand_b is not None:
            parts.append(f"b=0x{self.operand_b:x}")
        return " ".join(parts)


class Tracer:
    """Ring-buffered instruction tracer with optional filtering.

    ``only_ops`` restricts recording to an opcode subset (e.g. just the
    IFP extension); ``capacity`` bounds memory.  ``capacity=0`` is the
    counting-only mode: matching instructions bump :attr:`recorded` but
    no event objects are built or kept.  Negative capacities are
    rejected.  The ring keeps the *tail* of the run: once full, each new
    event evicts the oldest one, so ``events`` is always the most recent
    ``capacity`` matches in execution order.
    """

    def __init__(self, capacity: int = 4096,
                 only_ops: Optional[set] = None):
        if capacity < 0:
            raise ValueError(f"tracer capacity must be >= 0, "
                             f"got {capacity}")
        self.capacity = capacity
        self.only_ops = only_ops
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, function: str, index: int, ins: Instr,
               regs: List[int]) -> None:
        if self.only_ops is not None and ins.op not in self.only_ops:
            return
        self.recorded += 1
        if self.capacity == 0:
            return
        operand_a = regs[ins.a] if 0 <= ins.a < len(regs) else None
        operand_b = regs[ins.b] if 0 <= ins.b < len(regs) else None
        self.events.append(TraceEvent(
            function, index, int(ins.op), MNEMONICS[ins.op], ins.dst,
            operand_a, operand_b))

    # -- queries -------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Consistent point-in-time copy of the ring, oldest first.

        Safe to call while the tracer is still recording (e.g. from an
        observability sink mid-run): the returned tuple is immutable and
        detached from the live deque.
        """
        return tuple(self.events)

    def tail(self, count: int = 20) -> List[TraceEvent]:
        """The most recent ``count`` events (all of them if fewer);
        ``count <= 0`` returns an empty list."""
        if count <= 0:
            return []
        return list(self.snapshot()[-count:])

    def by_mnemonic(self, mnemonic: str) -> List[TraceEvent]:
        return [e for e in self.snapshot() if e.mnemonic == mnemonic]

    def format_tail(self, count: int = 20) -> str:
        return "\n".join(str(e) for e in self.tail(count))


#: ops worth watching when debugging IFP behaviour
IFP_OPS = {Op.PROMOTE, Op.IFPADD, Op.IFPIDX, Op.IFPBND, Op.IFPCHK,
           Op.IFPEXTRACT, Op.IFPMD, Op.IFPMAC, Op.LDBND, Op.STBND}


def attach_tracer(machine, capacity: int = 4096,
                  ifp_only: bool = False) -> Tracer:
    """Create a tracer and attach it to a machine (before ``run``).

    The tracer rides on the machine's observer; a machine without one
    gets a bare observer (no profiler, no event tail, no forensics).
    """
    from repro.obs.observer import attach_observer
    obs = machine.obs
    if obs is None:
        obs = attach_observer(machine, profile=False, forensics=False,
                              event_tail=0)
    obs.tracer = Tracer(capacity, IFP_OPS if ifp_only else None)
    return obs.tracer
