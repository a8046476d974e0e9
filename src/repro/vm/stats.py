"""Dynamic-execution statistics (the raw material of Table 4, Figures 10-12).

``RunStats`` accumulates during one program run.  Category accounting
matches the paper:

* ``base_instructions`` — instructions the unmodified ISA would execute
  (including modelled libc/runtime builtin work);
* ``promote_instructions`` / ``ifp_arith_instructions`` /
  ``bounds_ls_instructions`` — the three new-instruction classes of
  Figure 11;
* object-instrumentation counters split by global/local/heap and by
  whether the object metadata includes a layout table (Table 4);
* cycle and cache-miss counts for the runtime-overhead figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ifp.unit import IFPUnitStats


@dataclass
class RunStats:
    # -- dynamic instruction counts ------------------------------------------
    base_instructions: int = 0
    promote_instructions: int = 0
    ifp_arith_instructions: int = 0
    bounds_ls_instructions: int = 0
    builtin_instructions: int = 0  #: included in base_instructions

    # -- time ---------------------------------------------------------------
    cycles: int = 0

    # -- memory accesses -------------------------------------------------------
    loads: int = 0
    stores: int = 0

    # -- checks ------------------------------------------------------------------
    implicit_checks: int = 0
    check_failures: int = 0
    #: deref-site lock==key comparisons (repro.temporal); only bounds
    #: registers carrying a temporal fact are probed
    temporal_checks: int = 0
    temporal_failures: int = 0

    # -- object instrumentation (Table 4) -----------------------------------------
    local_objects: int = 0
    local_objects_lt: int = 0
    global_objects: int = 0
    global_objects_lt: int = 0
    heap_objects: int = 0
    heap_objects_lt: int = 0
    heap_frees: int = 0
    #: allocations downgraded to a weaker scheme / untagged pointer when
    #: a fixed-size metadata resource ran out (see repro.resil.policy)
    degraded_allocs: int = 0

    # -- attached at end of run -----------------------------------------------------
    ifp: Optional[IFPUnitStats] = None
    l1d_accesses: int = 0
    l1d_misses: int = 0
    peak_mapped_bytes: int = 0
    heap_high_water: int = 0

    @property
    def total_instructions(self) -> int:
        return (self.base_instructions + self.promote_instructions
                + self.ifp_arith_instructions + self.bounds_ls_instructions)

    @property
    def new_instructions(self) -> int:
        """Instructions introduced by In-Fat Pointer."""
        return (self.promote_instructions + self.ifp_arith_instructions
                + self.bounds_ls_instructions)

    def compact(self) -> str:
        """One-line snapshot, embedded in harness error messages and
        forensics reports."""
        parts = [
            f"instr={self.total_instructions}",
            f"cycles={self.cycles}",
            f"checks={self.implicit_checks}"
            f"({self.check_failures} failed)",
            f"objs={self.global_objects}g/{self.local_objects}l"
            f"/{self.heap_objects}h",
        ]
        if self.ifp is not None:
            parts.append(f"promotes={self.ifp.promotes_total}"
                         f"({self.ifp.promotes_valid} valid)")
            if self.ifp.narrow_attempts:
                parts.append(f"narrow={self.ifp.narrow_success}"
                             f"/{self.ifp.narrow_attempts}")
        return " ".join(parts)

    def summary(self) -> str:
        lines = [
            f"instructions: {self.total_instructions:,} "
            f"(base {self.base_instructions:,}, "
            f"promote {self.promote_instructions:,}, "
            f"ifp-arith {self.ifp_arith_instructions:,}, "
            f"bounds-ls {self.bounds_ls_instructions:,})",
            f"cycles: {self.cycles:,}",
            f"L1D: {self.l1d_accesses:,} accesses, "
            f"{self.l1d_misses:,} misses",
            f"objects: {self.global_objects} global "
            f"({self.global_objects_lt} w/LT), "
            f"{self.local_objects} local ({self.local_objects_lt} w/LT), "
            f"{self.heap_objects} heap ({self.heap_objects_lt} w/LT)",
            f"peak mapped memory: {self.peak_mapped_bytes:,} bytes",
        ]
        if self.ifp is not None:
            ifp = self.ifp
            lines.append(
                f"promotes: {ifp.promotes_total:,} total, "
                f"{ifp.promotes_valid:,} valid, "
                f"{ifp.promotes_null:,} null, {ifp.promotes_legacy:,} legacy; "
                f"narrowing {ifp.narrow_success}/{ifp.narrow_attempts}")
        return "\n".join(lines)
