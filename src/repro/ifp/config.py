"""Configuration knobs for the In-Fat Pointer hardware design point.

The defaults are the paper's prototype parameters (Section 3.3):

* 16-byte granule, 6-bit offset + 6-bit subobject index for the local
  offset scheme (objects up to ``(2**6 - 1) * 16 = 1008`` bytes, layout
  tables up to 64 entries);
* 16 subheap control registers (4-bit index) + 8-bit subobject index;
* 12-bit global-table index (4096 rows, 16 bytes each), no narrowing;
* 48-bit MAC on local-offset and subheap metadata.

Ablation benchmarks flip the feature switches (``mac_enabled``,
``narrowing_enabled``, ``schemes_enabled``) to quantify each design
choice's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class IFPConfig:
    """Design-point parameters for the IFP hardware."""

    # -- local offset scheme ----------------------------------------------
    granule: int = 16                 #: alignment/offset unit, bytes
    local_offset_bits: int = 6        #: granule-offset field width
    local_subobj_bits: int = 6        #: subobject-index field width

    # -- subheap scheme -----------------------------------------------------
    subheap_reg_bits: int = 4         #: control-register index width
    subheap_subobj_bits: int = 8      #: subobject-index field width

    # -- global table scheme ------------------------------------------------
    global_index_bits: int = 12       #: table-index field width

    # -- feature switches (ablations) ---------------------------------------
    mac_enabled: bool = True          #: verify metadata MACs during promote
    narrowing_enabled: bool = True    #: perform subobject bounds narrowing
    #: which schemes the instrumentation may use; the global table is the
    #: universal fallback and must always be present.
    schemes_enabled: Tuple[str, ...] = ("local_offset", "subheap", "global_table")

    # -- temporal lock-and-key (repro.temporal) ------------------------------
    #: generation-key width stolen from the *top* bits of each scheme's
    #: subobject/index field (0 = no temporal tagging; the spatial layout
    #: is bit-for-bit the paper's).  With k bits reserved, the usable
    #: subobject/index widths shrink by k — the tag-bit budget trade-off
    #: quantified in DESIGN §11.
    temporal_key_bits: int = 0

    # -- timing (cycles), mirroring the prototype's multi-cycle units -------
    promote_base_cycles: int = 2      #: dispatch + poison/selector decode
    mac_cycles: int = 3               #: MAC recompute during promote
    narrow_step_cycles: int = 2       #: per layout-table level walked
    divide_cycles: int = 8            #: array-element division in the walker
    #: slot-index division in the subheap lookup: slot sizes are
    #: constrained to be hardware-division-friendly (Section 3.3.2), so
    #: this is much cheaper than the walker's general division
    slot_divide_cycles: int = 2

    # -- derived limits ------------------------------------------------------

    @property
    def local_max_object(self) -> int:
        """Largest object the local offset scheme supports, in bytes."""
        return ((1 << self.local_offset_bits) - 1) * self.granule

    @property
    def local_max_layout_entries(self) -> int:
        return 1 << (self.local_subobj_bits - self.temporal_key_bits)

    @property
    def subheap_register_count(self) -> int:
        return 1 << self.subheap_reg_bits

    @property
    def subheap_max_layout_entries(self) -> int:
        return 1 << (self.subheap_subobj_bits - self.temporal_key_bits)

    @property
    def global_table_rows(self) -> int:
        return 1 << (self.global_index_bits - self.temporal_key_bits)

    def validate(self) -> None:
        """Sanity-check that the fields fit the 12-bit tag payload."""
        if self.local_offset_bits + self.local_subobj_bits != 12:
            raise ValueError("local offset scheme fields must total 12 bits")
        if self.subheap_reg_bits + self.subheap_subobj_bits != 12:
            raise ValueError("subheap scheme fields must total 12 bits")
        if self.global_index_bits != 12:
            raise ValueError("global table index must be 12 bits")
        if self.granule <= 0 or self.granule & (self.granule - 1):
            raise ValueError("granule must be a power of two")
        if "global_table" not in self.schemes_enabled:
            raise ValueError("the global table scheme is the mandatory fallback")
        if not (0 <= self.temporal_key_bits
                < min(self.local_subobj_bits, self.subheap_subobj_bits,
                      self.global_index_bits)):
            raise ValueError(
                "temporal_key_bits must leave at least one usable bit in "
                "every subobject/index field")


#: The paper's prototype design point.
DEFAULT_CONFIG = IFPConfig()
