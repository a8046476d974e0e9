"""Subheap scheme (paper Section 3.3.2, Figure 7).

A cooperating memory allocator places objects of identical size and type
inside power-of-two-sized, power-of-two-aligned memory *blocks*.  Each
block holds an array of equal-sized *slots* (one object per slot) plus one
shared 32-byte metadata record.  The pointer tag stores only a 4-bit index
into a file of 16 *control registers*; the selected register maps the
pointer to its block (by giving the block size) and to the metadata within
it (by giving the metadata's offset from the block base):

    block_base    = addr & ~(block_size - 1)
    metadata_addr = block_base + metadata_offset

Shared block metadata — 32 bytes:

======== ===== ======================================================
offset   width field
======== ===== ======================================================
0        4     slot-array start offset (from block base)
4        4     slot-array end offset (exclusive)
8        4     slot size (a multiple of the granule for easy division)
12       4     object size (<= slot size)
16       8     layout-table pointer
24       6     48-bit MAC
30       2     magic (0x1FB7) — quick validity filter
======== ===== ======================================================

Locating the object from a pointer is one subtraction, one division by the
slot size, and one multiplication:

    slot  = (addr - block_base - slot_start) // slot_size
    base  = block_base + slot_start + slot * slot_size
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ifp.config import IFPConfig, DEFAULT_CONFIG
from repro.ifp.mac import MAC_MASK
from repro.ifp.metadata import ObjectMetadata
from repro.ifp.poison import Poison
from repro.ifp.tag import PointerTag, Scheme, pack_pointer

#: Size of the shared per-block metadata record.
METADATA_BYTES = 32
#: Validity marker stored in the record.
MAGIC = 0x1FB7


@dataclass(frozen=True)
class SubheapRegion:
    """The contents of one subheap control register."""

    block_log2: int       #: log2 of the block size/alignment
    metadata_offset: int  #: offset of the shared metadata within each block

    @property
    def block_size(self) -> int:
        return 1 << self.block_log2

    def block_base(self, address: int) -> int:
        return address & ~(self.block_size - 1)


class SubheapScheme:
    """Helpers for the subheap scheme.

    Unlike the other schemes this one involves machine state (the control
    registers); the register file itself lives in
    :class:`repro.ifp.unit.ControlRegisters` and is passed in explicitly.
    """

    name = "subheap"

    def __init__(self, config: IFPConfig = DEFAULT_CONFIG):
        self.config = config

    # -- runtime side ---------------------------------------------------------

    def write_block_metadata(self, memory, block_base: int, region: SubheapRegion,
                             slot_start: int, slot_end: int, slot_size: int,
                             object_size: int, layout_ptr: int,
                             mac) -> int:
        """Initialise the shared metadata of one block; returns its
        address.  ``mac`` is the IFP unit's
        :class:`repro.ifp.mac.MacCache`: the record's MAC seeds the
        entry the block's first promote looks up."""
        if object_size > slot_size:
            raise ValueError("object size exceeds slot size")
        if slot_size <= 0 or slot_size % self.config.granule:
            raise ValueError("slot size must be a positive granule multiple")
        if not (0 <= slot_start <= slot_end <= region.block_size):
            raise ValueError("slot array must lie within the block")
        md_addr = block_base + region.metadata_offset
        packed_geometry = (slot_start | (slot_end << 16)
                           | (slot_size << 32) | (object_size << 48))
        code = mac.seed((block_base, packed_geometry, layout_ptr))
        memory.store_int(md_addr, slot_start, 4)
        memory.store_int(md_addr + 4, slot_end, 4)
        memory.store_int(md_addr + 8, slot_size, 4)
        memory.store_int(md_addr + 12, object_size, 4)
        memory.store_int(md_addr + 16, layout_ptr, 8)
        memory.store_int(md_addr + 24, code, 6)
        memory.store_int(md_addr + 30, MAGIC, 2)
        return md_addr

    def make_pointer(self, address: int, register_index: int,
                     subobject_index: int = 0,
                     poison: Poison = Poison.VALID) -> int:
        config = self.config
        if register_index >= config.subheap_register_count:
            raise ValueError("control register index out of range")
        if subobject_index >= config.subheap_max_layout_entries:
            raise ValueError("subobject index exceeds field width")
        payload = ((register_index << config.subheap_subobj_bits)
                   | subobject_index)
        tag = PointerTag(poison, Scheme.SUBHEAP, payload)
        return pack_pointer(address, tag)

    # -- hardware side ----------------------------------------------------------

    def fetch(self, region: SubheapRegion, block_base: int, port,
              mac) -> Tuple[Optional[tuple], bool]:
        """The fetch half of a promote's lookup: read and validate the
        block's shared metadata record.

        Nothing here depends on where in the block the pointer points,
        so the promote cache keeps one result per block and replays its
        fetches for every pointer into it.  ``mac`` is the unit's
        :class:`repro.ifp.mac.MacCache`.  Returns ``(record,
        mac_checked)``: ``record`` is ``(slot_start, slot_end,
        slot_size, object_size, layout_ptr)``, or ``None`` when the
        record is invalid.
        """
        config = self.config
        md_addr = block_base + region.metadata_offset
        slot_start = port.load(md_addr, 4)
        slot_end = port.load(md_addr + 4, 4)
        slot_size = port.load(md_addr + 8, 4)
        object_size = port.load(md_addr + 12, 4)
        layout_ptr = port.load(md_addr + 16, 8)
        magic = port.load(md_addr + 30, 2)
        if magic != MAGIC or slot_size == 0 or object_size == 0 \
                or object_size > slot_size or slot_end > region.block_size \
                or slot_start >= slot_end:
            return None, False
        if config.mac_enabled:
            stored_mac = port.load(md_addr + 24, 6)
            packed_geometry = (slot_start | (slot_end << 16)
                               | (slot_size << 32) | (object_size << 48))
            expected = mac.compute(
                (block_base, packed_geometry, layout_ptr))
            port.add_cycles(config.mac_cycles)
            if stored_mac != (expected & MAC_MASK):
                return None, True
        return ((slot_start, slot_end, slot_size, object_size, layout_ptr),
                config.mac_enabled)

    def resolve(self, record: Optional[tuple], block_base: int,
                address: int, port) -> Optional[ObjectMetadata]:
        """The resolve half: locate the object ``address`` points into
        from a :meth:`fetch` record; ``None`` when the record is invalid
        or the address lies outside the slot array."""
        if record is None:
            return None
        slot_start, slot_end, slot_size, object_size, layout_ptr = record
        offset_in_array = address - block_base - slot_start
        if offset_in_array < 0 or address >= block_base + slot_end:
            # Pointer drifted outside the slot array: cannot identify the
            # object.  Treated as invalid metadata for this pointer.
            return None
        # constrained slot division
        port.add_cycles(self.config.slot_divide_cycles)
        slot = offset_in_array // slot_size
        base = block_base + slot_start + slot * slot_size
        return ObjectMetadata(base, object_size, layout_ptr)
