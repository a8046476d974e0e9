"""Local offset scheme (paper Section 3.3.1, Figure 6).

Metadata is *appended* to each object (so legacy code still receives a
pointer to the object itself), with both the object base and the metadata
aligned to the implementation granule (16 bytes in the prototype).  The
pointer tag carries the offset *from the current address* to the metadata,
measured in granules with the low address bits truncated:

    metadata_addr = align_down(addr, granule) + granule_offset * granule

Because the metadata sits at the object's end, the object base is derived
from the metadata address and the stored size:

    object_base = metadata_addr - align_up(size, granule)

Pointer arithmetic (``ifpadd``) must re-encode the granule offset for the
new address; this module provides that re-encoding too.

Metadata record — 16 bytes:

======== ===== =========================
offset   width field
======== ===== =========================
0        8     layout-table pointer
8        2     object size (<= 1008)
10       6     48-bit MAC
======== ===== =========================
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ifp.config import IFPConfig, DEFAULT_CONFIG
from repro.ifp.mac import MAC_MASK
from repro.ifp.metadata import ObjectMetadata
from repro.ifp.poison import Poison
from repro.ifp.tag import PointerTag, Scheme, pack_pointer

#: Size of the appended metadata record.
METADATA_BYTES = 16


def align_down(value: int, granule: int) -> int:
    return value & ~(granule - 1)


def align_up(value: int, granule: int) -> int:
    return (value + granule - 1) & ~(granule - 1)


class LocalOffsetScheme:
    """Stateless helpers for the local offset scheme.

    The scheme needs no machine state beyond the metadata records
    themselves, which is what makes it suitable for lightweight compiler
    instrumentation of stack objects.
    """

    name = "local_offset"

    def __init__(self, config: IFPConfig = DEFAULT_CONFIG):
        self.config = config

    # -- sizing -------------------------------------------------------------

    def supports_size(self, size: int) -> bool:
        return 0 < size <= self.config.local_max_object

    def footprint(self, size: int) -> int:
        """Bytes of memory an instrumented object occupies: the object
        rounded up to the granule, plus the metadata record."""
        return align_up(size, self.config.granule) + METADATA_BYTES

    def metadata_address(self, object_base: int, size: int) -> int:
        return object_base + align_up(size, self.config.granule)

    # -- runtime side: registration -----------------------------------------

    def write_metadata(self, memory, object_base: int, size: int,
                       layout_ptr: int, mac) -> int:
        """Write the appended metadata record; returns its address.

        ``object_base`` must be granule-aligned and ``size`` within the
        scheme limit — the compiler/runtime guarantees both.  ``mac`` is
        the IFP unit's :class:`repro.ifp.mac.MacCache`: the record's MAC
        seeds the entry the object's first promote looks up.
        """
        config = self.config
        if object_base & (config.granule - 1):
            raise ValueError("object base must be granule-aligned")
        if not self.supports_size(size):
            raise ValueError(f"object size {size} exceeds local-offset limit")
        md_addr = self.metadata_address(object_base, size)
        memory.store_int(md_addr, layout_ptr, 8)
        memory.store_int(md_addr + 8, size, 2)
        memory.store_int(md_addr + 10, mac.seed((md_addr, size, layout_ptr)),
                         6)
        return md_addr

    def clear_metadata(self, memory, object_base: int, size: int) -> None:
        """Invalidate the record on deallocation (``IFP_Deregister``)."""
        memory.fill(self.metadata_address(object_base, size), 0,
                    METADATA_BYTES)

    def make_pointer(self, address: int, object_base: int, size: int,
                     subobject_index: int = 0,
                     poison: Poison = Poison.VALID) -> int:
        """Mint a tagged pointer to ``address`` inside the object."""
        payload = self.encode_payload(address, object_base, size,
                                      subobject_index)
        if payload is None:
            raise ValueError("address not representable under local offset")
        tag = PointerTag(poison, Scheme.LOCAL_OFFSET, payload)
        return pack_pointer(address, tag)

    def encode_payload(self, address: int, object_base: int, size: int,
                       subobject_index: int) -> Optional[int]:
        """Encode (granule offset, subobject index) or None if the offset
        field cannot represent the distance (pointer far out of bounds)."""
        config = self.config
        md_addr = self.metadata_address(object_base, size)
        delta = md_addr - align_down(address, config.granule)
        if delta < 0 or delta % config.granule:
            return None
        offset = delta // config.granule
        if offset >= (1 << config.local_offset_bits):
            return None
        if subobject_index >= (1 << config.local_subobj_bits):
            return None
        return (offset << config.local_subobj_bits) | subobject_index

    def reencode_after_arithmetic(self, tag: PointerTag, old_address: int,
                                  new_address: int) -> Optional[PointerTag]:
        """Recompute the granule-offset field after pointer arithmetic.

        Returns ``None`` when the new address is not representable, in
        which case the caller (``ifpadd``) must poison the pointer.
        """
        config = self.config
        old_offset = tag.local_granule_offset(config)
        md_addr = align_down(old_address, config.granule) \
            + old_offset * config.granule
        delta = md_addr - align_down(new_address, config.granule)
        if delta < 0:
            return None
        new_offset = delta // config.granule
        if new_offset >= (1 << config.local_offset_bits):
            return None
        sub = tag.local_subobject_index(config)
        payload = (new_offset << config.local_subobj_bits) | sub
        return PointerTag(tag.poison, Scheme.LOCAL_OFFSET, payload)

    # -- hardware side: lookup ------------------------------------------------

    def lookup(self, address: int, tag: PointerTag, port,
               mac) -> Tuple[Optional[ObjectMetadata], bool]:
        """Fetch and validate metadata for a promote.

        ``mac`` is the unit's :class:`repro.ifp.mac.MacCache`.  Returns
        ``(metadata, mac_checked)``; metadata is ``None`` when the record
        is invalid (size zero / MAC mismatch).
        """
        config = self.config
        md_addr = align_down(address, config.granule) \
            + tag.local_granule_offset(config) * config.granule
        layout_ptr = port.load(md_addr, 8)
        size = port.load(md_addr + 8, 2)
        if not self.supports_size(size):
            return None, False
        if config.mac_enabled:
            stored_mac = port.load(md_addr + 10, 6)
            expected = mac.compute((md_addr, size, layout_ptr))
            port.add_cycles(config.mac_cycles)
            if stored_mac != (expected & MAC_MASK):
                return None, True
        base = md_addr - align_up(size, config.granule)
        return ObjectMetadata(base, size, layout_ptr), config.mac_enabled
