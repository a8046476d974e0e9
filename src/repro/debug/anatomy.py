"""Tagged-pointer anatomy: decode and dry-run a pointer's promote."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MemoryFault, TemporalViolation
from repro.ifp.bounds import Bounds
from repro.ifp.tag import Scheme, address_of, unpack_tag


@dataclass
class PointerAnatomy:
    """Everything knowable about one 64-bit pointer value."""

    value: int
    address: int
    poison: str
    scheme: str
    payload: int
    granule_offset: Optional[int] = None
    subobject_index: Optional[int] = None
    register_index: Optional[int] = None
    table_index: Optional[int] = None
    promote_outcome: Optional[str] = None
    bounds: Optional[Bounds] = None
    narrowed: Optional[bool] = None

    def describe(self) -> str:
        lines = [
            f"pointer 0x{self.value:016x}",
            f"  address          0x{self.address:012x}",
            f"  poison           {self.poison}",
            f"  scheme           {self.scheme}",
        ]
        if self.granule_offset is not None:
            lines.append(f"  granule offset   {self.granule_offset} "
                         f"(metadata {self.granule_offset * 16} bytes up)")
        if self.register_index is not None:
            lines.append(f"  control register {self.register_index}")
        if self.table_index is not None:
            lines.append(f"  table index      {self.table_index}")
        if self.subobject_index is not None:
            lines.append(f"  subobject index  {self.subobject_index}")
        if self.promote_outcome is not None:
            lines.append(f"  promote          {self.promote_outcome}")
        if self.bounds is not None:
            lines.append(f"  bounds           {self.bounds} "
                         f"({self.bounds.size} bytes)"
                         + (" [narrowed]" if self.narrowed else ""))
        return "\n".join(lines)


def explain_pointer(machine, pointer: int) -> PointerAnatomy:
    """Decode a pointer and dry-run its promote on ``machine``.

    The dry run (:meth:`repro.ifp.unit.IFPUnit.dry_run`) reads the
    machine's metadata but changes nothing the machine can observe, so
    explaining pointers does not perturb an experiment.
    """
    tag = unpack_tag(pointer)
    anatomy = PointerAnatomy(
        value=pointer,
        address=address_of(pointer),
        poison=tag.poison.name,
        scheme=tag.scheme.name,
        payload=tag.payload,
    )
    config = machine.config.ifp
    if tag.scheme is Scheme.LOCAL_OFFSET:
        anatomy.granule_offset = tag.local_granule_offset(config)
        anatomy.subobject_index = tag.local_subobject_index(config)
    elif tag.scheme is Scheme.SUBHEAP:
        anatomy.register_index = tag.subheap_register_index(config)
        anatomy.subobject_index = tag.subheap_subobject_index(config)
    elif tag.scheme is Scheme.GLOBAL_TABLE:
        anatomy.table_index = tag.global_table_index(config)

    try:
        result = machine.ifp.dry_run(pointer)
        anatomy.promote_outcome = result.outcome.value
        anatomy.bounds = result.bounds
        anatomy.narrowed = result.narrowed
    except MemoryFault:
        anatomy.promote_outcome = "metadata access faulted"
    except TemporalViolation:
        anatomy.promote_outcome = "temporal violation"
    return anatomy
