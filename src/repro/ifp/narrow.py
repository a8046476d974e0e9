"""Subobject bounds narrowing — the layout-table walk (paper Section 3.4).

Given the object bounds, the pointer's current address and its subobject
index, the walker fetches the indexed layout-table entry and its parent
chain, then resolves bounds top-down:

1. the base case (entry 0) is the object bounds;
2. descending from a parent to a child, if the parent is an *array* entry
   (its span is larger than its element size) the walker first snaps the
   pointer's address to the containing array element — this is the
   multi-cycle division the paper attributes most of the layout walker's
   hardware complexity to;
3. the child's ``[base, bound)`` offsets are then applied relative to that
   element's base.

The walk is split in two halves.  The *fetch* half
(:func:`fetch_chain`) reads the indexed entry and its parent chain; it
depends only on the table and the index, never on the address, so a
subheap block's promote cache entry can replay it for every pointer into
the block.  The *resolve* half (:func:`resolve_chain`) applies the chain
to the object bounds and the address, and always runs live.

The walk can fail *softly*: if the subobject index is out of table range,
a parent link is malformed, or the address lies outside the parent span
(so the containing array element cannot be identified), the promote falls
back to the coarsest bounds resolved so far — the paper's guarantee that
incorrectly-typed pointers still get object-granularity protection.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ifp.bounds import Bounds
from repro.ifp.config import IFPConfig
from repro.ifp.layout import LAYOUT_ENTRY_BYTES


def fetch_chain(port, config: IFPConfig, layout_ptr: int,
                subobject_index: int) -> Optional[tuple]:
    """The fetch half of the walk: read entry ``subobject_index`` and
    its parent chain through ``port``, the IFP unit's metadata port
    (loads cost cycles).

    Returns the chain root first, as ``(base, bound, size)`` per entry,
    or ``None`` when the index is out of table range or an entry is
    malformed: such a walk falls back to object bounds.
    ``subobject_index`` must be non-zero — index 0 means "whole object"
    and the caller skips narrowing entirely in that case.
    """
    # Entry 0's parent field stores the entry count (see repro.ifp.layout).
    entry_count = port.load(layout_ptr, 2)
    if not (0 < subobject_index < entry_count):
        return None
    chain = []  # (base, bound, size), leaf first
    index = subobject_index
    while index != 0:
        entry_addr = layout_ptr + index * LAYOUT_ENTRY_BYTES
        parent = port.load(entry_addr, 2)
        base = port.load(entry_addr + 4, 4)
        bound = port.load(entry_addr + 8, 4)
        size = port.load(entry_addr + 12, 4)
        if parent >= index or bound < base or size == 0:
            # Malformed table (hardware validates parent < index to
            # guarantee termination): fail softly to object bounds.
            return None
        chain.append((base, bound, size))
        port.add_cycles(config.narrow_step_cycles)
        index = parent
    chain.reverse()
    return tuple(chain)


def resolve_chain(port, config: IFPConfig, chain: Optional[tuple],
                  object_bounds: Bounds, address: int) -> Tuple[Bounds, bool]:
    """The resolve half of the walk: apply ``chain`` (from
    :func:`fetch_chain`) top-down to ``object_bounds`` at ``address``.

    Returns ``(bounds, exact)``: the subobject bounds and True, or the
    coarsest bounds resolved before the walk failed and False.
    """
    if chain is None:
        return object_bounds, False
    # (lower, upper, elem_size) describe the current subobject;
    # elem_size < span means it is an array of elements.
    lower, upper = object_bounds.lower, object_bounds.upper
    elem_size = upper - lower
    for base, bound, size in chain:
        if elem_size != upper - lower:
            # Parent is an array: identify the containing element.
            if not (lower <= address < upper):
                return Bounds(lower, upper), False
            port.add_cycles(config.divide_cycles)
            elem_base = lower + (address - lower) // elem_size * elem_size
        else:
            elem_base = lower
        new_lower = elem_base + base
        new_upper = elem_base + bound
        if not (lower <= new_lower and new_upper <= upper):
            # Child escapes the parent span: malformed table.
            return Bounds(lower, upper), False
        lower, upper, elem_size = new_lower, new_upper, size
    return Bounds(lower, upper), True
