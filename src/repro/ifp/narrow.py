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

The walk can fail *softly*: if the subobject index is out of table range,
a parent link is malformed, or the address lies outside the parent span
(so the containing array element cannot be identified), the promote falls
back to the coarsest bounds resolved so far — the paper's guarantee that
incorrectly-typed pointers still get object-granularity protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ifp.bounds import Bounds
from repro.ifp.config import IFPConfig
from repro.ifp.layout import LAYOUT_ENTRY_BYTES


@dataclass
class NarrowResult:
    """Outcome of one narrowing walk."""

    bounds: Bounds        #: final bounds (subobject, or coarser on failure)
    exact: bool           #: True when narrowing fully resolved the index
    levels_walked: int    #: layout-table levels traversed
    divisions: int        #: array-element divisions performed


def narrow_bounds(port, config: IFPConfig, layout_ptr: int,
                  object_bounds: Bounds, address: int,
                  subobject_index: int) -> NarrowResult:
    """Run the layout-table walk.

    ``port`` is the IFP unit's metadata port (loads cost cycles).
    ``subobject_index`` must be non-zero — index 0 means "whole object"
    and the caller skips narrowing entirely in that case.
    """
    # Entry 0's parent field stores the entry count (see repro.ifp.layout).
    entry_count = port.load(layout_ptr, 2)
    if not (0 < subobject_index < entry_count):
        return NarrowResult(object_bounds, False, 0, 0)

    # Fetch the entry chain from the index up to (not including) entry 0.
    chain: List[tuple] = []  # (parent, base, bound, size), leaf first
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
            return NarrowResult(object_bounds, False, len(chain), 0)
        chain.append((parent, base, bound, size))
        port.add_cycles(config.narrow_step_cycles)
        index = parent

    # Resolve top-down.  (lower, upper, elem_size) describe the current
    # subobject; elem_size < span means it is an array of elements.
    lower, upper = object_bounds.lower, object_bounds.upper
    elem_size = upper - lower
    divisions = 0
    for level, (_parent, base, bound, size) in enumerate(reversed(chain)):
        if elem_size != upper - lower:
            # Parent is an array: identify the containing element.
            if not (lower <= address < upper):
                coarse = Bounds(lower, upper)
                return NarrowResult(coarse, False, level, divisions)
            port.add_cycles(config.divide_cycles)
            divisions += 1
            element = (address - lower) // elem_size
            elem_base = lower + element * elem_size
        else:
            elem_base = lower
        new_lower = elem_base + base
        new_upper = elem_base + bound
        if not (lower <= new_lower and new_upper <= upper + 0):
            # Child escapes the parent span: malformed table.
            return NarrowResult(Bounds(lower, upper), False, level, divisions)
        lower, upper, elem_size = new_lower, new_upper, size
    return NarrowResult(Bounds(lower, upper), True, len(chain), divisions)
