"""Canonical decoded object metadata.

Every lookup scheme ultimately yields the same logical record (paper
Section 3.3): the object's base address and size (for bounds checking), a
pointer to the type's layout table (for subobject narrowing; 0 when the
allocation site had no type information), and — for schemes whose metadata
lives in unprotected application memory — a MAC.

The scheme-specific *encodings* of this record live with each scheme in
:mod:`repro.ifp.schemes`; this module only defines the decoded form.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ifp.bounds import Bounds


class ObjectMetadata(NamedTuple):
    """Decoded per-object metadata (a named tuple: every promote miss
    builds one, at a third of a frozen dataclass's cost)."""

    base: int        #: 48-bit object base address
    size: int        #: object size in bytes
    layout_ptr: int  #: address of the type's layout table (0 = none)

    @property
    def bounds(self) -> Bounds:
        return Bounds(self.base, self.base + self.size)
